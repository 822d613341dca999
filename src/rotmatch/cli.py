"""Command-line interface: dataset generation, training, evaluation,
pairwise matching with visualization, equivariance checks, and report
merging."""

import argparse
import os
import re
import sys


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rotmatch",
        description="rotation-equivariant coarse-to-fine image matching at desk scale")
    parser.add_argument("--print-config", action="store_true",
                        help="print every config default and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="generate a synthetic dataset (plus "
                                        "optional rotated/warped copies)")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=16)
    p.add_argument("--size", type=_size, default="64x64", help="HxW, divisible by 8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rotate-a", type=float, default=None,
                   help="also write a copy with B-images rotated by this angle")
    p.add_argument("--warp-s", type=float, default=None,
                   help="also write a copy with corner-warped B-images")
    p.add_argument("--no-jitter", action="store_true")
    p.add_argument("--split", default="synthetic")

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override, e.g. backbone.variant=plain")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mod", type=_modification, default="none",
                   help="none | r<angle> | h<scale>")
    p.add_argument("--report", required=True, help="output prefix (.csv, .txt)")

    p = sub.add_parser("match", help="match two images and write an overlay")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image-a", required=True)
    p.add_argument("--image-b", required=True)
    p.add_argument("--gt-h", default=None, help="9-float text file, row-major")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--size", type=_size, default=None,
                   help="canonical resize LONGxSHORT; by default, no resize")

    p = sub.add_parser("equivcheck", help="equivariance/invariance suites")
    p.add_argument("--variant", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("report", help="merge evaluation CSVs into text tables")
    p.add_argument("csv", nargs="+")
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.print_config or args.command is None:
        from .config import Config
        sys.stdout.write(Config.default().to_text())
        return 0 if args.print_config else (0 if args.command else 2)

    return {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "match": _cmd_match,
        "equivcheck": _cmd_equivcheck,
        "report": _cmd_report,
    }[args.command](args)


def _size(text):
    """The argparse type of `--size`: two positive integers joined by an x."""
    m = re.fullmatch(r"([0-9]+)x([0-9]+)", text.lower())
    size = (int(m[1]), int(m[2])) if m else (0, 0)
    if min(size) < 1:
        raise argparse.ArgumentTypeError(f"expected two positive integers as AxB, "
                                         f"got {text!r}")
    return size


def _modification(text):
    """The argparse type of `--mod`: a spec that `parse_modification` takes."""
    from .datasets import parse_modification

    try:
        parse_modification(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return text


def _number(value):
    """Text for a float in a modification tag: `:g`'s (r45, h0.15) if it
    parses back to the value, else the fewest digits that do (NaN keeps
    `:g`'s text, which the spec check then rejects)."""
    texts = (f"{value:.{digits}g}" for digits in range(6, 18))
    return next((t for t in texts if float(t) == value), f"{value:g}")


def _cmd_generate(args):
    from .datasets import (DatasetManifest, parse_modification, save_sequence,
                           synth_dataset)

    h, w = args.size
    tags = []
    if args.rotate_a is not None:
        tags.append("r" + _number(args.rotate_a))
    if args.warp_s is not None:
        tags.append("h" + _number(args.warp_s))
    try:
        for tag in tags:   # a bad copy fails before the base dataset is written
            parse_modification(tag)
        manifest = synth_dataset(args.out, args.scenes, h, w, seed=args.seed,
                                 jitter=not args.no_jitter, split=args.split)
    except ValueError as e:
        raise SystemExit(f"generate: {e}")
    print(f"wrote {args.scenes} scenes to {args.out}")
    for tag in tags:
        out_dir = f"{args.out.rstrip('/')}-{tag}"
        os.makedirs(out_dir, exist_ok=True)
        scenes = []
        for entry in manifest.scenes:
            seq = manifest.load(entry["name"], tag)
            save_sequence(out_dir, seq)
            scenes.append({"name": seq.name, "split": seq.split,
                           "seed": entry["seed"], "jitter": entry["jitter"],
                           "modification": tag})
        DatasetManifest(out_dir, manifest.seed, h, w, scenes).save()
        print(f"wrote modified copy to {out_dir}")
    return 0


def _cmd_train(args):
    from .config import load_config
    from .train import train

    try:
        config = load_config(args.config, overrides=args.set)
    except ValueError as e:
        raise SystemExit(f"train: {e}")

    def progress(entry):
        print(" ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in entry.items()))

    result, _ = train(config, args.data, args.out, progress=progress)
    print(f"finished {result.steps_run} steps; best val AUC@10 "
          f"{result.best_val:.2f}; best checkpoint {result.best_checkpoint}")
    return 0


def _cmd_evaluate(args):
    from .evaluate import evaluate, render_table, parse_csv, report_csv
    from .model import load_model

    model = load_model(args.checkpoint)
    run = evaluate(model, args.dataset, args.mod, model.config,
                   checkpoint_id=os.path.basename(args.checkpoint))
    variant = model.config.backbone.variant
    csv_bytes = report_csv(run, variant)
    with open(args.report + ".csv", "wb") as f:
        f.write(csv_bytes)
    table = render_table(parse_csv(csv_bytes))
    with open(args.report + ".txt", "w", encoding="utf-8") as f:
        f.write(table)
    print(table)
    print(f"wall clock: {run.wall_clock_s:.1f}s; failures: {run.report.n_failures}; "
          f"config {run.config_hash}")
    return 0


def _cmd_match(args):
    from .datasets import load_homography_file, resize_image
    from .evaluate import match_images
    from .imageio import read_rgb
    from .model import load_model

    model = load_model(args.checkpoint)
    img_a, img_b = read_rgb(args.image_a), read_rgb(args.image_b)
    h_gt = load_homography_file(args.gt_h) if args.gt_h else None
    if args.size is not None:
        (img_a, s_a), (img_b, s_b) = (resize_image(img, *args.size) for img in (img_a, img_b))
        if h_gt is not None:
            h_gt = s_b.compose(h_gt).compose(s_a.inverse())
    for img, name in ((img_a, "A"), (img_b, "B")):
        if img.shape[1] % 8 or img.shape[2] % 8:
            raise SystemExit(f"image {name} dims {img.shape[1:]} not divisible by 8; "
                             f"use --size to resize")
    matches = match_images(model, img_a, img_b, h_gt=h_gt,
                           out_prefix=args.out_prefix)
    print(f"{len(matches)} matches -> {args.out_prefix}.matches.txt, "
          f"{args.out_prefix}.ppm")
    return 0


def _cmd_equivcheck(args):
    from .evaluate import equivariance_check
    from .model import load_model

    backbone = None
    if args.checkpoint:
        backbone = load_model(args.checkpoint).backbone
        if backbone.config.variant != args.variant:
            raise SystemExit(f"--variant {args.variant} does not match the checkpoint's "
                             f"backbone.variant {backbone.config.variant}")
    try:
        passed, lines = equivariance_check(args.variant, backbone=backbone,
                                           trials=args.trials)
    except ValueError as e:
        raise SystemExit(f"equivcheck: {e}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(text)
    return 0 if passed else 1


def _cmd_report(args):
    from .evaluate import parse_csv, render_table

    rows = []
    for path in args.csv:
        with open(path, "rb") as f:
            rows.extend(parse_csv(f.read()))
    table = render_table(rows)
    print(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
