import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from rotmatch.datasets import (apply_modification, corner_warp_homography,
                               gt_coarse_assignment, load_manifest,
                               load_sequence, make_rotated,
                               make_synthetic_sequence, make_warped, psnr,
                               resize_canonical, sample_corner_offsets,
                               save_sequence, splitmix64, synth_dataset,
                               warp_consistency_psnr)
from rotmatch.geometry import Homography, projective_distance
from rotmatch.groups import rotation_about_center
from rotmatch.imageio import read_ppm, write_ppm


def dir_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                h.update(name.encode())
                h.update(f.read())
    return h.hexdigest()


class TestImageIO:
    def test_ppm_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, size=(3, 5, 7)) / 255.0).astype(np.float32)
        path = tmp_path / "t.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.array_equal(back, img)
        write_ppm(tmp_path / "t2.ppm", back)
        assert (tmp_path / "t.ppm").read_bytes() == (tmp_path / "t2.ppm").read_bytes()

    def test_pgm_gray(self, tmp_path):
        img = (np.arange(12).reshape(1, 3, 4) / 11.0 * (255 / 255)).astype(np.float32)
        write_ppm(tmp_path / "g.pgm", img)
        back = read_ppm(tmp_path / "g.pgm")
        assert back.shape == (1, 3, 4)

    def test_header_bytes(self, tmp_path):
        write_ppm(tmp_path / "h.ppm", np.zeros((3, 2, 4), dtype=np.float32))
        data = (tmp_path / "h.ppm").read_bytes()
        assert data.startswith(b"P6\n4 2\n255\n")
        assert len(data) == len(b"P6\n4 2\n255\n") + 2 * 4 * 3

    @pytest.mark.parametrize("size", [b"-4 3", b"4 -3", b"0 3", b"4 0"])
    def test_non_positive_size_rejected(self, tmp_path, size):
        path = tmp_path / "s.ppm"
        path.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(36))
        with pytest.raises(ValueError, match="image size .* is not positive"):
            read_ppm(path)

    @pytest.mark.parametrize("header,field", [(b"P6\nabc 3\n255\n", "width"),
                                              (b"P6\n4 3.5\n255\n", "height"),
                                              (b"P5\n4 3\nff\n", "maxval")])
    def test_non_numeric_header_field_rejected(self, tmp_path, header, field):
        path = tmp_path / "n.ppm"
        path.write_bytes(header + bytes(36))
        with pytest.raises(ValueError) as err:
            read_ppm(path)
        assert str(err.value).startswith(f"{path}: header {field} ")
        assert str(err.value).endswith("is not an integer")

    @pytest.mark.parametrize("header,field", [(b"", "magic"), (b"P6\n4 ", "height"),
                                              (b"P6 # 4 3 255\n", "width"),
                                              (b"P6\n4 3\n255", "maxval")])
    def test_header_ending_early_names_file_and_field(self, tmp_path, header, field):
        path = tmp_path / "e.ppm"
        path.write_bytes(header)
        with pytest.raises(ValueError) as err:
            read_ppm(path)
        assert str(err.value) == f"{path}: header ends before its {field}"

    def test_truncated_body_rejected_before_reading(self, tmp_path):
        # the header names 75 MB of pixels; 10 bytes follow it
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n5000 5000\n255\n" + bytes(10))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated pixel data"):
                read_ppm(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLoadSequence:
    def test_round_trip(self, tmp_path):
        seq = make_synthetic_sequence("scene", 32, 40, seed=5)
        save_sequence(tmp_path, seq)
        back = load_sequence(tmp_path / "scene")
        assert back.image_a.shape == (3, 32, 40)
        # images quantized to 8 bits on disk
        assert np.abs(back.image_a - seq.image_a).max() <= 0.5 / 255 + 1e-6
        for h1, h2 in zip(back.homographies, seq.homographies):
            assert projective_distance(h1, h2) < 1e-12

    def test_missing_homography(self, tmp_path):
        seq = make_synthetic_sequence("scene", 16, 16, seed=1)
        save_sequence(tmp_path, seq)
        os.remove(tmp_path / "scene" / "H_1_4")
        with pytest.raises(FileNotFoundError, match="H_1_4"):
            load_sequence(tmp_path / "scene")

    def test_missing_image(self, tmp_path):
        seq = make_synthetic_sequence("scene", 16, 16, seed=1)
        save_sequence(tmp_path, seq)
        os.remove(tmp_path / "scene" / "3.ppm")
        with pytest.raises(FileNotFoundError, match="3.ppm"):
            load_sequence(tmp_path / "scene")

    def test_singular_homography(self, tmp_path):
        seq = make_synthetic_sequence("scene", 16, 16, seed=1)
        save_sequence(tmp_path, seq)
        with open(tmp_path / "scene" / "H_1_2", "w") as f:
            f.write("0 0 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="singular") as err:
            load_sequence(tmp_path / "scene")
        assert str(tmp_path / "scene" / "H_1_2") in str(err.value)

    @pytest.mark.parametrize("bad,message", [("nan", "non-finite"), ("inf", "non-finite"),
                                             ("x", "'x'")])
    def test_bad_homography_value_names_file(self, tmp_path, bad, message):
        # a NaN matrix would load and give every pair a NaN corner error
        seq = make_synthetic_sequence("scene", 16, 16, seed=1)
        save_sequence(tmp_path, seq)
        with open(tmp_path / "scene" / "H_1_3", "w") as f:
            f.write(f"1 0 {bad} 0 1 0 0 0 1\n")
        with pytest.raises(ValueError, match=message) as err:
            load_sequence(tmp_path / "scene")
        assert str(tmp_path / "scene" / "H_1_3") in str(err.value)


class TestResizeCanonical:
    def test_already_canonical_unchanged_homographies(self):
        seq = make_synthetic_sequence("s", 48, 64, seed=2)
        out = resize_canonical(seq, long_side=64, short_side=48)
        for h1, h2 in zip(out.homographies, seq.homographies):
            assert projective_distance(h1, h2) < 1e-12

    def test_scaling_algebra(self):
        seq = make_synthetic_sequence("s", 32, 48, seed=3)
        out = resize_canonical(seq, long_side=96, short_side=64)
        # corner-consistency oracle: resized correspondence of the original map
        rng = np.random.default_rng(0)
        pts = rng.uniform(5, 25, size=(8, 2))
        sa = np.diag([96 / 48, 64 / 32, 1.0])
        sb = np.diag([96 / 48, 64 / 32, 1.0])
        for k in range(5):
            orig = seq.homographies[k].apply(pts)
            lhs = out.homographies[k].apply(pts @ sa[:2, :2].T)
            rhs = orig @ sb[:2, :2].T
            assert np.abs(lhs - rhs).max() < 1e-9

    def test_portrait_orientation(self):
        seq = make_synthetic_sequence("s", 64, 32, seed=4)   # portrait
        out = resize_canonical(seq, long_side=96, short_side=64)
        assert out.image_a.shape == (3, 96, 64)


class TestMakeRotated:
    def test_algebraic_inverse_recovery(self):
        seq = make_synthetic_sequence("s", 32, 32, seed=6)
        rot = make_rotated(seq, 30.0, seed=9)
        signs = rot.provenance[-1]["per_image"]
        for k in range(5):
            h, w = 32, 32
            r = Homography(rotation_about_center(signs[k] * 30.0, h, w))
            recovered = r.inverse().compose(rot.homographies[k])
            assert projective_distance(recovered, seq.homographies[k]) < 1e-12

    def test_90_degree_square_exact_corner_mapping(self):
        seq = make_synthetic_sequence("s", 32, 32, seed=7)
        seq.homographies = [Homography(np.eye(3))] * 5
        rot = make_rotated(seq, 90.0, seed=3)
        signs = rot.provenance[-1]["per_image"]
        for k in range(5):
            hp = rot.homographies[k]
            if signs[k] < 0:      # clockwise
                assert np.allclose(hp.apply([0.0, 0.0]), [32.0, 0.0])
            else:                 # counter-clockwise
                assert np.allclose(hp.apply([0.0, 0.0]), [0.0, 32.0])

    def test_photometric_consistency(self):
        seq = make_synthetic_sequence("s", 64, 64, seed=8, jitter=False)
        rot = make_rotated(seq, 90.0, seed=5)
        for k in range(5):
            val = warp_consistency_psnr(rot.image_a, rot.images_b[k],
                                        rot.homographies[k],
                                        valid_mask=rot.valid_masks[k])
            assert val > 30.0

    def test_determinism_and_seed_sensitivity(self):
        seq = make_synthetic_sequence("s", 32, 32, seed=10, jitter=False)
        a = make_rotated(seq, 45.0, seed=1)
        b = make_rotated(seq, 45.0, seed=1)
        c = make_rotated(seq, 45.0, seed=2)
        for k in range(5):
            assert np.array_equal(a.images_b[k], b.images_b[k])
        assert (a.provenance[-1]["per_image"] != c.provenance[-1]["per_image"]
                or any(not np.array_equal(x, y)
                       for x, y in zip(a.images_b, c.images_b)))

    def test_angle_range(self):
        seq = make_synthetic_sequence("s", 16, 16, seed=1)
        with pytest.raises(ValueError):
            make_rotated(seq, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_rotated(seq, 91.0, seed=0)


class TestMakeWarped:
    def test_zero_offsets_identity(self):
        w = corner_warp_homography(48, 64, np.zeros((4, 2)))
        assert projective_distance(w, Homography(np.eye(3))) < 1e-10

    def test_offset_bounds_paper_example(self):
        # s = 0.3 on a 480x640 frame: |dy| <= 144 and |dx| <= 192
        rng = np.random.default_rng(11)
        for _ in range(50):
            offs = sample_corner_offsets(480, 640, 0.3, rng)
            assert (np.abs(offs[:, 1]) <= 0.3 * 480 + 1e-9).all()
            assert (np.abs(offs[:, 0]) <= 0.3 * 640 + 1e-9).all()
        # direction: upper-left corner moves up and left
        assert (offs[0] <= 0).all()

    def test_outward_direction_all_corners(self):
        rng = np.random.default_rng(12)
        offs = sample_corner_offsets(100, 100, 0.2, rng)
        assert offs[0, 0] <= 0 and offs[0, 1] <= 0   # UL
        assert offs[1, 0] >= 0 and offs[1, 1] <= 0   # UR
        assert offs[2, 0] <= 0 and offs[2, 1] >= 0   # LL
        assert offs[3, 0] >= 0 and offs[3, 1] >= 0   # LR

    def test_photometric_consistency(self):
        seq = make_synthetic_sequence("s", 64, 64, seed=13, jitter=False)
        warped = make_warped(seq, 0.3, seed=3)
        for k in range(5):
            val = warp_consistency_psnr(warped.image_a, warped.images_b[k],
                                        warped.homographies[k],
                                        valid_mask=warped.valid_masks[k])
            assert val > 30.0

    def test_compose_with_rotation(self):
        seq = make_synthetic_sequence("s", 64, 64, seed=14, jitter=False)
        rot = make_rotated(seq, 20.0, seed=4)
        both = make_warped(rot, 0.2, seed=5)
        for k in range(5):
            offs = np.array(both.provenance[-1]["per_image"][k])
            w = corner_warp_homography(64, 64, offs)
            composed = w.compose(rot.homographies[k])
            assert projective_distance(composed, both.homographies[k]) < 1e-9
            val = warp_consistency_psnr(both.image_a, both.images_b[k],
                                        both.homographies[k],
                                        valid_mask=both.valid_masks[k])
            assert val > 30.0


class TestSynthDataset:
    def test_deterministic_bytes(self, tmp_path):
        m1 = synth_dataset(str(tmp_path / "d1"), 3, 32, 32, seed=21)
        m2 = synth_dataset(str(tmp_path / "d2"), 3, 32, 32, seed=21)
        assert dir_digest(tmp_path / "d1") == dir_digest(tmp_path / "d2")
        m3 = synth_dataset(str(tmp_path / "d3"), 3, 32, 32, seed=22)
        assert dir_digest(tmp_path / "d1") != dir_digest(tmp_path / "d3")

    def test_photometric_self_check(self):
        seq = make_synthetic_sequence("s", 64, 64, seed=23, jitter=False)
        for k, a, b, hom in seq.pairs():
            assert warp_consistency_psnr(a, b, hom) > 35.0

    def test_values_in_unit_interval(self):
        seq = make_synthetic_sequence("s", 32, 32, seed=24)
        for img in [seq.image_a] + seq.images_b:
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_manifest_round_trip(self, tmp_path):
        m = synth_dataset(str(tmp_path / "d"), 2, 32, 32, seed=25)
        back = load_manifest(str(tmp_path / "d"))
        assert back.sequence_names() == m.sequence_names()
        seq = back.load(back.sequence_names()[0])
        assert seq.image_a.shape == (3, 32, 32)

    def test_dims_divisible_by_8(self, tmp_path):
        with pytest.raises(ValueError, match="divisible by 8"):
            synth_dataset(str(tmp_path / "bad"), 1, 30, 32, seed=0)

    @pytest.mark.parametrize("n", [0, -2])
    def test_no_scenes_rejected(self, tmp_path, n):
        with pytest.raises(ValueError, match=f"at least one scene, got {n}"):
            synth_dataset(str(tmp_path / "none"), n, 32, 32, seed=0)
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("h,w", [(0, 0), (-8, 8), (8, 0)])
    def test_non_positive_dims_rejected(self, tmp_path, h, w):
        with pytest.raises(ValueError, match=f"positive .* got {h}x{w}"):
            synth_dataset(str(tmp_path / "bad"), 1, h, w, seed=0)

    @pytest.mark.parametrize("edit,message", [
        (lambda m: m.pop("h"), "has no 'h'"),
        (lambda m: m.update(w="32"), "'w' is '32', not int"),
        (lambda m: m.update(seed=True), "'seed' is True, not int"),
        (lambda m: m.update(scenes={}), "'scenes' is {}, not list"),
    ])
    def test_bad_manifest_names_file_and_key(self, tmp_path, edit, message):
        root = tmp_path / "d"
        synth_dataset(str(root), 1, 16, 16, seed=25)
        path = root / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=message) as err:
            load_manifest(str(root))
        assert str(path) in str(err.value)

    def test_manifest_not_an_object(self, tmp_path):
        (tmp_path / "manifest.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a JSON object"):
            load_manifest(str(tmp_path))


class TestApplyModification:
    def test_parse(self):
        seq = make_synthetic_sequence("s", 32, 32, seed=26, jitter=False)
        assert apply_modification(seq, "none", 0) is seq
        assert apply_modification(seq, "r45", 1).provenance[-1]["kind"] == "rotate"
        assert apply_modification(seq, "h0.3", 1).provenance[-1]["kind"] == "corner_warp"
        with pytest.raises(ValueError, match="unknown modification"):
            apply_modification(seq, "x9", 0)


class TestGtCoarseAssignment:
    def test_identity_diagonal(self):
        assign = gt_coarse_assignment(Homography(np.eye(3)), 32, 32)
        assert np.array_equal(assign, np.arange(16))

    def test_translation_one_cell(self):
        h = Homography(np.array([[1.0, 0, 8], [0, 1, 0], [0, 0, 1]]))
        assign = gt_coarse_assignment(h, 32, 32)
        grid = assign.reshape(4, 4)
        for r in range(4):
            for c in range(3):
                assert grid[r, c] == r * 4 + c + 1
            assert grid[r, 3] == -1

    def test_all_out_of_bounds(self):
        h = Homography(np.array([[1.0, 0, 1000], [0, 1, 0], [0, 0, 1]]))
        assign = gt_coarse_assignment(h, 32, 32)
        assert (assign == -1).all()


class TestSplitmix:
    def test_distinct_and_deterministic(self):
        a = [splitmix64(42, i) for i in range(100)]
        b = [splitmix64(42, i) for i in range(100)]
        assert a == b
        assert len(set(a)) == 100


class TestPsnr:
    def test_identical_images_infinite(self):
        img = np.random.default_rng(0).random((3, 8, 8))
        assert psnr(img, img) == float("inf")

    def test_known_value(self):
        a = np.zeros((1, 4, 4))
        b = np.full((1, 4, 4), 0.1)
        assert psnr(a, b) == pytest.approx(20.0)
