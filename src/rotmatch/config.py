"""Dotted-key configuration: UTF-8 text files with `section.key = value`
lines mirroring the config dataclasses; every default printable.

A value is a key only when something in the repository sets it to a value
other than its default. Fixed values are module constants next to their
one reader: `matcher.TEMPERATURE`, `matcher.FINE_WINDOW`,
`evaluate.MAX_MATCHES`, `train.LAMBDA_FINE`, `train.KEEP_TOP`, and the
defaults of `train.Adam` and `geometry.ransac_homography`.
"""

import json
import math
from dataclasses import dataclass, fields

from .backbone import BackboneConfig
from .matcher import MatcherConfig


@dataclass
class TrainSettings:
    lr: float = 1e-3          # at batch size 2; scaled linearly with batch_size
    batch_size: int = 2
    steps: int = 1500
    val_interval: int = 250
    seed: int = 0


@dataclass
class EvalSettings:
    thresholds: tuple = (3.0, 5.0, 10.0)


@dataclass
class Config:
    backbone: BackboneConfig
    matcher: MatcherConfig
    train: TrainSettings
    eval: EvalSettings

    @classmethod
    def default(cls):
        return cls(backbone=BackboneConfig(), matcher=MatcherConfig(),
                   train=TrainSettings(), eval=EvalSettings())

    def validate(self):
        self.backbone.validate()
        self.matcher.validate()
        if self.train.steps <= 0:
            raise ValueError("train.steps must be positive")
        if self.train.lr <= 0:
            raise ValueError("train.lr must be positive")
        if self.train.batch_size < 1:
            raise ValueError("train.batch_size must be at least 1")
        if self.train.val_interval < 1:
            raise ValueError("train.val_interval must be at least 1")
        if self.train.seed < 0:
            raise ValueError("train.seed must be non-negative")
        if not self.eval.thresholds or not all(math.isfinite(t) and t > 0
                                               for t in self.eval.thresholds):
            raise ValueError(f"eval.thresholds must be a non-empty list of finite positive "
                             f"pixel errors, got {list(self.eval.thresholds)}")
        fine_heads = min(self.matcher.n_heads, self.backbone.fine_dim)
        if self.backbone.fine_dim % fine_heads:
            raise ValueError(f"backbone.fine_dim ({self.backbone.fine_dim}) must be divisible "
                             f"by the fine attention's {fine_heads} heads "
                             f"(min of matcher.n_heads and fine_dim)")
        return self

    def sections(self):
        return {"backbone": self.backbone, "matcher": self.matcher,
                "train": self.train, "eval": self.eval}

    def to_text(self):
        lines = []
        for sec_name, sec in self.sections().items():
            for f in fields(sec):
                val = getattr(sec, f.name)
                if isinstance(val, tuple):
                    val = list(val)
                lines.append(f"{sec_name}.{f.name} = {json.dumps(val)}")
        return "\n".join(lines) + "\n"

    def hash(self):
        import hashlib
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()[:16]


def parse_value(text):
    text = text.strip()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text   # bare strings (e.g. variant names) need no quotes


def load_config(path=None, overrides=None):
    """Config from defaults, an optional file, and optional key=value overrides."""
    cfg = Config.default()
    entries = []
    if path:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
                key, val = line.split("=", 1)
                entries.append((key.strip(), val))
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r}: expected 'section.key=value'")
        key, val = item.split("=", 1)
        entries.append((key.strip(), val))
    secs = cfg.sections()
    for key, val in entries:
        if "." not in key:
            raise ValueError(f"config key {key!r} must be 'section.key'")
        sec_name, field_name = key.split(".", 1)
        if sec_name not in secs:
            raise ValueError(f"unknown config section {sec_name!r}")
        sec = secs[sec_name]
        if field_name not in {f.name for f in fields(sec)}:
            raise ValueError(f"unknown config key {key!r}")
        setattr(sec, field_name, _coerce(key, getattr(sec, field_name), parse_value(val)))
    return cfg.validate()


def _coerce(key, current, value):
    """`value` as the type of the field's default `current`, or ValueError.

    Int fields take only integral numbers, float fields only finite
    numbers, string fields strings and tuple fields lists of numbers; JSON
    true/false is never a number.
    """
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if isinstance(current, int):
        if not number(value) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    if isinstance(current, float):
        if not number(value) or not math.isfinite(value):
            raise ValueError(f"{key} must be a finite number, got {value!r}")
        return float(value)
    if isinstance(current, str):
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, got {value!r}")
        return value
    if not isinstance(value, list) or not all(number(x) for x in value):
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return tuple(value)
