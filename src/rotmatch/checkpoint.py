"""Binary checkpoint format shared by the backbone and matcher.

Layout: 8-byte magic "RMCKPT02", an 8-byte little-endian manifest length,
a UTF-8 JSON manifest listing parameter names, shapes, and scalar widths
(plus, for a model, the text of its config), then the raw little-endian
buffers in manifest order.
"""

import json
import os
import struct

import numpy as np

MAGIC = b"RMCKPT02"
# Magic of files whose coarse stage used softmax attention: same keys and
# shapes as today's, but weights trained for another attention.
_SOFTMAX_COARSE_MAGIC = b"RMCKPT01"

_WIDTH_TO_DTYPE = {4: "<f4", 8: "<f8"}


def save_checkpoint(path, state, config_text=None):
    """Write an ordered {name: float array} mapping, with the config text of
    the model it belongs to when given."""
    entries = []
    buffers = []
    for name, arr in state.items():
        arr = np.asarray(arr)
        if arr.dtype == np.float32:
            width = 4
        elif arr.dtype == np.float64:
            width = 8
        else:
            raise ValueError(f"{name}: checkpoint buffers must be float32/float64, "
                             f"got {arr.dtype}")
        entries.append({"name": name, "shape": list(arr.shape), "width": width})
        buffers.append(arr.astype(_WIDTH_TO_DTYPE[width]).tobytes(order="C"))
    manifest = {"params": entries}
    if config_text is not None:
        manifest["config"] = config_text
    manifest = json.dumps(manifest).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(manifest)))
        f.write(manifest)
        for buf in buffers:
            f.write(buf)


def _read_manifest(f, path):
    magic = f.read(8)
    if magic == _SOFTMAX_COARSE_MAGIC:
        raise ValueError(f"{path}: checkpoint written before linear coarse attention; "
                         f"retrain")
    if magic != MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
    header = f.read(8)
    if len(header) != 8:
        raise ValueError(f"{path}: truncated checkpoint header")
    (mlen,) = struct.unpack("<Q", header)
    room = os.fstat(f.fileno()).st_size - 16
    if mlen > room:
        raise ValueError(f"{path}: manifest length {mlen} exceeds the {room} bytes "
                         f"after the header")
    manifest = json.loads(f.read(mlen).decode("utf-8"))
    if not isinstance(manifest, dict) or not isinstance(manifest.get("params"), list):
        raise ValueError(f"{path}: manifest is not a JSON object with a 'params' list")
    if not isinstance(manifest.get("config", ""), str):
        raise ValueError(f"{path}: manifest config {manifest['config']!r} is not a string")
    for i, entry in enumerate(manifest["params"]):
        _check_entry(path, i, entry)
    return manifest


def _check_entry(path, i, entry):
    """ValueError unless `entry` is {"name": str, "shape": [int >= 0, ...],
    "width": 4 or 8}."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ValueError(f"{path}: manifest entry {i} has no name: {entry!r}")
    where = f"{path}: manifest entry {entry['name']!r}"
    shape, width = entry.get("shape"), entry.get("width")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"{where}: shape {shape!r} is not a list of non-negative integers")
    if type(width) is not int or width not in _WIDTH_TO_DTYPE:
        raise ValueError(f"{where}: width {width!r} is not 4 or 8")


def checkpoint_config(path):
    """The config text stored in a checkpoint's manifest, or None."""
    with open(path, "rb") as f:
        return _read_manifest(f, path).get("config")


def load_checkpoint(path):
    """Read back an ordered {name: ndarray} mapping."""
    with open(path, "rb") as f:
        manifest = _read_manifest(f, path)
        state = {}
        for entry in manifest["params"]:
            shape = tuple(entry["shape"])
            width = entry["width"]
            count = int(np.prod(shape)) if shape else 1
            raw = f.read(count * width)
            if len(raw) != count * width:
                raise ValueError(f"{path}: truncated buffer for {entry['name']}")
            state[entry["name"]] = np.frombuffer(
                raw, dtype=_WIDTH_TO_DTYPE[width]).reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after last buffer")
    return state
