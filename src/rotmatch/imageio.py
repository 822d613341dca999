"""Binary PPM (P6) and PGM (P5) reading/writing, bit-exact and dependency-free.

Images are float arrays in [0, 1], shaped [3, h, w] (RGB) or [1, h, w]
(gray). Files are written as "P6\\n{w} {h}\\n255\\n" + raw bytes.
"""

import os

import numpy as np


def write_ppm(path, image):
    """Write [3, h, w] (P6) or [1, h, w] (P5) float image in [0, 1]."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ValueError("write_ppm expects [1|3, h, w]")
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    magic = b"P6" if img.shape[0] == 3 else b"P5"
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        f.write(data.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    """Read a binary PPM/PGM into a float32 [c, h, w] array in [0, 1]."""
    with open(path, "rb") as f:
        magic = _token(f, path, "magic")
        if magic == b"P6":
            channels = 3
        elif magic == b"P5":
            channels = 1
        else:
            raise ValueError(f"{path}: not a binary PPM/PGM (magic {magic!r})")
        w, h, maxval = (_int_token(f, path, field) for field in ("width", "height", "maxval"))
        if maxval != 255:
            raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
        if w <= 0 or h <= 0:
            raise ValueError(f"{path}: image size {w}x{h} is not positive")
        need = w * h * channels
        room = os.fstat(f.fileno()).st_size - f.tell()
        if need > room:
            raise ValueError(f"{path}: truncated pixel data: {w}x{h} needs {need} bytes, "
                             f"{room} follow the header")
        raw = f.read(need)
    img = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, channels)
    return (img.transpose(2, 0, 1).astype(np.float32) / 255.0)


def read_rgb(path):
    """`read_ppm`, with a gray image repeated into three channels."""
    img = read_ppm(path)
    return np.repeat(img, 3, axis=0) if img.shape[0] == 1 else img


def _int_token(f, path, field):
    tok = _token(f, path, field)
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{path}: header {field} {tok!r} is not an integer") from None


def _token(f, path, field):
    """Next whitespace-delimited header token, skipping '#' comments; `field`
    names it in the error for a header that ends first."""
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ValueError(f"{path}: header ends before its {field}")
        if ch == b"#":
            f.readline()
        elif not ch.isspace():
            tok += ch
        elif tok:
            return tok
