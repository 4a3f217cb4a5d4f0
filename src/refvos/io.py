"""Binary file formats: PGM/PPM images and model checkpoints."""

import math
import os
import struct

import numpy as np

CHECKPOINT_MAGIC = b"REFSAM1\n"


class ParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CheckpointError(ValueError):
    pass


# ---- PGM / PPM ------------------------------------------------------------

def write_pgm(path, mask):
    """Binary 8-bit PGM; foreground 255, background 0."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or not np.all((mask == 0) | (mask == 1)):
        raise ValueError("write_pgm expects a binary H x W mask")
    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((mask.astype(np.uint8) * 255).tobytes())


def _read_pnm(path, magic):
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(magic + b"\n") and not raw.startswith(magic + b" "):
        raise ParseError(f"expected {magic.decode()} header", 0)
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError("truncated header", start)
        token = raw[start:pos]
        if not token.isdigit():
            raise ParseError(f"bad header token {token!r}", start)
        fields.append(int(token))
    pos += 1  # single whitespace byte before payload
    w, h, maxval = fields
    if maxval != 255:
        raise ParseError("only 8-bit images supported", pos)
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    payload = raw[pos:pos + need]
    if len(payload) != need:
        raise ParseError("truncated payload", pos + len(payload))
    return np.frombuffer(payload, dtype=np.uint8), h, w


def read_pgm(path):
    data, h, w = _read_pnm(path, b"P5")
    return (data.reshape(h, w) >= 128).astype(np.uint8)


def to_8bit(frame):
    """The 8-bit values a PPM stores for a float frame in [0, 1]."""
    return np.clip(np.round(frame * 255.0), 0, 255).astype(np.uint8)


def from_8bit(data):
    """The float frame of stored 8-bit values, as read_ppm returns it."""
    return data.astype(np.float64) / 255.0


def write_ppm(path, frame):
    """Binary PPM from a (3, H, W) float array in [0, 1]."""
    frame = np.asarray(frame)
    if frame.ndim != 3 or frame.shape[0] != 3:
        raise ValueError("write_ppm expects a (3, H, W) frame")
    _, h, w = frame.shape
    data = to_8bit(frame)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    data, h, w = _read_pnm(path, b"P6")
    return from_8bit(data.reshape(h, w, 3).transpose(2, 0, 1))


# ---- checkpoints ----------------------------------------------------------

def save_checkpoint(path, arrays):
    """Record stream of named float32 arrays, sorted by name for
    reproducible bytes. Written to a temporary file beside `path` and
    renamed over it, so `path` holds either its old or its new bytes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name], dtype="<f4")
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError("bad checkpoint magic")
    pos = len(CHECKPOINT_MAGIC)
    arrays = {}
    while pos < len(raw):
        try:
            (nlen,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            shape = struct.unpack_from(f"<{rank}I", raw, pos) if rank else ()
            pos += 4 * rank
            count = math.prod(shape)   # exact: an int64 product of the extents can wrap
            if 4 * count > len(raw) - pos:
                raise ValueError(f"truncated: {name!r} needs {4 * count} bytes, "
                                 f"{len(raw) - pos} remain")
            # reshape fails on more axes than numpy supports
            arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos).reshape(shape)
            pos += 4 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint record at byte {pos}: {exc}") from exc
        if name in arrays:
            raise CheckpointError(f"repeated checkpoint record {name!r} ending at byte {pos}")
        arrays[name] = arr.astype(np.float32)
    return arrays
