"""Binary file formats: PGM/PPM images and model checkpoints."""

import math
import os
import stat
import struct
from io import BytesIO

import numpy as np

from .autodiff import NonFiniteError

CHECKPOINT_MAGIC = b"REFSAM1\n"


class ParseError(ValueError):
    def __init__(self, path, message, offset):
        super().__init__(f"{path}: {message} (byte offset {offset})")
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
        raise ParseError(path, f"expected {magic.decode()} header", 0)
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(path, "truncated header", start)
        token = raw[start:pos]
        # int() refuses more than 4,300 digits; no image extent needs 19
        if not token.isdigit() or len(token) > 18:
            raise ParseError(path, f"bad header token {token[:20]!r}", start)
        fields.append(int(token))
    pos += 1  # single whitespace byte before payload
    w, h, maxval = fields
    if maxval != 255:
        raise ParseError(path, "only 8-bit images supported", pos)
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    payload = raw[pos:pos + need]
    if len(payload) != need:
        raise ParseError(path, "truncated payload", pos + len(payload))
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
    renamed over it, so `path` holds either its old or its new bytes.
    Raises NonFiniteError, naming the record, on a value that is not finite
    in float32 (a float64 beyond float32's range casts to inf), which
    loading would reject; `path` then keeps its old bytes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            for name in sorted(arrays):
                with np.errstate(over="ignore"):
                    arr = np.ascontiguousarray(arrays[name], dtype="<f4")
                if not np.isfinite(arr).all():
                    raise NonFiniteError(f"checkpoint record {name!r} is not finite in float32")
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<B", arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """The records of a checkpoint as native float32 arrays, by name. Reads
    one record at a time straight into its array, so a load holds each
    record once and never the whole file; a record that claims more bytes
    than the file holds is refused before anything of that size is made,
    and a file cut inside a record as truncated, at the field it cut. A
    pipe's size is known only once it is read, so a pipe is read whole
    first and its records are copied out of those bytes."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode):
            data = fh.read()
            fh, size = BytesIO(data), len(data)   # `with` still closes the pipe
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError("bad checkpoint magic")
        pos = len(CHECKPOINT_MAGIC)
        arrays = {}

        def field(n, parse):
            """parse() of a header field's n bytes; `pos` passes them only once
            they are read in full and parsed, so an error names their offset."""
            nonlocal pos
            chunk = fh.read(n)
            if len(chunk) < n:
                raise ValueError("truncated: the file ended inside a record header")
            value = parse(chunk)
            pos += n
            return value

        while pos < size:
            try:
                name = field(field(2, lambda b: int.from_bytes(b, "little")), bytes.decode)
                rank = field(1, ord)
                shape = field(4 * rank, lambda b: struct.unpack(f"<{rank}I", b))
                count = math.prod(shape)   # exact: an int64 product of the extents can wrap
                if 4 * count > size - pos:
                    raise ValueError(f"truncated: {name!r} needs {4 * count} bytes, "
                                     f"{size - pos} remain")
                # reshape fails on more axes than numpy supports
                arr = np.empty(count, dtype="<f4").reshape(shape)
                if fh.readinto(arr) != 4 * count:
                    raise ValueError(f"truncated: the file ended inside {name!r}")
                pos += 4 * count
            except ValueError as exc:
                raise CheckpointError(f"malformed checkpoint record at byte {pos}: {exc}") from exc
            if name in arrays:
                raise CheckpointError(f"repeated checkpoint record {name!r} ending at byte {pos}")
            arrays[name] = arr.astype(np.float32, copy=False)
    return arrays
