"""Binary checkpoint files: a header of magic "PWLK", version, 32-byte
config hash, payload length and CRC32 of the payload, then the payload to
the end of the file: each "section/field", in name order, as a `<I` header
length, a JSON header of its name, dtype (as `dtype.str`) and shape, and
its raw C-order bytes.  Each byte passes once, through the CRC, each way: a
write streams a `ChunkedArray` chunk by chunk and reads nothing back; a
read checks a field's header against the bytes still unread, then fills a
new array in place, which owns its memory so that a reader may adopt it."""

import json
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"PWLK"
VERSION = 7
_HEAD = struct.Struct("<4sI32sQI")
_FIELD_MAX = 1 << 12  # bytes of the longest JSON header a read accepts


class CheckpointError(Exception):
    """Corrupt, truncated or incompatible checkpoint file."""


class ChunkedArray:
    """An array that is written piece by piece, never whole: `chunks()`
    yields C-ordered arrays whose contents, one after another, are the
    array's, each valid only until the next is requested, as its memory may
    be reused.  `np.asarray` joins them into one array, for use in memory."""

    def __init__(self, shape: tuple, dtype, chunks):
        self.shape, self.dtype, self.chunks = tuple(shape), np.dtype(dtype), chunks

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape, self.dtype)
        flat, o = out.reshape(-1), 0
        for chunk in self.chunks():
            flat[o : o + chunk.size] = chunk.reshape(-1)
            o += chunk.size
        if o != flat.size:
            raise ValueError(f"chunks hold {o} values, not {flat.size}")
        return out if dtype is None else out.astype(dtype)


def _encode(name: str, v) -> np.ndarray:
    # bytes travel as a 0-d void array, as "S" drops trailing NULs; so refuse void arrays
    if isinstance(v, bytes):
        return np.array(np.void(v))
    a = v if isinstance(v, ChunkedArray) else np.asarray(v)
    if a.dtype.kind == "V" or a.dtype.hasobject:
        raise TypeError(f"cannot checkpoint {name}: {a.dtype} array")
    return a


def _decode(a: np.ndarray):
    return a.tobytes() if a.dtype.kind == "V" else a if a.ndim else a.item()


def _field_parts(name: str, a):
    """Field `name`'s header length and JSON header, then its C-order bytes
    chunk by chunk; an array that is not a ChunkedArray is one chunk."""
    shape = list(a.shape)
    header = json.dumps({"name": name, "dtype": a.dtype.str, "shape": shape}).encode()
    yield struct.pack("<I", len(header)) + header
    size = 0
    for chunk in a.chunks() if isinstance(a, ChunkedArray) else (a,):
        data = np.ascontiguousarray(chunk, a.dtype).reshape(-1).view(np.uint8)
        size += data.size
        yield data
    if size != a.dtype.itemsize * math.prod(shape):
        raise ValueError(f"{name}: chunks hold {size} bytes, not the shape's")


def write_checkpoint(path, config_hash: bytes, sections: dict) -> None:
    """Write atomically: stream into a file beside `path`, sync it to disk,
    then rename it, so a crash leaves the old file or the whole new one."""
    if len(config_hash) != 32:
        raise ValueError("config hash must be 32 bytes")
    flat = {f"{s}/{k}": v for s, fields in sections.items() for k, v in fields.items()}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, config_hash, 0, 0))
            length = crc = 0
            for name in sorted(flat):
                for part in _field_parts(name, _encode(name, flat[name])):
                    crc = zlib.crc32(part, crc)
                    length += fh.write(part)
            fh.seek(0)
            fh.write(_HEAD.pack(MAGIC, VERSION, config_hash, length, crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        # missing_ok: when the open itself failed, there is nothing to remove
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> tuple[bytes, dict]:
    with open(path, "rb") as fh:
        head = fh.read(_HEAD.size)
        if len(head) < _HEAD.size or head[:4] != MAGIC:
            raise CheckpointError("not a walk checkpoint file")
        _, version, config_hash, length, crc = _HEAD.unpack(head)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if os.fstat(fh.fileno()).st_size != _HEAD.size + length:
            raise CheckpointError("checkpoint size does not match its payload length")
        left, read_crc, sections = length, 0, {}

        def take(shape: tuple, dtype=np.uint8) -> np.ndarray:
            """A new array of `shape` and `dtype`, filled from the next payload bytes."""
            nonlocal left, read_crc
            if np.dtype(dtype).itemsize * math.prod(shape) > left:
                raise ValueError(f"{np.dtype(dtype)} {list(shape)} runs past the payload's end")
            buf = (a := np.empty(shape, dtype)).reshape(-1).view(np.uint8)
            got = fh.readinto(buf)
            read_crc, left = zlib.crc32(buf, read_crc), left - got
            if got != len(buf):  # the file shrank after its size was checked
                raise CheckpointError("checkpoint size does not match its payload length")
            return a

        try:
            while left:
                n = int(take((), "<u4"))
                if n > _FIELD_MAX:
                    raise ValueError(f"a field header of {n} bytes, above {_FIELD_MAX}")
                h = json.loads(raw := take((n,)).tobytes())
                name, dtype, shape = h["name"], np.dtype(h["dtype"]), tuple(h["shape"])
                if not (isinstance(name, str) and name.count("/") == 1 and dtype.str == h["dtype"]
                        and not dtype.hasobject and all(type(d) is int and d >= 0 for d in shape)):
                    raise ValueError(f"field header {raw!r} is not a name, plain dtype and shape")
                section, key = name.split("/")
                if key in sections.setdefault(section, {}):
                    raise ValueError(f"field {name} appears twice")
                sections[section][key] = _decode(take(shape, dtype))
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            while left:  # the CRC covers the whole payload, parsed or not
                take((min(1 << 16, left),))
            if read_crc == crc:
                raise CheckpointError(f"undecodable checkpoint payload: {exc}") from exc
        if read_crc != crc:
            raise CheckpointError("checkpoint integrity check failed")
    return config_hash, sections
