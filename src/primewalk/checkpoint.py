"""Binary checkpoint files: a header of magic "PWLK", version, 32-byte
config hash, payload length and CRC32 of the payload, then the payload, an
npz archive of "section/field" arrays, up to the end of the file.  The
header's size and CRC checks, and the size each array header declares,
pass before the payload is loaded.  The payload streams through the file
in both directions: a write holds one chunk of a `ChunkedArray` at a
time, and a read holds no second copy of the arrays it loads: each is an
array that owns its memory, which a reader may adopt."""

import math
import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

MAGIC = b"PWLK"
VERSION = 6
_HEAD = struct.Struct("<4sI32sQI")
_CHUNK = 1 << 16  # bytes per read of the CRC pass


class CheckpointError(Exception):
    """Corrupt, truncated or incompatible checkpoint file."""


class ChunkedArray:
    """An array that is written piece by piece, never whole.

    `chunks()` yields C-ordered arrays whose contents, one after another,
    are the array's; `write_checkpoint` streams them into the file.  A
    chunk is valid only until the next one is requested, as its memory may
    be reused.  `np.asarray` joins them into one array, for use in memory.
    """

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


def _crc(fh, length: int) -> int:
    """CRC32 of the `length` payload bytes, read in chunks into one buffer."""
    fh.seek(_HEAD.size)
    crc, buf = 0, memoryview(bytearray(min(_CHUNK, length)))
    while length > 0:
        got = fh.readinto(buf[: min(_CHUNK, length)])
        if not got:
            break
        crc = zlib.crc32(buf[:got], crc)
        length -= got
    return crc


def _encode(name: str, v) -> np.ndarray:
    # bytes travel as a 0-d void array, as "S" drops trailing NULs; so refuse void arrays
    if isinstance(v, bytes):
        return np.array(np.void(v))
    a = v if isinstance(v, ChunkedArray) else np.asarray(v)
    if a.dtype.kind == "V" or a.dtype.hasobject:
        raise TypeError(f"cannot checkpoint {name}: {a.dtype} array")
    return a


def _decode(a: np.ndarray):
    if a.dtype.kind == "V":
        return a.tobytes()
    if a.ndim == 0:
        return a.item()
    # np.load may return a reshaped view of the flat array it read into: hand
    # out that array itself, in place in the shape, which a reader can adopt
    owner = a.base
    if (
        isinstance(owner, np.ndarray) and owner.flags.owndata and a.flags.c_contiguous
        and (owner.dtype, owner.size) == (a.dtype, a.size)
    ):
        owner.resize(a.shape)  # the same bytes: nothing is copied or moved
        return owner
    return a


def _write_npz(fh, arrays: dict) -> None:
    """The bytes np.savez(fh, **arrays) writes: each array's header, then its
    C-order bytes chunk by chunk; an array that is not a ChunkedArray is one chunk."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as npz:
        for name, a in arrays.items():
            with npz.open(f"{name}.npy", "w", force_zip64=True) as member:
                descr = npy.dtype_to_descr(a.dtype)
                npy.write_array_header_1_0(
                    member, {"descr": descr, "fortran_order": False, "shape": a.shape}
                )
                size = 0
                for chunk in a.chunks() if isinstance(a, ChunkedArray) else (a,):
                    size += member.write(np.ascontiguousarray(chunk, a.dtype))
                if size != a.dtype.itemsize * math.prod(a.shape):
                    raise ValueError(f"{name}: chunks hold {size} bytes, not the shape's")


def _check_sizes(npz: zipfile.ZipFile) -> None:
    """Refuse a member whose array header declares other than the bytes it
    holds, before np.load allocates what the header declares."""
    for info in npz.infolist():
        with npz.open(info) as member:
            if npy.read_magic(member) != (1, 0):
                raise ValueError(f"{info.filename}: not a version 1.0 array")
            shape, _, dtype = npy.read_array_header_1_0(member)
            held = info.file_size - member.tell()
            if dtype.itemsize * math.prod(shape) != held:
                raise ValueError(f"{info.filename}: {dtype} {shape} declared in {held} bytes")


def write_checkpoint(path, config_hash: bytes, sections: dict) -> None:
    """Write atomically: stream into a file beside `path`, sync it to disk,
    then rename it, so a crash leaves the old file or the whole new one."""
    if len(config_hash) != 32:
        raise ValueError("config hash must be 32 bytes")
    flat = {f"{s}/{k}": v for s, fields in sections.items() for k, v in fields.items()}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w+b") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, config_hash, 0, 0))
            _write_npz(fh, {n: _encode(n, flat[n]) for n in sorted(flat)})
            length = fh.seek(0, os.SEEK_END) - _HEAD.size
            crc = _crc(fh, length)
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
        if _crc(fh, length) != crc:
            raise CheckpointError("checkpoint integrity check failed")
        fh.seek(_HEAD.size)
        sections: dict[str, dict] = {}
        try:
            with np.load(fh, allow_pickle=False) as npz:
                _check_sizes(npz.zip)
                for name in npz.files:
                    section, key = name.split("/")
                    sections.setdefault(section, {})[key] = _decode(npz[name])
        except (zipfile.BadZipFile, ValueError, TypeError, EOFError) as exc:
            raise CheckpointError(f"undecodable checkpoint payload: {exc}") from exc
    return config_hash, sections
