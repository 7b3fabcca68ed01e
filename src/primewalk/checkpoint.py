"""Binary checkpoint files: magic "PWLK", version, 32-byte config hash,
length-prefixed payload, CRC32 of the payload.  The envelope is checked
before the payload, an npz archive of "section/field" arrays, is loaded.
The payload streams through the file in both directions, so neither a
write nor a read holds a second copy of the arrays."""

import os
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"PWLK"
VERSION = 3
_HEAD = struct.Struct("<4sI32sQ")
_CHUNK = 1 << 24


class CheckpointError(Exception):
    """Corrupt, truncated or incompatible checkpoint file."""


class _Payload:
    """The payload bytes of an open checkpoint file, as a file of their own.

    Positions are rebased to the payload's first byte, so the npz archive
    comes out exactly as it would in memory; `length` bounds reads.
    """

    def __init__(self, fh, length: int | None = None):
        self._fh = fh
        self._base = _HEAD.size
        self._length = length

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._fh.tell() - self._base

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        if whence == os.SEEK_CUR:
            offset += self.tell()
        elif whence == os.SEEK_END:
            offset += self._length
        return self._fh.seek(self._base + offset) - self._base

    def read(self, n: int = -1) -> bytes:
        left = max(self._length - self.tell(), 0)
        return self._fh.read(left if n is None or n < 0 else min(n, left))

    def write(self, data) -> int:
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()


def _crc(fh, length: int) -> int:
    """CRC32 of the `length` payload bytes, read in chunks."""
    fh.seek(_HEAD.size)
    crc = 0
    while length > 0:
        chunk = fh.read(min(_CHUNK, length))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        length -= len(chunk)
    return crc


def _encode(name: str, v) -> np.ndarray:
    # bytes travel as uint8, as "S" drops trailing NULs; so refuse uint8 arrays
    if isinstance(v, bytes):
        return np.frombuffer(v, np.uint8)
    a = np.asarray(v)
    if a.dtype == np.uint8 or a.dtype.hasobject:
        raise TypeError(f"cannot checkpoint {name}: {a.dtype} array")
    return a


def _decode(a: np.ndarray):
    return a.tobytes() if a.dtype == np.uint8 else a.item() if a.ndim == 0 else a


def write_checkpoint(path, config_hash: bytes, sections: dict) -> None:
    """Write atomically: stream into a file beside `path`, then rename it."""
    if len(config_hash) != 32:
        raise ValueError("config hash must be 32 bytes")
    flat = {f"{s}/{k}": v for s, fields in sections.items() for k, v in fields.items()}
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w+b") as fh:
            fh.write(_HEAD.pack(MAGIC, VERSION, config_hash, 0))
            np.savez(_Payload(fh), **{n: _encode(n, flat[n]) for n in sorted(flat)})
            length = fh.seek(0, os.SEEK_END) - _HEAD.size
            crc = _crc(fh, length)
            fh.write(struct.pack("<I", crc))
            fh.seek(0)
            fh.write(_HEAD.pack(MAGIC, VERSION, config_hash, length))
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
        _, version, config_hash, length = _HEAD.unpack(head)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if os.fstat(fh.fileno()).st_size != _HEAD.size + length + 4:
            raise CheckpointError("checkpoint size does not match its payload length")
        crc = _crc(fh, length)
        if struct.pack("<I", crc) != fh.read(4):
            raise CheckpointError("checkpoint integrity check failed")
        fh.seek(_HEAD.size)
        sections: dict[str, dict] = {}
        try:
            with np.load(_Payload(fh, length), allow_pickle=False) as npz:
                for name in npz.files:
                    section, key = name.split("/")
                    sections.setdefault(section, {})[key] = _decode(npz[name])
        except (zipfile.BadZipFile, ValueError, TypeError, EOFError) as exc:
            raise CheckpointError(f"undecodable checkpoint payload: {exc}") from exc
    return config_hash, sections
