"""Binary checkpoint files: magic "PWLK", version, 32-byte config hash,
length-prefixed payload, CRC32 of the payload.  The envelope is checked
before the payload, an npz archive of "section/field" arrays, is loaded."""

import io
import os
import struct
import zipfile
import zlib

import numpy as np

MAGIC = b"PWLK"
VERSION = 2
_HEAD = struct.Struct("<4sI32sQ")


class CheckpointError(Exception):
    """Corrupt, truncated or incompatible checkpoint file."""


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
    if len(config_hash) != 32:
        raise ValueError("config hash must be 32 bytes")
    flat = {f"{s}/{k}": v for s, fields in sections.items() for k, v in fields.items()}
    buf = io.BytesIO()
    np.savez(buf, **{n: _encode(n, flat[n]) for n in sorted(flat)})
    payload = buf.getbuffer()
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(MAGIC, VERSION, config_hash, len(payload)))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


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
        payload, crc = fh.read(length), fh.read(4)
    if struct.pack("<I", zlib.crc32(payload)) != crc:
        raise CheckpointError("checkpoint integrity check failed")
    sections: dict[str, dict] = {}
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            for name in npz.files:
                section, key = name.split("/")
                sections.setdefault(section, {})[key] = _decode(npz[name])
    except (zipfile.BadZipFile, ValueError, TypeError, EOFError) as exc:
        raise CheckpointError(f"undecodable checkpoint payload: {exc}") from exc
    return config_hash, sections
