"""The two encodings tamm artifacts share. Framing: a 4-byte magic, a ``u32``
version, then little-endian parts; reads check each size against the bytes
left before allocating, reject non-finite floats, and errors name their byte
offset. Every artifact, CSVs included, is written through ``atomic_open``.
Config values: ``key=value`` text in config files, ``--set`` flags and
checkpoint meta, parsed by the type of the dataclass field it sets."""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, FormatError


@contextmanager
def atomic_open(path, mode: str, **kwargs):
    """Open a temp file beside ``path`` that replaces ``path`` once the block
    completes; if the block raises, ``path`` is untouched and the temp removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:  # name the path the caller gave, not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_framed(path, magic: bytes, version: int, parts) -> None:
    """Write magic, version and the bytes-like ``parts`` to ``path`` atomically."""
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        for part in parts:
            fh.write(part)


class FramedReader:
    """Bounds-checked cursor over a framed file; ``kind`` names it in errors."""

    def __init__(self, path, magic: bytes, version: int, kind: str):
        with open(path, "rb") as fh:
            self.blob = memoryview(fh.read())
        self.kind = kind
        self.offset = 0
        got = bytes(self.take(len(magic), "magic"))
        if got != magic:
            raise FormatError(f"bad {kind} magic {got!r} at byte 0")
        (got_version,) = self.unpack("<I", "version")
        if got_version != version:
            raise FormatError(f"unsupported {kind} version {got_version} at byte {len(magic)}")

    def take(self, size: int, what: str) -> memoryview:
        start, left = self.offset, len(self.blob) - self.offset
        if size > left:
            raise FormatError(f"truncated {self.kind}: {what} needs {size} bytes at byte {start}, only {left} left")
        self.offset += size
        return self.blob[start : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The next ``shape`` values stored as ``dtype``, widened to float64 or int64."""
        if len(shape) > 32:  # numpy's rank limit
            raise FormatError(f"{self.kind} {what} has rank {len(shape)} at byte {self.offset}")
        start, item = self.offset, np.dtype(dtype).itemsize
        values = np.frombuffer(self.take(math.prod(shape) * item, what), dtype=dtype)
        if values.dtype.kind in "iu":
            return values.reshape(shape).astype(np.int64)
        finite = np.isfinite(values)
        if not finite.all():
            raise FormatError(f"non-finite {self.kind} {what} value at byte {start + int(np.argmin(finite)) * item}")
        return values.reshape(shape).astype(np.float64)

    def text(self, size: int, what: str) -> str:
        start = self.offset
        try:
            return str(self.take(size, what), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.kind} {what} is not UTF-8 at byte {start + exc.start}") from None

    def finish(self) -> None:
        left = len(self.blob) - self.offset
        if left:
            raise FormatError(f"trailing garbage: {left} unexpected bytes at byte {self.offset}")


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _pair(text: str) -> tuple[float, float]:
    first, second = text.split(",")
    return float(first), float(second)


_PARSERS = {
    "int": int,
    "float": float,
    "bool": lambda text: _BOOLS[text.lower()],
    "float | None": lambda text: None if text.lower() in ("auto", "none") else float(text),
    "tuple[float, float]": _pair,
}


def parse_value(field, raw: str):
    """Parse config text into the type annotated on dataclass ``field``."""
    parse = _PARSERS[field.type]
    try:
        return parse(raw.strip())
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {field.name}={raw!r} as {field.type}") from None


def format_value(value) -> str:
    """The config text ``parse_value`` reads back as ``value``."""
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    return repr(value) if isinstance(value, float) else str(value)
