"""The two encodings tamm artifacts share. Framing: a 4-byte magic, a ``u32``
version, then little-endian parts, written atomically; reads check each size
against the bytes left before allocating, and errors name their byte offset.
Config values: ``key=value`` text in config files, ``--set`` flags and
checkpoint meta, parsed by the type of the dataclass field it sets."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import ConfigError, FormatError


def write_framed(path, magic: bytes, version: int, parts) -> None:
    """Write magic, version and the bytes-like ``parts`` to ``path`` atomically."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", version))
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


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
        raw = self.take(math.prod(shape) * np.dtype(dtype).itemsize, what)
        wide = np.int64 if np.dtype(dtype).kind in "iu" else np.float64
        return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(wide)

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
