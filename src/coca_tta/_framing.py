"""Little-endian binary framing shared by the checkpoint and dataset files."""

from __future__ import annotations

import math
import os
import struct
from typing import BinaryIO

import numpy as np


def write_u32s(f: BinaryIO, *values: int) -> None:
    f.write(struct.pack(f"<{len(values)}I", *values))


class Reader:
    """Reads fields of a file; a size past its end raises ``error`` before any read."""

    def __init__(self, f: BinaryIO, error: type[Exception]):
        self.f, self.error = f, error
        self.size = os.fstat(f.fileno()).st_size

    def left(self) -> int:
        return self.size - self.f.tell()

    def exact(self, size: int, what: str) -> bytes:
        if size > self.left():
            raise self.error(f"truncated {what}")
        return self.f.read(size)

    def u32s(self, count: int, what: str) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.exact(4 * count, what))

    def array(self, dims: tuple[int, ...], dtype: str, what: str) -> np.ndarray:
        raw = self.exact(np.dtype(dtype).itemsize * math.prod(dims), what)
        return np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
