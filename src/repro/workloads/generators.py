"""Synthetic data generators used by tests, examples and functional benchmarks.

The paper's workloads are text-heavy (random sentences, grep over text), so
the generators produce deterministic pseudo-random text and binary payloads
from explicit seeds — the same seed always yields the same bytes, which the
tests rely on for end-to-end content verification.
"""

from __future__ import annotations

import binascii
import random

from ..mapreduce.applications.random_text_writer import WORD_LIST, random_sentence

__all__ = [
    "deterministic_bytes",
    "random_text",
    "text_file_lines",
    "write_text_file",
    "write_binary_file",
]


def deterministic_bytes(size: int, *, seed: int = 0) -> bytes:
    """Return ``size`` pseudo-random bytes fully determined by ``seed``.

    Uses a cheap keyed stream (CRC-mixed counter) rather than ``os.urandom``
    so identical calls are reproducible and compressible workloads can be
    derived by repeating small seeds.
    """
    if size < 0:
        raise ValueError("size cannot be negative")
    out = bytearray()
    counter = 0
    state = seed & 0xFFFFFFFF
    while len(out) < size:
        state = binascii.crc32(counter.to_bytes(8, "little"), state) & 0xFFFFFFFF
        out += state.to_bytes(4, "little")
        counter += 1
    return bytes(out[:size])


def random_text(size: int, *, seed: int = 0) -> bytes:
    """Return roughly ``size`` bytes of newline-separated random sentences."""
    rng = random.Random(seed)
    lines: list[str] = []
    produced = 0
    while produced < size:
        sentence = random_sentence(rng)
        lines.append(sentence)
        produced += len(sentence) + 1
    return ("\n".join(lines) + "\n").encode("utf-8")


def text_file_lines(
    num_lines: int,
    *,
    seed: int = 0,
    words_per_line: int = 8,
) -> list[bytes]:
    """Return ``num_lines`` deterministic text lines (without newlines)."""
    rng = random.Random(seed)
    return [
        " ".join(rng.choice(WORD_LIST) for _ in range(words_per_line)).encode("utf-8")
        for _ in range(num_lines)
    ]


def write_text_file(fs, path: str, num_lines: int, *, seed: int = 0, **create_kwargs) -> int:
    """Create ``path`` on ``fs`` with ``num_lines`` deterministic lines.

    Returns the file size in bytes.  Works with any
    :class:`repro.fs.interface.FileSystem`.
    """
    total = 0
    with fs.create(path, **create_kwargs) as stream:
        for line in text_file_lines(num_lines, seed=seed):
            total += stream.write(line + b"\n")
    return total


def write_binary_file(fs, path: str, size: int, *, seed: int = 0, chunk: int = 1024 * 1024, **create_kwargs) -> int:
    """Create ``path`` on ``fs`` with ``size`` deterministic binary bytes."""
    written = 0
    with fs.create(path, **create_kwargs) as stream:
        offset = 0
        while written < size:
            n = min(chunk, size - written)
            stream.write(deterministic_bytes(n, seed=seed + offset))
            written += n
            offset += 1
    return written
