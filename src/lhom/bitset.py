"""Small helpers for vertex sets stored as int bit masks."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

_WIDE = 64  # set bits from which `bin` wins: the crossover on 787 bits
_DIGITS = bytes.maketrans(b"01", b"\0\1")  # "1" becomes a true selector


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """`list(iter_bits(mask))`; from `_WIDE` set bits, one C-level pass."""
    if mask.bit_count() < _WIDE:
        return list(iter_bits(mask))
    digits = bin(mask)[:1:-1].encode().translate(_DIGITS)  # bit i at i
    return list(itertools.compress(range(len(digits)), digits))


def mask_of(items: Iterable[int]) -> int:
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask
