"""Small helpers for vertex sets stored as int bit masks."""

from __future__ import annotations

from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def mask_of(items: Iterable[int]) -> int:
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask
