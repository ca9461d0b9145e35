from lhom import bitset
from lhom.bitset import bit_list, iter_bits
from lhom.generators import SplitMix64


def _exactly(rng, width: int, count: int) -> int:
    """A seeded mask of `count` set bits below `width`."""
    bits: set[int] = set()
    while len(bits) < count:
        bits.add(rng.below(width))
    return sum(1 << b for b in bits)


def test_bit_list_matches_the_lowest_bit_loop():
    """`bit_list` equals `list(iter_bits(mask))` on both of its paths: the
    empty mask, narrow masks, sparse and dense masks up to 150,000 bits
    wide, bits at position 0 and at the top, and masks with exactly the
    crossover count of set bits, one fewer and one more.  The loop's cost
    grows with set bits times width, so the 150,000-bit dense mask is a
    dense top block of 8,192 bits."""
    rng = SplitMix64(3201)
    wide = bitset._WIDE
    masks = [0, 1, 1 << 149_999, 1 | 1 << 149_999, (1 << wide) - 1,
             (1 << wide - 1) - 1]
    masks += [rng.next() >> rng.below(64) for _ in range(200)]
    for width in (64, 787, 5_000, 20_000, 150_000):
        block = width if width < 150_000 else 8_192
        words = sum(rng.next() << 64 * i for i in range(block // 64 + 1))
        dense = (words & (1 << block) - 1) << width - block
        masks += [dense, dense | 1 | 1 << width - 1, dense >> block // 2]
        for count in (1, 7, wide - 1, wide, wide + 1, 500):
            if count <= width:
                mask = _exactly(rng, width, count)
                masks += [mask, mask | 1, mask | 1 << width - 1]
    counts = {mask.bit_count() for mask in masks}
    assert {0, wide - 1, wide, wide + 1} <= counts and max(counts) > 9_000
    for mask in masks:
        assert bit_list(mask) == list(iter_bits(mask)), mask.bit_length()
