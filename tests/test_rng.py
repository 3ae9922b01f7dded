"""The documented splitmix64 generator against published reference output."""

from orbitcert.rng import SplitMix64

# first five outputs for seed 1234567, as published with the reference
# C implementation (also used as the cross-language test vector in the
# rand_core / SplittableRandom ecosystems)
VECTORS_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_reference_vectors():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == VECTORS_1234567


def test_seed_zero_is_not_degenerate():
    rng = SplitMix64(0)
    outs = [rng.next_u64() for _ in range(3)]
    assert outs == [16294208416658607535, 7960286522194355700,
                    487617019471545679]


def test_randint_range_and_determinism():
    a = SplitMix64(99)
    b = SplitMix64(99)
    seen = set()
    for _ in range(200):
        x = a.randint(-5, 5)
        assert -5 <= x <= 5
        assert x == b.randint(-5, 5)
        seen.add(x)
    assert seen == set(range(-5, 6))

