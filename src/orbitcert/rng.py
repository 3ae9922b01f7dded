"""Deterministic 64-bit PRNG for sampling campaigns.

This is the standard splitmix64 generator (Steele-Lea-Burton; the
constants below are the usual ones from Vigna's reference code).  It is
fixed forever so that reports produced from the same seed are
byte-identical across platforms and Python versions; ``random`` is
deliberately not used anywhere in the package.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant for
        sampling purposes and keeps the generator trivially portable)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)
