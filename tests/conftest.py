"""Shared hypothesis profile and strategies for exact-arithmetic tests."""

from fractions import Fraction

from hypothesis import HealthCheck, Phase, settings, strategies as st

from orbitcert.scalars import Tower

# Exact arithmetic is deterministic but not uniformly fast; wall-clock
# deadlines only add flakiness on loaded machines.  Shrinking is left out:
# on exact scalars it can take minutes to report a failure that the
# unshrunk example already shows.
settings.register_profile(
    "exact",
    deadline=None,
    max_examples=50,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


# Small rationals keep denominators (and therefore rref pivots) tame.
rationals = st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                         max_denominator=4)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def gauss(tower: Tower):
    """Strategy for scalars in the rational(i) base of ``tower``."""
    return st.builds(lambda re, im: tower.scalar(re, im),
                     rationals, rationals)


def gauss_nonzero(tower: Tower):
    return gauss(tower).filter(lambda s: not s.is_zero())


def vectors(tower: Tower, n: int):
    return st.lists(gauss(tower), min_size=n, max_size=n)


def square_matrices(tower: Tower, n: int):
    from orbitcert.linalg import Matrix

    return st.builds(lambda rows: Matrix.from_rows(tower, rows),
                     st.lists(vectors(tower, n), min_size=n, max_size=n))


def deep_scalars(tower: Tower):
    """Strategy for a + sum(b_k * sqrt(r_k)) over every root of ``tower``,
    with a and each b_k in its rational(i) base."""
    return st.builds(
        lambda a, bs: a + sum((b * tower.root(k) for k, b in enumerate(bs)),
                              tower.zero()),
        gauss(tower), st.lists(gauss(tower), min_size=tower.depth,
                               max_size=tower.depth))


def tower_of_depth(depth: int) -> Tower:
    """A tower with the square roots of the first ``depth`` of 2, 3, 5."""
    t = Tower()
    for r in (2, 3, 5)[:depth]:
        t.adjoin_sqrt(r)
    return t


def in_span(space, v) -> bool:
    """Rank oracle for membership in a ``Subspace``: ``v`` lies in it iff
    appending ``v`` to the echelon basis keeps the rank.  ``residual`` is
    tested against it."""
    from orbitcert.linalg import Matrix, rank

    aug = space.matrix.hstack(Matrix.from_cols(space.tower, [list(v)]))
    return rank(aug) == space.dim
