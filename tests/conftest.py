"""Shared hypothesis profile and strategies for exact-arithmetic tests,
the test-only nilpotents, exponentials, reflection and transport matrices
that build group elements, and the scalar, matrix and group readers only
tests use."""

from fractions import Fraction
from typing import Sequence

from hypothesis import HealthCheck, Phase, settings, strategies as st

from orbitcert.forms import FormSpec
from orbitcert.groups import (CommutesWithConj, DetOne, FixesVector,
                              PreservesForm, RealEntries, outer)
from orbitcert.linalg import Matrix, _rref, kernel, rank
from orbitcert.octonions import PreservesCrossProduct
from orbitcert.scalars import Scalar, Tower
from orbitcert.witnesses import reflect, witt_transport

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


def signed_permutation_gram(data, t: Tower, m: int, kind: str) -> Matrix:
    """A drawn Gram of ``kind`` on C^m that ``FormSpec`` accepts: a random
    involution, with a random sign +-1 on each pair and fixed point,
    mirrored as the kind asks.  An antisymmetric one is all pairs, so
    ``m`` must then be even."""
    order = data.draw(st.permutations(range(m)))
    k = (m // 2 if kind == "antisymmetric"
         else data.draw(st.integers(0, m // 2)))
    signs = st.sampled_from([t.one(), -t.one()])
    rows = [[t.zero()] * m for _ in range(m)]
    for a, b in zip(order[:2 * k:2], order[1:2 * k:2]):
        s = data.draw(signs)
        rows[a][b], rows[b][a] = s, -s if kind == "antisymmetric" else s
    for a in order[2 * k:]:
        rows[a][a] = data.draw(signs)
    return Matrix(t, rows, cols=m)


def gaussian(x: Scalar):
    """``(re, im, den)`` of Python ints with x = (re + im*i)/den, ``den`` > 0
    and gcd 1, when the scalar lies in Q(i); else None."""
    terms = x._terms
    if not terms:
        return (0, 0, 1)
    return terms.get(0) if len(terms) == 1 else None


def submatrix(a: Matrix, row_idx: Sequence[int],
              col_idx: Sequence[int]) -> Matrix:
    return Matrix(a.tower, [[a[i, j] for j in col_idx] for i in row_idx],
                  cols=len(col_idx))


def in_span(space, v) -> bool:
    """Rank oracle for membership in a ``Subspace``: ``v`` lies in it iff
    appending ``v`` to the echelon basis keeps the rank.  ``residual`` is
    tested against it."""
    basis = space.basis_vectors()
    return rank(Matrix.from_cols(space.tower, basis + [list(v)])) == space.dim


def column_echelon_reference(m: Matrix) -> Matrix:
    """The canonical column echelon through the transpose: ``_rref`` on
    the rows of m^T, its pivot rows transposed back into columns.
    ``Subspace`` reads the same form straight off the spanning rows and
    is tested against it."""
    rows, pivots, _ = _rref(m.tower, m.transpose().to_lists())
    return Matrix(m.tower, rows[:len(pivots)], cols=m.rows).transpose()


def intersect_reference(a: Matrix, b: Matrix) -> Matrix:
    """Column echelon of span(a) meet span(b), for a and b of full column
    rank, from the kernel of [a | b]: the first a.cols entries of each
    kernel vector combine a's columns.  ``Subspace.intersect`` is tested
    against it."""
    joined = Matrix(a.tower, [r + s for r, s in zip(a.to_lists(),
                                                    b.to_lists())],
                    cols=a.cols + b.cols)
    meet = [a.apply(k[:a.cols]) for k in kernel(joined)]
    return column_echelon_reference(Matrix(
        a.tower, [[v[i] for v in meet] for i in range(a.rows)],
        cols=len(meet)))


def exp_nilpotent(x: Matrix, t) -> Matrix:
    """exp(t x) for nilpotent x, as a finite exact sum."""
    tow = x.tower
    if not isinstance(t, Scalar):
        t = tow.scalar(Fraction(t))
    acc = Matrix.identity(tow, x.rows)
    term = Matrix.identity(tow, x.rows)
    coeff = tow.one()   # t^k / k!
    for k in range(1, x.rows + 1):
        term = term * x
        if term.is_zero():
            return acc
        coeff = coeff * t * tow.scalar(Fraction(1, k))
        acc = acc + term.scale(coeff)
    raise ValueError("matrix is not nilpotent")


def nilpotent_symplectic(form: FormSpec, u: Sequence[Scalar]) -> Matrix:
    """X = u u^T J; always square-zero since omega(u, u) = 0."""
    if form.kind != "antisymmetric":
        raise ValueError("symplectic nilpotents need an antisymmetric form")
    t = form.tower
    x = outer(t, u, u) * form.gram
    if not (x * x).is_zero():
        raise ValueError("internal: symplectic nilpotent is not square-zero")
    return x


def nilpotent_unitary(form: FormSpec, u: Sequence[Scalar]) -> Matrix:
    """X = i u conj(u)^T E for h-isotropic u; traceless and square-zero."""
    if form.kind != "hermitian":
        raise ValueError("unitary nilpotents need a hermitian form")
    if not form.norm(u).is_zero():
        raise ValueError("need an h-isotropic vector")
    t = form.tower
    x = outer(t, u, [a.conj() for a in u]).scale(t.i()) * form.gram
    if not (x * x).is_zero():
        raise ValueError("internal: unitary nilpotent is not square-zero")
    return x


def reflection(f: FormSpec, u: Sequence[Scalar]) -> Matrix:
    """The f-orthogonal reflection x -> x - 2 f(x,u)/f(u,u) u, as a matrix:
    ``reflect`` on the identity's columns."""
    cols = reflect(f, u, Matrix.identity(f.tower, f.dim).col_list())
    return Matrix(f.tower, list(zip(*cols)), cols=f.dim)


def transport_matrix(f: FormSpec, frame_a, frame_b) -> Matrix:
    """The f-isometry ``witt_transport`` builds, as a matrix: the
    identity's columns moved by it."""
    cols = witt_transport(f, frame_a, frame_b,
                          Matrix.identity(f.tower, f.dim).col_list())
    return Matrix(f.tower, list(zip(*cols)), cols=f.dim)


def describe(c) -> str:
    """A constraint in words: tests tell the constraints of two groups
    apart by it, and ``violations`` lists it."""
    if isinstance(c, PreservesForm):
        return "preserves %s form %r" % (c.form.kind, c.form.name)
    if isinstance(c, CommutesWithConj):
        return "commutes with the conjugation %r^-1 %r" % (
            c.bilinear.name, c.hermitian.name)
    return {DetOne: "determinant one", FixesVector: "fixes a marked vector",
            RealEntries: "real entries", PreservesCrossProduct:
            "preserves the octonion cross product"}[type(c)]


def violations(group, g: Matrix) -> list:
    """The ``describe`` text of every constraint of ``group`` that ``g``
    fails, after all of them (``GroupSpec.contains`` stops at the first)."""
    if g.rows != group.dim or g.cols != group.dim:
        return ["element has wrong shape"]
    return [describe(c) for c in group.constraints if not c.holds(g)]
