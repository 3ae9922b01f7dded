"""Split octonions, their derivation algebra, and the cross-product group.

The algebra is realized in the paired vector-matrix model: an element is
(a, v; w, b) with scalars a, b and 3-vectors v, w, multiplied by

    (a1, v1; w1, b1)(a2, v2; w2, b2) =
        (a1 a2 + v1.w2,  a1 v2 + b2 v1 - w1 x w2;
         a2 w1 + b1 w2 + v1 x v2,  b1 b2 + w1.v2)

with the right-handed cross product.  The norm N(a, v; w, b) = a b - v.w
is multiplicative, which pins down the sign conventions.  Everything here
reads one cached signed table, e_i e_j = c e_k with c = +-1
(:func:`table_json` is its dump); composition and alternativity follow
from the table, and the test suite checks both.

The stored basis diagonalizes the norm form from the start (the raw
vector-matrix basis would produce half-integer structure constants):

    e0 = unit,
    e1..e3 = p_i = (0, v_i; -w_i, 0)   norm +1,
    e4     = g   = (1, 0; 0, -1)       norm -1,
    e5..e7 = m_i = (0, v_i; w_i, 0)    norm -1.

Each basis product is +-1 times a basis vector (validated), the norm
Gram is exactly diag(1, 1,1,1, -1, -1,-1,-1), and the trace-zero part
e1..e7 carries the quadric Gram diag(1,1,1,-1,-1,-1,-1) with the
positive vectors first.  So split G2 acts on the quadric in these very
coordinates: it is the subgroup of SO(3,4) that keeps the cross product
x * y = Im(xy) of e1..e7, which :class:`PreservesCrossProduct` tests and
linearizes like any other group constraint.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .linalg import Matrix
from .scalars import Scalar, Tower, fma
from .groups import LieAlgebraBasis, _null_combinations, outer

__all__ = ["derivations", "octonion_product", "PreservesCrossProduct",
           "table_json"]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _zorn_mul(x, y):
    a1, v1, w1, b1 = x
    a2, v2, w2, b2 = y
    c1 = _cross(w1, w2)
    c2 = _cross(v1, v2)
    return (
        a1 * a2 + _dot(v1, w2),
        [a1 * v2[i] + b2 * v1[i] - c1[i] for i in range(3)],
        [a2 * w1[i] + b1 * w2[i] + c2[i] for i in range(3)],
        b1 * b2 + _dot(w1, v2),
    )


# basis element k as a vector-matrix tuple over Fractions
def _basis_tuple(k: int):
    z = Fraction(0)
    a, b = z, z
    v = [z, z, z]
    w = [z, z, z]
    if k == 0:
        a, b = Fraction(1), Fraction(1)
    elif 1 <= k <= 3:           # p_i
        v[k - 1] = Fraction(1)
        w[k - 1] = Fraction(-1)
    elif k == 4:                # g
        a, b = Fraction(1), Fraction(-1)
    else:                       # m_i
        v[k - 5] = Fraction(1)
        w[k - 5] = Fraction(1)
    return (a, v, w, b)


def _tuple_coords(x) -> list:
    # invert e0 = (1,0;0,1), p = (0,v;-w,0), g = (1,0;0,-1), m = (0,v;w,0)
    a, v, w, b = x
    half = Fraction(1, 2)
    out = [(a + b) * half]
    out += [(v[i] - w[i]) * half for i in range(3)]
    out.append((a - b) * half)
    out += [(v[i] + w[i]) * half for i in range(3)]
    return out


@functools.lru_cache(maxsize=None)
def _signed_table() -> tuple:
    """Structure constants of the stored basis: ``table[i][j] = (k, c)``
    means e_i e_j = c e_k, checked to be a single coordinate of +-1."""
    table = []
    for i in range(8):
        ti = _basis_tuple(i)
        row = []
        for j in range(8):
            cell = _tuple_coords(_zorn_mul(ti, _basis_tuple(j)))
            nonzero = [(k, c) for k, c in enumerate(cell) if c]
            if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
                raise AssertionError("a basis product is not a signed "
                                     "basis vector")
            (k, c), = nonzero
            row.append((k, int(c)))
        table.append(tuple(row))
    return tuple(table)


def table_json() -> dict:
    """The structure constants as ``orbitcert dump octonion-table`` prints
    them: ``table[i][j]`` holds the coordinates of e_i e_j."""
    return {"schema": "octonion-structure-constants/1",
            "dim": 8, "unit_index": 0,
            "table": [[[c if a == k else 0 for a in range(8)]
                       for k, c in row] for row in _signed_table()]}


def octonion_product(tower: Tower, x: Sequence[Scalar],
                     y: Sequence[Scalar]) -> list:
    """Product of two octonions given by their 8 coordinates in the stored
    basis, read off the signed table."""
    signed = {1: y, -1: [-b for b in y]}
    zero = tower.zero()
    return [fma(zero, [(x[i], signed[c][j]) for i, j, c in terms])
            for terms in _product_terms()]


@functools.lru_cache(maxsize=None)
def _product_terms() -> tuple:
    """For each coordinate k, the (i, j, c) with e_i e_j = c e_k, grouped
    once from the signed table (``octonion_product`` keys on c = +-1)."""
    terms = [[] for _ in range(8)]
    for i, row in enumerate(_signed_table()):
        for j, (k, c) in enumerate(row):
            terms[k].append((i, j, c))
    return tuple(tuple(t) for t in terms)


class PreservesCrossProduct:
    """g(x * y) = g(x) * g(y) for the cross product x * y = Im(xy) of the
    imaginary octonions, in the coordinates e1..e7; checked on the 21
    basis pairs, whose products are read from the signed table."""

    antilinear = False
    dim = 7

    def holds(self, g: Matrix) -> bool:
        if g.rows != 7 or g.cols != 7:
            raise ValueError("the octonion cross product acts on dimension "
                             "7, not on a %dx%d matrix" % (g.rows, g.cols))
        t = g.tower
        cols = [g.col(k) for k in range(7)]
        return all([c * a for a in cols[k]] == _cross7(t, cols[i], cols[j])
                   for i, j, k, c in _cross_pairs())

    def linear_terms(self, m: int) -> list:
        """For the pair e_i * e_j = c e_k, rows 7p..7p+6 (p its index in
        ``_cross_pairs``) hold the derivation condition
        c x e_k - (x e_i) * e_j - e_i * (x e_j)."""
        table = _signed_table()
        terms = []
        for p, (i, j, k, c) in enumerate(_cross_pairs()):
            for a in range(7):
                terms.append((7 * p + a, a, k, c, False))
            # (x e_i) * e_j = sum_b x[b][i] e_b * e_j, and likewise on the left
            for b in range(7):
                if b != j:
                    kb, cb = table[b + 1][j + 1]
                    terms.append((7 * p + kb - 1, b, i, -cb, False))
                if b != i:
                    kb, cb = table[i + 1][b + 1]
                    terms.append((7 * p + kb - 1, b, j, -cb, False))
        return terms


def _cross7(tower: Tower, u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    zero = tower.zero()
    return octonion_product(tower, [zero] + list(u), [zero] + list(v))[1:]


@functools.lru_cache(maxsize=None)
def _cross_pairs() -> tuple:
    """(i, j, k, c) for 0 <= i < j < 7 with e_i * e_j = c e_k in the
    coordinates e1..e7 (indices shifted down by one): distinct imaginary
    basis vectors are orthogonal, so their product is a signed imaginary
    basis vector."""
    table = _signed_table()
    out = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            k, c = table[i][j]
            if k == 0:
                raise AssertionError("imaginary basis product has a real part")
            out.append((i - 1, j - 1, k - 1, c))
    return tuple(out)


def derivations(tower: Tower) -> LieAlgebraBasis:
    """Solve D(x y) = D(x) y + x D(y) on all basis pairs; dim must be 14.

    Each real matrix unit is pushed through the condition by octonion
    products.  No product command calls this: it is the definitional
    reference that ``build_group(quadric7, "G2split")``, assembled from
    the ``PreservesCrossProduct`` terms, is tested against."""
    t = tower
    basis = [[t.one() if i == k else t.zero() for i in range(8)]
             for k in range(8)]
    products = [[octonion_product(t, basis[i], basis[j]) for j in range(8)]
                for i in range(8)]

    def condition(x: Matrix) -> list:
        cols = [x.col(k) for k in range(8)]
        rows = []
        for i in range(8):
            for j in range(8):
                lhs = x.apply(products[i][j])
                rhs1 = octonion_product(t, cols[i], basis[j])
                rhs2 = octonion_product(t, basis[i], cols[j])
                rows.extend(a - b - c for a, b, c in zip(lhs, rhs1, rhs2))
        return rows

    units = [outer(t, basis[j], basis[k]) for j in range(8) for k in range(8)]
    mats = _null_combinations(t, 8, units,
                              [condition(x) for x in units], True)
    sol = LieAlgebraBasis(t, 8, mats, "real")
    sol.verify_bracket_closure()
    if sol.dim != 14:
        raise AssertionError(
            "derivation algebra has dimension %d, expected 14 — "
            "the multiplication table is wrong" % sol.dim)
    for d in sol.matrices:
        if any(not s.is_zero() for s in d.apply(basis[0])):
            raise AssertionError("a derivation fails to kill the unit")
    return sol
