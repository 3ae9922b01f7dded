"""Dense exact linear algebra over a scalar tower.

Eliminations pivot deterministically (first usable row/column wins),
which keeps canonical forms reproducible across runs.  Vectors are plain
lists of scalars; matrices are immutable row-major wrappers.  Products,
eliminations and reductions run on the one fused multiply-accumulate
kernel ``scalars.fma``, through the Gaussian elimination ``_rref``;
``rank`` and ``det`` read its pivots.  Only ``real_rank``, the dimension
of the real span of some vectors, is fraction-free: each coordinate is
split by tower monomial (``scalars._split_by_mask``), and when every
coordinate lies in Q(i) its real and imaginary integer rows are reduced
over Z by Bareiss (``_integer_pivots``); a coordinate that needs a root
sends the vectors to ``rank`` on the matrix of their ``real_coords``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .scalars import Scalar, Tower, TowerError, _split_by_mask, fma

__all__ = [
    "Matrix", "Subspace", "rank", "real_rank", "kernel", "null_combinations",
    "column_echelon", "column_space_equal", "hermitian_signature",
    "congruence_diagonalize", "vec_add", "vec_sub", "vec_scale", "real_coords",
]

Entry = Union[Scalar, int, Fraction]


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> list:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Scalar, v: Sequence[Scalar]) -> list:
    return [c * a for a in v]


def real_coords(v: Sequence[Scalar]) -> list:
    """Real and imaginary part of each entry, interleaved: the coordinates
    in which only real linear combinations of vectors count.  A zero
    entry is its own real and imaginary part."""
    out = []
    for x in v:
        if x:
            out.append(x.real_part())
            out.append(x.imag_part())
        else:
            out += (x, x)
    return out


class Matrix:
    """Immutable dense matrix of tower scalars."""

    __slots__ = ("tower", "rows", "cols", "_e")

    def __init__(self, tower: Tower, entries: Sequence[Sequence[Scalar]],
                 cols: Optional[int] = None) -> None:
        self.tower = tower
        self._e = tuple(tuple(row) for row in entries)
        self.rows = len(self._e)
        if self.rows:
            self.cols = len(self._e[0])
            if any(len(r) != self.cols for r in self._e):
                raise ValueError("ragged matrix rows")
        else:
            self.cols = 0 if cols is None else cols

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_rows(tower: Tower, rows: Sequence[Sequence[Entry]]) -> Matrix:
        return Matrix(tower, [[tower.lift(x) for x in row] for row in rows])

    @staticmethod
    def from_cols(tower: Tower, cols: Sequence[Sequence[Entry]]) -> Matrix:
        if not cols:
            return Matrix(tower, [])
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise ValueError("ragged matrix columns")
        return Matrix(tower, [[tower.lift(c[i]) for c in cols]
                              for i in range(n)])

    @staticmethod
    def identity(tower: Tower, n: int) -> Matrix:
        one, zero = tower.one(), tower.zero()
        return Matrix(tower, [[one if i == j else zero for j in range(n)]
                              for i in range(n)])

    @staticmethod
    def diag(tower: Tower, entries: Sequence[Entry]) -> Matrix:
        zero = tower.zero()
        es = [tower.lift(x) for x in entries]
        n = len(es)
        return Matrix(tower, [[es[i] if i == j else zero for j in range(n)]
                              for i in range(n)])

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._e[i][j]

    def col(self, j: int) -> list:
        return [self._e[i][j] for i in range(self.rows)]

    def col_list(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def to_lists(self) -> list:
        return [list(r) for r in self._e]

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: Matrix) -> Matrix:
        self._check_shape(other)
        return Matrix(self.tower,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._e, other._e)], cols=self.cols)

    def __sub__(self, other: Matrix) -> Matrix:
        self._check_shape(other)
        return Matrix(self.tower,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self._e, other._e)], cols=self.cols)

    def __neg__(self) -> Matrix:
        return Matrix(self.tower, [[-a for a in r] for r in self._e],
                      cols=self.cols)

    def scale(self, c: Entry) -> Matrix:
        c = self.tower.lift(c)
        return Matrix(self.tower, [[c * a for a in r] for r in self._e],
                      cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch %dx%d * %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
            # row i of the product gathers a_ik * b_kj over the nonzero
            # entries only (model and Lie-algebra matrices are sparse)
            zero = self.tower.zero()
            nonzero = [[(j, b) for j, b in enumerate(brow) if b]
                       for brow in other._e]
            out = []
            for srow in self._e:
                pairs = [[] for _ in range(other.cols)]
                for a, nz in zip(srow, nonzero):
                    if a:
                        for j, b in nz:
                            pairs[j].append((a, b))
                out.append([fma(zero, p) if p else zero for p in pairs])
            return Matrix(self.tower, out, cols=other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, v: Sequence[Scalar]) -> list:
        if len(v) != self.cols:
            raise ValueError("vector length %d does not match %d columns"
                             % (len(v), self.cols))
        zero = self.tower.zero()
        return [fma(zero, zip(row, v)) for row in self._e]

    def transpose(self) -> Matrix:
        return Matrix(self.tower,
                      [[self._e[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], cols=self.rows)

    def conj(self) -> Matrix:
        return Matrix(self.tower, [[a.conj() for a in r] for r in self._e],
                      cols=self.cols)

    def conj_transpose(self) -> Matrix:
        return self.transpose().conj()

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self._e for a in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(a == b for r1, r2 in zip(self._e, other._e)
                   for a, b in zip(r1, r2))

    __hash__ = None

    def flatten(self) -> list:
        """Row-major vector of all entries."""
        return [a for r in self._e for a in r]

    def _check_shape(self, other: Matrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch %dx%d vs %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))

    # -- elimination-based queries ----------------------------------------------

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        _, pivots, scale = _rref(self.tower, self.to_lists())
        if len(pivots) < self.rows:
            return self.tower.zero()
        return scale

    def inverse(self) -> Matrix:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        ident = Matrix.identity(self.tower, n)._e
        rows, pivots, _ = _rref(self.tower, [
            list(r + e) for r, e in zip(self._e, ident)])
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.tower, [r[n:] for r in rows], cols=n)

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        levels = [[a._level() for a in r] for r in self._e]
        depth = max((lvl for r in levels for lvl in r), default=0)
        return {
            "rows": self.rows,
            "cols": self.cols,
            "radicands": self.tower.serialize_prefix(depth),
            "entries": [[a._cell(lvl) for a, lvl in zip(r, lr)]
                        for r, lr in zip(self._e, levels)],
        }

    @staticmethod
    def from_json(obj, tower: Tower) -> Matrix:
        """The matrix ``to_json`` wrote, in ``tower``: one that starts with
        ``obj``'s radicands as ``serialize_prefix`` writes them.  It is
        never extended; another raises :class:`TowerError`.  So does what
        ``to_json`` would not write: a cell list whose value has level 0
        or a level past ``obj``'s radicands, or whose length is not
        2**level, and a radicand list longer than its deepest cell's
        level.  Each cell is read and checked in one pass."""
        radicands = obj["radicands"]
        have = tower.serialize_prefix(len(radicands))
        for j, r in enumerate(radicands):
            if j == len(have) or (type(r), r) != (type(have[j]), have[j]):
                raise TowerError("radicand %d conflicts with tower" % (j,))
        rows = []
        depth = 0
        for i, r in enumerate(obj["entries"]):
            row = []
            for j, c in enumerate(r):
                a = Scalar.from_coords(tower, c)
                if not isinstance(c, str):
                    lvl = a._level()
                    if not 0 < lvl <= len(radicands) or len(c) != 1 << lvl:
                        raise TowerError("matrix cell (%d, %d) is not in "
                                         "canonical form" % (i, j))
                    depth = max(depth, lvl)
                row.append(a)
            rows.append(row)
        if len(radicands) > depth:
            raise TowerError("matrix lists %d radicands, its cells use %d"
                             % (len(radicands), depth))
        m = Matrix(tower, rows, cols=obj["cols"])
        if m.rows != obj["rows"] or m.cols != obj["cols"]:
            raise TowerError("matrix entry grid does not match declared shape")
        return m

    def __repr__(self) -> str:
        return "Matrix(%dx%d)" % (self.rows, self.cols)


def _rref(tower: Tower, rows: list) -> tuple:
    """In-place reduced row echelon; returns (rows, pivot column list,
    scale), where scale is the product of the pivots the rows were divided
    by times the sign of the row swaps: the determinant of a square input
    of full rank."""
    scale = tower.one()
    if not rows:
        return rows, [], scale
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            scale = -scale
        scale = scale * rows[r][c]
        inv = rows[r][c].inv()
        prow = rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = -rows[i][c]
                rows[i] = [x if y.is_zero() else fma(x, ((f, y),))
                           for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, scale


def rank(m: Matrix) -> int:
    """Rank of ``m``: the number of pivots ``_rref`` finds."""
    return len(_rref(m.tower, m.to_lists())[1])


def real_rank(tower: Tower, vectors: Sequence[Sequence[Scalar]]) -> int:
    """Dimension of the real span of ``vectors``: the rank of the matrix
    whose columns are their ``real_coords``.  Each coordinate over the
    vectors is split by tower monomial; mask 0 alone gives its real and its
    imaginary integer row (over one denominator) to ``_integer_pivots``,
    and an all-zero coordinate gives none.  Any other mask sends the
    vectors to ``rank`` on the ``real_coords`` matrix in ``tower``."""
    rows = []
    for coord in zip(*vectors):
        split, _ = _split_by_mask(coord)
        if split.keys() - {0}:
            return rank(Matrix.from_cols(
                tower, [real_coords(v) for v in vectors]))
        if split:
            re, im, _ = split[0]
            rows += (re, im)
    return len(_integer_pivots(rows))


def _integer_pivots(rows: list) -> list:
    """Pivots of a one-step fraction-free elimination over Z (Bareiss
    1968, *Math. Comp.* 22) of the integer ``rows``; their number is the
    rank.  Each entry below a pivot ``p`` becomes ``(p*x - a*y) // prev``,
    where ``a`` is its row's entry under ``p``, ``y`` the pivot row's entry
    and ``prev`` the previous pivot.  Every entry is then a minor of the
    input, so the division is exact and entries stay within the Hadamard
    bound, hostile input included.  The first row with a nonzero entry in
    the column is the pivot row, as in ``_rref``.  Consumes ``rows``."""
    pivots, prev = [], 1
    while rows and rows[0]:
        piv = next((i for i, row in enumerate(rows) if row[0]), None)
        if piv is None:
            rows = [row[1:] for row in rows]
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        p, *prow = rows[0]
        rows = [[(p * x - a * y) // prev for x, y in zip(rest, prow)]
                for a, *rest in rows[1:]]
        pivots.append(p)
        prev = p
    return pivots


def kernel(m: Matrix) -> list:
    """Deterministic basis of the right kernel, as a list of vectors."""
    rows, pivots, _ = _rref(m.tower, m.to_lists())
    zero, one = m.tower.zero(), m.tower.one()
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def null_combinations(tower: Tower, vectors: Sequence[Sequence[Scalar]],
                      images: Sequence[Sequence[Scalar]]) -> list:
    """A basis of the combinations sum c_k vectors[k] that a linear map
    sends to zero, given the image ``images[k]`` of each ``vectors[k]``:
    one ``kernel`` with a column per vector, each solution c read back
    through the vectors."""
    nrows = len(images[0]) if images else 0
    coeff = Matrix(tower, [[im[i] for im in images] for i in range(nrows)],
                   cols=len(vectors))
    zero = tower.zero()
    coords = list(zip(*vectors))
    return [[fma(zero, zip(c, xs)) for xs in coords] for c in kernel(coeff)]


def column_echelon(m: Matrix) -> Matrix:
    """Canonical reduced column echelon form of the column space.

    Columns are ordered by pivot row (topmost first), pivots are 1, and
    pivot rows are cleared across the other columns, so two matrices have
    equal column space iff their canonical forms are equal.
    """
    return Subspace.from_vectors(m.tower, m.rows, m.col_list()).matrix


def column_space_equal(a: Matrix, b: Matrix) -> bool:
    if a.rows != b.rows:
        raise ValueError("ambient dimensions differ")
    return column_echelon(a) == column_echelon(b)


class Subspace:
    """A linear subspace held as the nonzero rows of the reduced row
    echelon form of a spanning set: its canonical basis."""

    __slots__ = ("tower", "ambient_dim", "_basis", "_pivots")

    def __init__(self, tower: Tower, ambient_dim: int, basis: list,
                 pivots: list) -> None:
        self.tower = tower
        self.ambient_dim = ambient_dim
        self._basis = basis
        self._pivots = pivots

    @staticmethod
    def from_vectors(tower: Tower, ambient_dim: int,
                     vectors: Iterable[Sequence[Entry]]) -> Subspace:
        vecs = [[tower.lift(x) for x in v] for v in vectors]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        rows, pivots, _ = _rref(tower, vecs)
        return Subspace(tower, ambient_dim, rows[:len(pivots)], pivots)

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def matrix(self) -> Matrix:
        """The basis vectors as the columns of a matrix."""
        return Matrix(self.tower, [[b[i] for b in self._basis]
                                   for i in range(self.ambient_dim)],
                      cols=self.dim)

    def basis_vectors(self) -> list:
        return [list(v) for v in self._basis]

    def pivots(self) -> list:
        """Index of each basis vector's leading 1; the others are 0 there."""
        return list(self._pivots)

    def residual(self, v: Sequence[Scalar]) -> list:
        """``v`` reduced modulo the echelon basis: zero exactly when ``v``
        lies in the subspace, and ``v - residual(v)`` always does."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        out = list(v)
        for b, piv in zip(self._basis, self._pivots):
            c = out[piv]
            if not c.is_zero():
                f = -c
                out = [x if s.is_zero() else fma(x, ((f, s),))
                       for x, s in zip(out, b)]
        return out

    def intersect(self, other: Subspace) -> Subspace:
        """The combinations of this basis whose residual modulo ``other``
        vanishes (``residual`` is linear)."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace.from_vectors(
            self.tower, self.ambient_dim, null_combinations(
                self.tower, self._basis, [other.residual(b)
                                          for b in self._basis]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._basis == other._basis)

    __hash__ = None

    def __repr__(self) -> str:
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def congruence_diagonalize(g: Matrix) -> tuple:
    """Exact congruence diagonalization of a Hermitian Gram matrix.

    Returns (d, s) with s.T * g * conj(s) diagonal with real diagonal d
    (a list of scalars).  No square roots are taken, so the diagonal is not
    normalized to +-1; its signs carry the signature.  Works unchanged for
    real symmetric matrices.
    """
    n = g.rows
    if g.cols != n:
        raise ValueError("Gram matrix must be square")
    if not g == g.conj_transpose():
        raise ValueError("Gram matrix is not hermitian-symmetric")
    tower = g.tower
    a = g.to_lists()
    s = Matrix.identity(tower, n).to_lists()

    def col_op(i, j, lam):
        # basis change u_i <- u_i + lam * u_j
        for t in range(n):
            s[t][i] = fma(s[t][i], ((lam, s[t][j]),))
        cl = lam.conj()
        for t in range(n):
            a[i][t] = fma(a[i][t], ((lam, a[j][t]),))
        for t in range(n):
            a[t][i] = fma(a[t][i], ((cl, a[t][j]),))

    def swap(i, j):
        for t in range(n):
            s[t][i], s[t][j] = s[t][j], s[t][i]
        a[i], a[j] = a[j], a[i]
        for t in range(n):
            a[t][i], a[t][j] = a[t][j], a[t][i]

    for k in range(n):
        # the first nonzero diagonal entry from k on; failing that, the
        # first nonzero off-diagonal (i, j), made diagonal at i by
        # u_i <- u_i + a_ij u_j, as Q(u_i + a_ij u_j) = 2|a_ij|^2 > 0
        piv = next((j for j in range(k, n) if not a[j][j].is_zero()), None)
        if piv is None:
            found = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                          if not a[i][j].is_zero()), None)
            if found is None:
                break  # remaining block is identically zero
            piv, j = found
            col_op(piv, j, a[piv][j])
        if piv != k:
            swap(k, piv)
        pivot = a[k][k]
        pinv = pivot.inv()
        for j in range(k + 1, n):
            if not a[k][j].is_zero():
                col_op(j, k, -(a[j][k] * pinv))
    d = [a[k][k] for k in range(n)]
    for x in d:
        if not x.is_real():
            raise TowerError("hermitian diagonalization produced a non-real "
                             "diagonal entry")
    return d, Matrix(tower, s, cols=n)


def hermitian_signature(g: Matrix) -> tuple:
    """(positives, negatives, zeros) of a Hermitian Gram matrix."""
    d, _ = congruence_diagonalize(g)
    pos = sum(1 for x in d if x.sign() > 0)
    neg = sum(1 for x in d if x.sign() < 0)
    return pos, neg, len(d) - pos - neg
