"""Matrix groups cut out by exact constraints, and their Lie algebras.

A group is described by a list of constraint tags (preserve a form,
commute with a conjugation, determinant one, fix a vector, real
entries).  Each tag knows how to test a group element exactly, and
states the size it fits as ``dim`` (None for any size), which
``GroupSpec`` alone compares with the group's.  ``PreservesForm`` takes
any ``FormSpec`` and reads from it whether its condition is antilinear
(hermitian) or not; it compares only the independent half of g^T G g
(``_preserves``), in one kernel at every tower depth: each column of g
is split once by tower monomial into Gaussian-integer vectors, row a of
g^T G is column a's split permuted and signed by the form's ``perm``
and ``signs``, and conj(g) is the split with its imaginary parts
negated.  An entry is summed as plain integers per target monomial, one
dot product per pair of monomials (one pair at depth 0), and compared
with G's sign there over the same denominator (delayed reduction, as in
Dumas, Giorgi and Pernet, *ACM TOMS* 35(3), 2008).

A real form cut out by a bilinear form B and a hermitian form H (Sp(2n,R)
and Sp(2p,2q) by omega and h, SO(p,q) and SO(hhat) by b and hhat) is
checked by ``CommutesWithConj`` and ``PreservesForm(B)``, not by a second
``PreservesForm(H)``.  With M = B^-1 H, H(z, w) = B(z, M conj(w)), and
when g^T B g = B (so g is invertible),

    H(gz, gw) - H(z, w) = B(gz, (M conj(g) - g M) conj(w)),

so g preserves H exactly when g M = M conj(g): the group is the same set
of matrices, and its Lie algebra the same, since x M - M conj(x) and
x^T H + H conj(x) differ by combinations of the rows of x^T B + B x.  M
is a signed permutation, so the commutation is m^2 comparisons of an
entry g[r, j] with +-conj(g[perm r, perm j]), on coefficient triples and
with no product, and ``GroupSpec.contains`` tests it first and stops at
the first constraint that fails.  Each tag lists its linearization at
the identity as sparse terms: row ``row`` of the linear map L(x) gains
``coeff * x[j][k]`` (or ``coeff * conj(x[j][k])``), with coefficients
read off the forms' signs, a fixed vector or the octonion structure
constants.  ``solve_linear_constraints`` assembles these terms into one
coefficient matrix, one column per matrix unit, and solves it by exact
kernel computation on the rows that are distinct up to sign.

A ``LieAlgebraBasis`` acts through the nonzero entries of its matrices,
kept row by row when it is built: Lie bases are sparse (at most 4
nonzeros per matrix for the models' groups), so ``images`` forms every
X v and ``verify_bracket_closure`` every bracket from those lists, with
no dense product.

Ground fields.  Conditions coming from bilinear forms, determinant and
fixed vectors are complex-linear; hermitian, conjugation and reality
conditions only real-linear.  When any of the latter appear the algebra
is solved as a real Lie algebra (basis over R, ``ground == "real"``);
otherwise over C.
Membership, intersections and spans of a real algebra always work with
doubled real coordinates so that only real linear combinations count.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .forms import FormSpec
from .linalg import (Matrix, Subspace, _rref, kernel, null_combinations,
                     real_coords)
from .scalars import Scalar, Tower, _accumulate, _split_by_mask, fma

__all__ = [
    "PreservesForm", "CommutesWithConj", "DetOne", "FixesVector",
    "RealEntries", "GroupSpec", "LieAlgebraBasis",
    "solve_linear_constraints", "isotropy_subalgebra",
    "check_onishchik_triple", "outer", "nilpotent_orthogonal",
]


class PreservesForm:
    """g^T G g' = G, with g' = conj(g) for a hermitian G (then h(gz, gw) =
    h(z, w)) and g' = g otherwise.  ``holds`` compares only entries a <= b
    (a < b if G is antisymmetric): M = g^T G g' has the symmetry of G,
    which ``FormSpec`` checked (M^T = conj(M) for hermitian G, as radicands
    are real and positive, so ``conj`` is a field automorphism fixing each
    root), so they decide the rest."""

    def __init__(self, form: FormSpec) -> None:
        self.form = form
        self.dim = form.dim
        self.antilinear = form.kind == "hermitian"

    def holds(self, g: Matrix) -> bool:
        return _preserves(g, self.form, self.antilinear)

    def linear_terms(self, m: int) -> list:
        """x^T G + G x' (x' = conj(x) for a hermitian G)."""
        return _gram_terms(self.form, m, conj=self.antilinear)


def _preserves(g: Matrix, form: FormSpec, conj: bool) -> bool:
    """g^T G g' == G on the entries a <= b (a < b if G is antisymmetric,
    where both diagonals are zero), for g' = conj(g) if ``conj`` and g'
    = g otherwise, up to the first entry that differs.

    Each column of g is split once (``_split_by_mask``); conj(g) negates
    its imaginary parts, and row a of g^T G is column a of g, permuted
    and signed: (g^T G)[a, perm[k]] = signs[k] g[k, a].  Entry (a, b) is
    summed as plain integers per target monomial, one dot product per
    pair of masks (``_accumulate``), minus signs[a] at b = perm[a] over
    the same denominator, and holds when every sum is zero: the products
    of distinct roots are a basis of the tower over Q(i).  The entries of
    g meet in one ``Tower.host``, so a radicand conflict raises
    ``TowerError``."""
    m = form.dim
    if g.rows != m or g.cols != m:
        return False
    t = g.tower.host(g.flatten())
    perm, signs = form.perm, form.signs
    cols = [_split_by_mask(c) for c in g.col_list()]
    sp = [(signs[p], p) for p in perm]
    rows = [([(mu, [s * ur[p] for s, p in sp] + [s * ui[p] for s, p in sp],
               f) for mu, (ur, ui, f) in split.items()], den)
            for split, den in cols]
    # (x + iy).(v + iw) is [x, y].[v, -w] + i [x, y].[w, v]; conj(g)
    # negates w
    sign = -1 if conj else 1
    cols = [({nu: (vr + [-sign * y for y in vi], [sign * y for y in vi] + vr,
                   f) for nu, (vr, vi, f) in split.items()}, den)
            for split, den in cols]
    skip = form.kind == "antisymmetric"
    for a, (row, rden) in enumerate(rows):
        for b in range(a + skip, m):
            col, cden = cols[b]
            out: dict = {}
            for mu, u, fu in row:
                for nu, (v, w, fv) in col.items():
                    re = sum(map(mul, u, v))
                    im = sum(map(mul, u, w))
                    if re or im:
                        f = fu * fv
                        _accumulate(t, out, mu & nu, mu ^ nu, re * f, im * f,
                                    1)
            if b == perm[a]:
                _accumulate(t, out, 0, 0, -signs[a] * rden * cden, 0, 1)
            if any(re or im for re, im, _ in out.values()):
                return False
    return True


class CommutesWithConj:
    """g M = M conj(g) for M = B^-1 H, B a bilinear and H a hermitian
    form: next to ``PreservesForm(B)`` it cuts out the group that
    ``PreservesForm(H)`` would (module docstring).  M is a signed
    permutation, read off the two forms without an inverse or a product:
    M[perm_B[a], perm_H[a]] = signs_B[a] signs_H[a]."""

    antilinear = True

    def __init__(self, bilinear: FormSpec, hermitian: FormSpec) -> None:
        if bilinear.kind == "hermitian" or hermitian.kind != "hermitian":
            raise ValueError("need a bilinear and a hermitian form")
        if bilinear.dim != hermitian.dim:
            raise ValueError("forms %r and %r differ in dimension"
                             % (bilinear.name, hermitian.name))
        self.bilinear, self.hermitian = bilinear, hermitian
        self.dim = m = bilinear.dim
        # M[r, perm[r]] = signs[r]
        self.perm, self.signs = [0] * m, [0] * m
        for a, (pb, ph) in enumerate(zip(bilinear.perm, hermitian.perm)):
            self.perm[pb] = ph
            self.signs[pb] = bilinear.signs[a] * hermitian.signs[a]

    def holds(self, g: Matrix) -> bool:
        """(g M)[r, perm[j]] = g[r, j] signs[j] against (M conj(g))[r,
        perm[j]] = signs[r] conj(g[perm[r], perm[j]]), up to the first
        entry that differs: g[r, j] must be +-conj(y), whose coefficient
        triples are y's with (re, im) made (+-re, -+im), still reduced.
        The entries of g meet in one ``Tower.host`` first, so a radicand
        conflict raises ``TowerError`` and the masks of all entries name
        the same roots."""
        m = self.dim
        if g.rows != m or g.cols != m:
            return False
        g.tower.host(g.flatten())
        rows = [[x._terms for x in row] for row in g.to_lists()]
        ps = list(zip(self.perm, self.signs))
        for row, (pr, sr) in zip(rows, ps):
            mirror = rows[pr]
            for x, (pj, sj) in zip(row, ps):
                s = sr * sj
                if x != {mu: (s * a, -s * b, d)
                         for mu, (a, b, d) in mirror[pj].items()}:
                    return False
        return True

    def linear_terms(self, m: int) -> list:
        """x M - M conj(x): entry (r, perm[j]) gains signs[j] at x[r, j],
        and entry (r, c) gains -signs[r] at conj(x)[perm[r], c]."""
        ps = list(enumerate(zip(self.perm, self.signs)))
        terms = [(r * m + p, r, j, s, False)
                 for r in range(m) for j, (p, s) in ps]
        terms += [(r * m + c, p, c, -s, True)
                  for r, (p, s) in ps for c in range(m)]
        return terms


def _gram_terms(form: FormSpec, m: int, conj: bool) -> list:
    """Terms of x^T G + G x' (x' = conj(x) when ``conj`` is set): entry
    (a, b), row a*m + b, gains G[j,b] at x[j,a] and G[a,j] at x'[j,b],
    for the one nonzero G[j, perm[j]] = signs[j] of each row j."""
    nonzero = list(zip(range(m), form.perm, form.signs))
    terms = [(a * m + b, j, a, c, False)
             for a in range(m) for j, b, c in nonzero]
    terms += [(a * m + b, j, b, c, conj)
              for a, j, c in nonzero for b in range(m)]
    return terms


class DetOne:
    antilinear = False
    dim = None

    def holds(self, g: Matrix) -> bool:
        return g.det().is_one()

    def linear_terms(self, m: int) -> list:
        """The trace."""
        return [(0, a, a, 1, False) for a in range(m)]


class FixesVector:
    antilinear = False

    def __init__(self, v: Sequence[Scalar]) -> None:
        self.v = list(v)
        self.dim = len(self.v)

    def holds(self, g: Matrix) -> bool:
        gv = g.apply(self.v)
        return all((a - b).is_zero() for a, b in zip(gv, self.v))

    def linear_terms(self, m: int) -> list:
        """x v."""
        return [(a, a, k, c, False)
                for a in range(m) for k, c in enumerate(self.v) if c]


class RealEntries:
    """Entries of g (and of algebra elements) are real."""

    antilinear = True
    dim = None

    def holds(self, g: Matrix) -> bool:
        return all(g[i, j].is_real()
                   for i in range(g.rows) for j in range(g.cols))

    def linear_terms(self, m: int) -> list:
        # structural: a solve with this tag has no i*E_jk columns
        return []


class GroupSpec:
    """A matrix group inside GL(dim, C) cut out by constraint tags."""

    def __init__(self, tower: Tower, dim: int, constraints: Sequence,
                 name: str) -> None:
        self.tower = tower
        self.dim = dim
        self.constraints = list(constraints)
        for c in self.constraints:
            if c.dim not in (None, dim):
                raise ValueError("%s has dimension %d, the group acts on %d"
                                 % (type(c).__name__, c.dim, dim))
        self.name = name

    @property
    def ground(self) -> str:
        if any(c.antilinear for c in self.constraints):
            return "real"
        return "complex"

    def contains(self, g: Matrix) -> bool:
        """Every constraint holds, tested in order up to the first that
        fails."""
        if g.rows != self.dim or g.cols != self.dim:
            return False
        return all(c.holds(g) for c in self.constraints)

    def lie_algebra(self) -> "LieAlgebraBasis":
        """Solve the linearized constraints at the identity, and certify
        that the basis closes under brackets."""
        alg = solve_linear_constraints(self)
        alg.verify_bracket_closure()
        return alg

    def __repr__(self) -> str:
        return "GroupSpec(%s, dim=%d, %d constraints)" % (
            self.name, self.dim, len(self.constraints))


def solve_linear_constraints(group: GroupSpec) -> "LieAlgebraBasis":
    """The Lie algebra of ``group``, cut out of GL(m, C) by its
    constraints.

    The coefficient matrix is assembled from the constraints'
    ``linear_terms``, with one column per matrix unit E_jk (index
    j*m + k).  On a complex ground (no antilinear constraint) the
    unknowns are the complex entries of x.  On a real ground the unknown
    is a real combination of E_jk and, unless ``RealEntries`` is among the
    constraints, of i E_jk (index m*m + j*m + k); every row is then split
    into its real and imaginary part.  A kernel vector ``sol`` is read
    back as the matrix with entries sol[e] + i sol[m*m + e].
    """
    t, m, constraints = group.tower, group.dim, group.constraints
    ground = group.ground
    mm = m * m
    imaginary = ground == "real" and not any(
        isinstance(c, RealEntries) for c in constraints)
    ii, zero = t.i(), t.zero()
    rows: dict = {}     # (constraint index, row) -> {column: coefficient}
    for n, con in enumerate(constraints):
        for row, j, k, c, conj in con.linear_terms(m):
            c = t.lift(c)
            r = rows.setdefault((n, row), {})
            e = j * m + k
            r[e] = r.get(e, zero) + c
            if imaginary:
                # x[j][k] = a + i b: b gets i c, or -i c under conj
                r[mm + e] = r.get(mm + e, zero) + (-ii if conj else ii) * c
    rows = list(rows.values())
    if ground == "real":
        rows = [{col: part(c) for col, c in r.items()} for r in rows
                for part in (Scalar.real_part, Scalar.imag_part)]
    ncols = 2 * mm if imaginary else mm
    coeff = []
    for r in _distinct_up_to_sign(rows):
        dense = [zero] * ncols
        for col, c in r:
            dense[col] = c
        coeff.append(dense)
    mats = []
    for sol in kernel(Matrix(t, coeff, cols=ncols)):
        if imaginary:
            sol = [fma(a, ((ii, b),)) for a, b in zip(sol[:mm], sol[mm:])]
        mats.append(Matrix(t, [sol[i * m:(i + 1) * m] for i in range(m)],
                           cols=m))
    return LieAlgebraBasis(t, m, mats, ground)


def _distinct_up_to_sign(rows: Sequence[dict]) -> list:
    """The nonzero rows ({column: coefficient}) as sorted (column,
    coefficient) lists, each row that repeats an earlier one or its
    negative left out.  The reduced row echelon form depends only on the
    row space, so the kernel basis is the same as on every row."""
    seen = set()
    out = []
    for r in rows:
        row = sorted((col, c) for col, c in r.items() if c)
        if not row:
            continue
        key = tuple((col, tuple(sorted(c._terms.items()))) for col, c in row)
        # the sign that makes the first coefficient's first term positive
        re, im, _ = key[0][1][0][1]
        if re < 0 or (re == 0 and im < 0):
            key = tuple((col, tuple((mask, (-a, -b, d))
                                    for mask, (a, b, d) in terms))
                        for col, terms in key)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _null_combinations(t: Tower, m: int, gens: Sequence[Matrix],
                       columns: Sequence[list], real: bool) -> list:
    """A basis of the combinations sum c_k gens[k] that a linear map sends
    to zero, given the image ``columns[k]`` of each ``gens[k]``.  With
    ``real`` only real coefficients c_k count: every image entry is split
    into its real and imaginary part."""
    if real:
        columns = [real_coords(col) for col in columns]
    return [Matrix(t, [e[i * m:(i + 1) * m] for i in range(m)], cols=m)
            for e in null_combinations(t, [x.flatten() for x in gens],
                                       columns)]


class LieAlgebraBasis:
    """An exact basis of a matrix Lie algebra.

    ``ground == "complex"``: basis of a complex Lie algebra, membership
    means complex linear combination.  ``ground == "real"``: basis of a
    real Lie algebra, membership means real linear combination; coordinates
    are doubled (real and imaginary parts) so all span computations stay
    honest about which combinations are allowed.

    Each basis matrix is also kept as its nonzero entries, row by row:
    ``images`` and the brackets of ``verify_bracket_closure`` are formed
    from them.
    """

    def __init__(self, tower: Tower, ambient: int, matrices: Sequence[Matrix],
                 ground: str) -> None:
        if ground not in ("complex", "real"):
            raise ValueError("ground must be 'complex' or 'real'")
        self.tower = tower
        self.ambient = ambient
        self.matrices = list(matrices)
        self.ground = ground
        coord_len = 2 * ambient * ambient if ground == "real" \
            else ambient * ambient
        self._coords = Subspace.from_vectors(
            tower, coord_len, [self._flatten(x) for x in self.matrices])
        if self._coords.dim != len(self.matrices):
            raise ValueError("algebra basis is linearly dependent")
        # per matrix, per row: the (column, entry) pairs with entry != 0
        self._nonzeros = [[[(k, a) for k, a in enumerate(row) if a]
                           for row in x.to_lists()] for x in self.matrices]

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def _flatten(self, x: Matrix) -> list:
        flat = x.flatten()
        return flat if self.ground == "complex" else real_coords(flat)

    def contains(self, x: Matrix) -> bool:
        if x.rows != self.ambient or x.cols != self.ambient:
            return False
        return all(s.is_zero()
                   for s in self._coords.residual(self._flatten(x)))

    def images(self, v: Sequence[Scalar]) -> list:
        """[X v for each basis matrix X], from the nonzero entries."""
        if len(v) != self.ambient:
            raise ValueError("vector length %d does not match %d columns"
                             % (len(v), self.ambient))
        zero = self.tower.host(v).zero()
        return [[fma(zero, [(a, v[k]) for k, a in row]) if row else zero
                 for row in nz] for nz in self._nonzeros]

    def _bracket(self, i: int, j: int) -> Matrix:
        """[X_i, X_j] = X_i X_j - X_j X_i: entry (r, c) gathers a b over
        the nonzeros a = X_i[r, k], b = X_j[k, c], and -a b with the roles
        of X_i and X_j swapped."""
        zero = self.tower.zero()
        xi, xj = self._nonzeros[i], self._nonzeros[j]
        rows = []
        for ri, rj in zip(xi, xj):
            pairs: dict = {}
            for k, a in ri:
                for c, b in xj[k]:
                    pairs.setdefault(c, []).append((a, b))
            for k, a in rj:
                a = -a
                for c, b in xi[k]:
                    pairs.setdefault(c, []).append((a, b))
            rows.append([fma(zero, pairs[c]) if c in pairs else zero
                         for c in range(self.ambient)])
        return Matrix(self.tower, rows, cols=self.ambient)

    def verify_bracket_closure(self) -> None:
        """Certify that the span is closed under brackets: every
        [X_i, X_j], i < j, passes ``contains``.  Raises ValueError on the
        first bracket that does not."""
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if not self.contains(self._bracket(i, j)):
                    raise ValueError(
                        "bracket of basis elements %d, %d leaves the span"
                        % (i, j))

    def intersect(self, other: "LieAlgebraBasis") -> "LieAlgebraBasis":
        """The combinations of this basis that ``other`` contains.  On a
        real ground ``other``'s residuals are already real coordinates,
        so only real combinations solve."""
        if self.ground != other.ground or self.ambient != other.ambient:
            raise ValueError("algebras live in different settings")
        mats = _null_combinations(
            self.tower, self.ambient, self.matrices,
            [other._coords.residual(other._flatten(x))
             for x in self.matrices], False)
        return LieAlgebraBasis(self.tower, self.ambient, mats, self.ground)

    def same_span(self, other: "LieAlgebraBasis") -> bool:
        if self.ground != other.ground or self.ambient != other.ambient:
            return False
        return self._coords == other._coords

    def complexify(self) -> "LieAlgebraBasis":
        """Complex span of a real algebra (complex algebras pass through)."""
        if self.ground == "complex":
            return self
        t = self.tower
        cand = list(self.matrices) + [x.scale(t.i()) for x in self.matrices]
        # the pivot columns are the candidates that raise the complex rank
        _, pivots, _ = _rref(t, Matrix.from_cols(
            t, [x.flatten() for x in cand]).to_lists())
        keep = [cand[j] for j in pivots]
        return LieAlgebraBasis(t, self.ambient, keep, "complex")

    def __repr__(self) -> str:
        return "LieAlgebraBasis(dim=%d over %s)" % (self.dim, self.ground)


def _action_coords(alg: LieAlgebraBasis, space: Subspace) -> list:
    """The tangent map X -> X|S mod S at the point S = ``space``, one
    column per basis matrix X of ``alg``: the residuals of X b, for each
    echelon basis vector b, at the rows that are not pivots (the residuals
    vanish on the pivot rows)."""
    pivots = set(space.pivots())
    others = [r for r in range(space.ambient_dim) if r not in pivots]
    cols: list = [[] for _ in alg.matrices]
    for bv in space.basis_vectors():
        for col, xb in zip(cols, alg.images(bv)):
            red = space.residual(xb)
            col.extend(red[r] for r in others)
    return cols


def isotropy_subalgebra(alg: LieAlgebraBasis, stab) -> LieAlgebraBasis:
    """{X in alg : X(stab) is contained in stab}, the kernel of
    ``_action_coords``.

    ``stab`` is a Subspace, or a plain vector which is read as the line it
    spans.  The isotropy basis lives in the tower that hosts both the
    algebra and the point, since its matrices may need the point's roots.
    """
    if isinstance(stab, Subspace):
        space = stab
        t = alg.tower.host(x for v in space.basis_vectors() for x in v)
    else:
        t = alg.tower.host(stab)
        space = Subspace.from_vectors(t, alg.ambient, [list(stab)])
    mats = _null_combinations(t, alg.ambient, alg.matrices,
                              _action_coords(alg, space),
                              alg.ground == "real")
    return LieAlgebraBasis(t, alg.ambient, mats, alg.ground)


def check_onishchik_triple(sub: LieAlgebraBasis, amb: LieAlgebraBasis,
                           point) -> dict:
    """Certify a triple (g, ghat, point): g sits inside ghat, both act on
    the flag point with the same orbit codimension, and the isotropy of g
    is exactly the trace of the ambient isotropy, q = qhat intersect g.

    Returns a report dict; the "ok" entry is the conjunction of the three
    checks (inclusion, equal codimension, isotropy equality).
    """
    included = all(amb.contains(x) for x in sub.matrices)
    q_sub = isotropy_subalgebra(sub, point)
    q_amb = isotropy_subalgebra(amb, point)
    codim_sub = sub.dim - q_sub.dim
    codim_amb = amb.dim - q_amb.dim
    trace = q_amb.intersect(sub)
    isotropy_match = trace.same_span(q_sub)
    return {
        "included": included,
        "dim_sub": sub.dim,
        "dim_amb": amb.dim,
        "isotropy_dim_sub": q_sub.dim,
        "isotropy_dim_amb": q_amb.dim,
        "codim_sub": codim_sub,
        "codim_amb": codim_amb,
        "codims_equal": codim_sub == codim_amb,
        "isotropy_is_trace": isotropy_match,
        "ok": included and codim_sub == codim_amb and isotropy_match,
    }


# -- nilpotents -----------------------------------------------------------------


def outer(tower: Tower, u: Sequence[Scalar], v: Sequence[Scalar]) -> Matrix:
    """The rank-one matrix u v^T."""
    return Matrix(tower, [[a * b for b in v] for a in u], cols=len(v))


def nilpotent_orthogonal(form: FormSpec, u: Sequence[Scalar],
                         v: Sequence[Scalar]) -> Matrix:
    """X = (u v^T - v u^T) G for b-isotropic u, v with b(u, v) = 0.

    Then X^2 = 0 and X lies in the orthogonal algebra of G.  Column c of
    G is signs[c] e_{perm[c]}, so X[r][c] = signs[c] (u_r v_{perm[c]} -
    v_r u_{perm[c]}) is built entry by entry.
    """
    if form.kind != "symmetric":
        raise ValueError("orthogonal nilpotents need a symmetric form")
    if not (form.norm(u).is_zero() and form.norm(v).is_zero()
            and form.value(u, v).is_zero()):
        raise ValueError("need an isotropic orthogonal pair")
    cols = list(zip(form.perm, form.signs))
    x = Matrix(form.tower, [[ur * v[p] - vr * u[p] if s > 0
                             else vr * u[p] - ur * v[p] for p, s in cols]
                            for ur, vr in zip(u, v)], cols=len(cols))
    if not (x * x).is_zero():
        raise ValueError("internal: orthogonal nilpotent is not square-zero")
    return x
