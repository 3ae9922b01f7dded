"""Constructive transitivity witnesses.

Every operation here returns a ``Witness``: a concrete matrix, the
constraint group it is claimed to live in, and the mapping claim it was
built for.  ``Witness.verify`` re-checks everything from scratch using
only exact linear algebra — membership in the group and the claim itself
— so a verified witness does not depend on any construction internals.
It is also the one certificate a builder runs: each builder ends in
``_certified``, which calls it on the element it assembled and raises
``WitnessVerificationError`` unless it holds.  A builder re-proves none
of it beforehand, nor what a step it calls checks itself (the Gram
comparison of ``witt_transport``, the sign check of ``adjoin_sqrt``):
the checks left inside the builders are the ones a step needs in order
to go on.  ``witness_from_json`` reads a file in one tower, built from
the longest of its three ``radicands`` lists, which the other two start.

Reflections are applied to vectors as rank-one updates,
v -> v - (2 f(v,u)/f(u,u)) u (``reflect``); no reflection matrix is
formed.  The Witt transports run on the model's own forms at full length
and move vectors, not matrices: the normal-form builders carry their
element's columns through each transport with the plane, and apply the
final sign flip, the interleave and S g S^-1 to rows and entries.  The
one matrix product a builder makes is ``Witness.verify``'s.

Square-root discipline: reflections never extend the scalar tower; the
only square roots adjoined are h-norm normalizations (one per plane in
the symplectic line transport, one per placed pair in the real isotropic
normal form).  Not all of them are forced: on the projective-split model
every phi-plane after the first is h-hyperbolic, so its norm could be
matched without a root.  Each construction works on
``model.clone()``, the model rebuilt over a clone of its tower: the
forms, normal forms and group it uses live in the tower the witness
grows, and repeated constructions do not pile radicals onto the
caller's tower.

Errors are split deliberately:

* ``ValueError`` — malformed input (wrong dimension, not isotropic, Gram
  mismatch, ...).
* ``NotInDomainError`` — well-formed input that provably admits no
  witness of the requested kind (null or sign-mismatched lines, a plane
  of non-open signature, the wrong connected family, or a boundary
  configuration the algorithm excludes).  These are legitimate
  classification outcomes.
* ``WitnessVerificationError`` — an internal consistency check failed;
  this always indicates a bug, never bad input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .forms import FormSpec, StandardModel
from .groups import (CommutesWithConj, DetOne, FixesVector, GroupSpec,
                     PreservesForm, RealEntries)
from .linalg import (Matrix, Subspace, column_space_equal,
                     congruence_diagonalize, hermitian_signature,
                     null_combinations, rank, vec_add, vec_scale, vec_sub)
from .octonions import PreservesCrossProduct
from .scalars import Scalar, Tower, fma

__all__ = [
    "NotInDomainError", "WitnessVerificationError", "Witness",
    "reflect", "witt_transport", "transport_positive_line_sp",
    "isotropic_normal_form_complex", "isotropic_normal_form_real",
    "build_group", "witness_from_json",
]


class NotInDomainError(ValueError):
    """Input is valid but no witness of the requested kind can exist."""


class WitnessVerificationError(RuntimeError):
    """An internal re-check failed; indicates a bug in the construction."""


# -- witness container -----------------------------------------------------------


class Witness:
    """A group element together with its verified mapping claim."""

    def __init__(self, group: GroupSpec, element: Matrix, claim_kind: str,
                 source: Matrix, target: Matrix, model_info: dict) -> None:
        if claim_kind not in ("maps_line", "maps_subspace"):
            raise ValueError("unknown claim kind %r" % (claim_kind,))
        _check_claim(group.dim, element, claim_kind, source, target)
        self.group = group
        self.element = element
        self.claim_kind = claim_kind
        self.source = source          # columns span the source object
        self.target = target
        self.model_info = dict(model_info)
        self.verified = False

    def verify(self) -> bool:
        self.verified = (self.group.contains(self.element)
                         and column_space_equal(self.element * self.source,
                                                self.target))
        return self.verified

    def to_json(self) -> dict:
        return {
            "schema": "witness/1",
            "model": self.model_info,
            "group": self.group.name,
            "claim": {
                "kind": self.claim_kind,
                "source": self.source.to_json(),
                "target": self.target.to_json(),
            },
            "element": self.element.to_json(),
        }


def _check_claim(dim: int, element: Matrix, claim_kind: str,
                 source: Matrix, target: Matrix) -> None:
    """Reject a claim that is mis-shaped or vacuous: it must live in the
    model's ambient space, a line claim takes one nonzero column, and a
    subspace claim maps a basis of a proper nonzero subspace to a basis
    (every element maps 0 to 0 and the whole space onto itself)."""
    _check_element(dim, element)
    for name, mat in (("source", source), ("target", target)):
        if mat.rows != dim:
            raise ValueError("claim %s has %d rows, the element %d"
                             % (name, mat.rows, dim))
        if claim_kind == "maps_subspace":
            if not 0 < mat.cols < dim:
                raise ValueError("subspace claim %s has %d columns, "
                                 "outside 1..%d" % (name, mat.cols, dim - 1))
            if rank(mat) != mat.cols:
                raise ValueError("claim %s columns are not independent"
                                 % (name,))
        elif mat.cols != 1 or mat.is_zero():
            raise ValueError("line claim needs one nonzero %s column"
                             % (name,))
    if source.cols != target.cols:
        raise ValueError("claim source and target differ in column count")


def _check_element(dim: int, element: Matrix) -> None:
    if element.rows != dim or element.cols != dim:
        raise ValueError("element is %dx%d, the model needs %dx%d"
                         % (element.rows, element.cols, dim, dim))


def _model_dim(info: dict) -> int:
    """Ambient dimension of the model ``info`` names, worked out without
    building it, so a file cannot make the verifier build a model of any
    size it states; ``StandardModel.from_info`` builds the same one."""
    case, args = StandardModel.info_args(info)
    if case == "quadric7":
        return 7
    # C^2n with n = p + q for the projective models, 2n = p + q + 1 else
    return 2 * sum(args) if case.startswith("projective") else sum(args) + 1


# every group name a case carries, as constraint tags: a form of the model
# by name, "B/H" (commute with the conjugation B^-1 H of the model's
# bilinear form B and hermitian form H), "det", "cross", "real", or "fix"
# (fix the last basis vector).  ``contains`` stops at the first tag that
# fails, so the O(m^2) checks come first, then the forms, then det.
GROUP_CONSTRAINTS = {
    "Sp2nC": ("omega",), "SL2nC": ("det",),
    "Sp2nR": ("omega/h", "omega"), "SU(n,n)": ("h", "det"),
    "Sp(2p,2q)": ("omega/h", "omega"), "SU(2p,2q)": ("h", "det"),
    "G2C": ("b", "cross"), "SO7C": ("b", "det"),
    "G2split": ("real", "b", "cross"), "SO(3,4)": ("real", "b", "det"),
    "SO2n-1C": ("fix", "b", "det"), "SO2nC": ("b", "det"),
    "SO(p,q)": ("b/hhat", "fix", "b", "det"),
    "SO(hhat)": ("b/hhat", "b", "det"),
}


def _constraint(model: StandardModel, tag: str):
    """The constraint a ``GROUP_CONSTRAINTS`` tag stands for on ``model``."""
    t, m = model.tower, model.ambient_dim
    if tag == "fix":
        return FixesVector([t.zero()] * (m - 1) + [t.one()])
    plain = {"det": DetOne, "cross": PreservesCrossProduct,
             "real": RealEntries}
    if tag in plain:
        return plain[tag]()
    if "/" in tag:
        b, h = tag.split("/")
        return CommutesWithConj(getattr(model, b), getattr(model, h))
    return PreservesForm(getattr(model, tag))


def build_group(model: StandardModel, name: str) -> GroupSpec:
    """The named constraint group on ``model``: one of the group names its
    case carries in ``StandardModel.CASES``, with the constraints
    ``GROUP_CONSTRAINTS`` lists for it."""
    groups = StandardModel.CASES[model.case].groups
    if name not in groups:
        raise ValueError("the %s model carries the groups %s, not %r"
                         % (model.case, ", ".join(groups), name))
    return GroupSpec(model.tower, model.ambient_dim,
                     [_constraint(model, tag)
                      for tag in GROUP_CONSTRAINTS[name]], name)


def witness_from_json(obj: dict) -> Witness:
    """The witness a ``Witness.to_json`` document states, in the tower
    of its longest ``radicands`` list."""
    if not isinstance(obj, dict) or obj.get("schema") != "witness/1":
        raise ValueError("not a witness document")
    claim = obj["claim"]
    docs = (obj["element"], claim["source"], claim["target"])
    tower = Tower.deserialize(max((d["radicands"] for d in docs), key=len))
    element, source, target = (Matrix.from_json(d, tower) for d in docs)
    _check_element(_model_dim(obj["model"]), element)
    model = StandardModel.from_info(tower, obj["model"])
    group = build_group(model, obj["group"])
    return Witness(group, element, claim["kind"], source, target, model.info)


def _certified(mt: StandardModel, group: str, element: Matrix, kind: str,
               source: Matrix, target: Matrix) -> Witness:
    """The witness that ``element`` of the named group on ``mt`` maps
    ``source`` onto ``target``: a builder's one certificate."""
    w = Witness(build_group(mt, group), element, kind, source, target,
                mt.info)
    if not w.verify():
        raise WitnessVerificationError("%s witness failed verification"
                                       % (group,))
    return w


# -- reflections and Witt transport ----------------------------------------------


def reflect(f: FormSpec, u: Sequence[Scalar], vectors) -> list:
    """Each v - (2 f(v,u)/f(u,u)) u: the f-orthogonal reflection in ``u``
    applied to the vectors as a rank-one update, with no matrix formed."""
    if f.kind != "symmetric":
        raise ValueError("reflections need a symmetric form")
    gu = f._against(u)
    zero = f.tower.zero()
    q = fma(zero, zip(u, gu))
    if q.is_zero():
        raise ValueError("reflection vector is isotropic")
    factor = -f.tower.scalar(2) / q
    out = []
    for v in vectors:
        c = factor * fma(zero, zip(v, gu))
        out.append([fma(x, ((c, y),)) for x, y in zip(v, u)] if c
                   else list(v))
    return out


def witt_transport(f: FormSpec, frame_a: Sequence[Sequence[Scalar]],
                   frame_b: Sequence[Sequence[Scalar]],
                   vectors: Sequence[Sequence[Scalar]]) -> list:
    """``vectors`` moved by an f-isometry taking frame_a to frame_b
    entrywise.

    Needs Gram(frame_a) = Gram(frame_b) exactly.  Built as a product of at
    most 2 len + 2 reflections, placing one vector at a time: the
    reflection in a_k - b_k fixes already-placed vectors automatically; if
    that difference is isotropic, the pair of reflections in a_k + b_k and
    b_k is used instead (valid here because every placed target is
    orthogonal to the pivot pair in all our call sites; re-checked).  Each
    reflection is applied to the vectors and to the frame's current images
    together, as a rank-one update; no matrix is formed.  No square roots
    are ever taken.
    """
    t = f.tower
    k = len(frame_a)
    if len(frame_b) != k:
        raise ValueError("frames differ in length")
    fa = [list(v) for v in frame_a]
    fb = [list(v) for v in frame_b]
    vs = [list(v) for v in vectors]
    for v in fa + fb + vs:
        if len(v) != f.dim:
            raise ValueError("vector has wrong length")
    if k and (rank(Matrix.from_cols(t, fa)) != k
              or rank(Matrix.from_cols(t, fb)) != k):
        raise ValueError("frames must be linearly independent")
    ga, gb = f.gram_of(fa), f.gram_of(fb)
    if not ga == gb:
        raise ValueError("frame Gram matrices differ at (%d, %d)" % next(
            (i, j) for i in range(k) for j in range(k)
            if not ga[i, j] == gb[i, j]))
    # the vectors to move, then the frame's current images
    n = len(vs)
    cols = vs + fa
    for idx in range(k):
        a, b = cols[n + idx], fb[idx]
        if all((x - y).is_zero() for x, y in zip(a, b)):
            continue
        d = vec_sub(a, b)
        if not f.norm(d).is_zero():
            cols = reflect(f, d, cols)
        else:
            d2 = vec_add(a, b)
            if f.norm(d2).is_zero():
                raise ValueError(
                    "cannot transport an isotropic frame vector by "
                    "reflections")
            for j in range(idx):
                if not (f.value(fb[j], a).is_zero()
                        and f.value(fb[j], b).is_zero()):
                    raise ValueError(
                        "isotropic pivot with non-orthogonal placed "
                        "vectors is unsupported")
            cols = reflect(f, b, reflect(f, d2, cols))
        if any(not (x - y).is_zero() for x, y in zip(cols[n + idx], b)):
            raise WitnessVerificationError("reflection step failed to place "
                                           "frame vector %d" % idx)
    return cols[:n]


def _vector_with_sign(h: FormSpec, space: Subspace,
                      sign: Optional[int]) -> Optional[list]:
    """A vector in the space whose (real) h-norm has the given sign, or
    any nonzero norm when sign is None.  Falls back to exact congruence
    diagonalization of the restricted Gram, which is complete."""
    basis = space.basis_vectors()
    def _ok(v):
        q = h.norm(v)
        if q.is_zero():
            return False
        return sign is None or q.sign() == sign
    for v in basis:
        if _ok(v):
            return v
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = vec_add(basis[i], basis[j])
            if _ok(w):
                return w
    d, s = congruence_diagonalize(h.restrict(space))
    for idx, val in enumerate(d):
        if val.is_zero():
            continue
        if sign is None or val.sign() == sign:
            return space.matrix.apply(s.col(idx))
    return None


# -- symplectic line transport ----------------------------------------------------


def transport_positive_line_sp(model: StandardModel, line_src, line_dst) \
        -> Witness:
    """An element of the real symplectic-unitary group taking one
    h-definite line to another of the same sign.

    Decomposes the space into phi-stable planes span{z_i, phi(z_i)} seeded
    at the given lines, matches the second decomposition's norm signs to
    the first, rescales by the square roots of the norm ratios (the only
    tower extensions), and maps frame to frame.
    """
    if model.case not in ("projective-split", "projective-pq"):
        raise ValueError("line transport needs a projective model")
    mt = model.clone()
    t, m, h = mt.tower, mt.ambient_dim, mt.h
    z = [t.lift(x) for x in line_src]
    zt = [t.lift(x) for x in line_dst]
    if all(x.is_zero() for x in z) or all(x.is_zero() for x in zt):
        raise ValueError("a line representative is zero")
    a0, b0 = h.norm(z), h.norm(zt)
    if a0.is_zero() or b0.is_zero():
        raise NotInDomainError("null lines are not in the definite orbits")
    if a0.sign() != b0.sign():
        raise NotInDomainError(
            "lines lie in different open orbits (opposite h-norm signs)")

    whole = Subspace.from_vectors(t, m, Matrix.identity(t, m).to_lists())

    def decompose(seed, prescribed):
        space = whole
        out = []
        for step in range(mt.n):
            if step == 0:
                u = seed
            else:
                want = prescribed[step] if prescribed is not None else None
                u = _vector_with_sign(h, space, want)
                if u is None:
                    raise WitnessVerificationError(
                        "plane decomposition stalled at step %d" % step)
            alpha = h.norm(u)
            # u, phi(u) span a plane: h(u, phi u) = -u^T (EJE) u = 0, EJE
            # being antisymmetric, while h(u) != 0
            phi_u = mt.phi(u)
            out.append((u, phi_u, alpha))
            space = h.perp([u, phi_u], space)
        if space.dim != 0:
            raise WitnessVerificationError("phi-plane decomposition is not "
                                           "exhaustive")
        return out

    side_a = decompose(z, None)
    signs = [alpha.sign() for (_, _, alpha) in side_a]
    side_b = decompose(zt, signs)
    frame_a, frame_b = [], []
    for (ua, pa, aa), (ub, pb, ab) in zip(side_a, side_b):
        c = t.adjoin_sqrt(aa / ab)
        frame_a.extend([ua, pa])
        frame_b.extend([vec_scale(c, ub), vec_scale(c, pb)])
    element = (Matrix.from_cols(t, frame_b)
               * Matrix.from_cols(t, frame_a).inverse())
    return _certified(mt, StandardModel.CASES[mt.case].groups.G0, element,
                      "maps_line", Matrix.from_cols(t, [z]),
                      Matrix.from_cols(t, [zt]))


# -- isotropic normal forms --------------------------------------------------------


def _on_coordinates(t: Tower, m: int, vectors: Sequence[Sequence[Scalar]],
                    idx: Sequence[int]) -> Subspace:
    """span(vectors) meet span{e_j : j in idx}, for linearly independent
    ``vectors``: their null combinations, each vector's image being its
    entries at the other coordinates."""
    keep = set(idx)
    images = [[x for r, x in enumerate(v) if r not in keep] for v in vectors]
    return Subspace.from_vectors(t, m, null_combinations(t, vectors, images))


def _isotropic_input(model: StandardModel, w_hat) -> tuple:
    """``model.clone()`` and the plane ``w_hat`` as a subspace of it, once
    the model is isotropic and the plane a b-isotropic n-plane."""
    if model.case != "isotropic":
        raise ValueError("needs the isotropic model")
    mt = model.clone()
    if isinstance(w_hat, Subspace):
        w_hat = w_hat.basis_vectors()
    w = Subspace.from_vectors(mt.tower, mt.ambient_dim, w_hat)
    if w.dim != mt.n:
        raise ValueError("plane has dimension %d, expected %d"
                         % (w.dim, mt.n))
    if not mt.b.is_isotropic(w):
        raise ValueError("plane is not b-isotropic")
    return mt, w


def _check_family(w: Subspace, nf: Subspace, n: int) -> None:
    """Refuse an isotropic n-plane ``w`` of the other connected family
    than the normal form ``nf``: no element fixing the last basis vector
    maps one family to the other."""
    if (w.intersect(nf).dim - n) % 2 != 0:
        raise NotInDomainError(
            "plane lies in the other connected family of isotropic "
            "n-planes; no witness fixing the last vector exists")


def isotropic_normal_form_complex(model: StandardModel, w_hat) -> Witness:
    """A special-orthogonal element fixing the last basis vector and
    carrying the given isotropic n-plane to span{e_k + i e_{n+k}}.

    Recursive peeling: split off the direction leaving the hyperplane V,
    align its V-part with the last free V-coordinate by reflections, and
    recurse on two fewer coordinates.  Planes in the other connected
    family, or meeting V in excess dimension at any level, are rejected
    with ``NotInDomainError`` (no such witness exists / boundary case).
    """
    mt, w0 = _isotropic_input(model, w_hat)
    t, n, m = mt.tower, mt.n, mt.ambient_dim
    nf = mt.normal_form_complex()
    _check_family(w0, nf, n)
    # the element's columns, moved by each level's transport with the plane
    cols = Matrix.identity(t, m).col_list()
    cur = w0
    for level in range(n, 1, -1):
        m2 = 2 * level
        last = m2 - 1
        basis = cur.basis_vectors()
        cand = [v for v in basis if not v[last].is_zero()]
        if not cand:
            raise NotInDomainError(
                "boundary configuration: the plane meets the fixed "
                "hyperplane in excess dimension at level %d" % level)
        u = vec_scale(t.i() / cand[0][last], cand[0])
        v = list(u)
        v[last] = t.zero()
        target = [t.zero()] * m
        target[m2 - 2] = t.one()
        # v and the target lie in span(e_1..e_{m2-1}), so the transport
        # acts as the identity on the other coordinates
        moved = witt_transport(mt.b, [v], [target], cols + basis)
        cols = moved[:m]
        cur = _on_coordinates(t, m, moved[m:], range(m2 - 2))
        if cur.dim != level - 1:
            raise WitnessVerificationError(
                "peeled plane has wrong dimension at level %d" % level)
    # bottom line in span{e1, e2} must be e1 +- i e2
    w = cur.basis_vectors()[0]
    if w[0].is_zero():
        raise WitnessVerificationError("bottom line misses the first "
                                       "coordinate")
    ratio = w[1] / w[0]
    ii = t.i()
    rows = [list(r) for r in zip(*cols)]
    if ratio == -ii:
        # negating coordinate 2 turns e1 - i e2 into e1 + i e2
        rows[1] = [-x for x in rows[1]]
    elif ratio != ii:
        raise WitnessVerificationError("bottom line is not isotropic")
    # interleave: e_{2k-1} -> e_k, e_{2k} -> e_{n+k} (1-based)
    g = Matrix(t, rows[0::2] + rows[1::2], cols=m)
    return _certified(mt, "SO2n-1C", g, "maps_subspace", w0.matrix,
                      nf.matrix)


def isotropic_normal_form_real(model: StandardModel, w_hat) -> Witness:
    """An element of the real form (fixing the last basis vector) carrying
    an open-orbit isotropic n-plane to the real normal form.

    Works in the signature presentation, where the group consists of real
    matrices: the part of the plane inside the fixed hyperplane is placed
    pair by pair with real Witt transports, the leftover line then sits on
    the last two coordinates automatically, and a single coordinate flip
    corrects its sign when the Witt product has determinant -1; the final
    determinant is then +1 by connected-family rigidity.  Non-open
    signature, h-degenerate boundary configurations and the wrong family
    are rejected as out of domain.
    """
    mt, w_std = _isotropic_input(model, w_hat)
    t, n, m = mt.tower, mt.n, mt.ambient_dim
    b_sig, h_sig = mt.b_sig, mt.hhat
    sig = hermitian_signature(mt.hhat.restrict(w_std))
    if sig[2] > 0:
        raise NotInDomainError("boundary configuration: h degenerate on "
                               "the plane")
    if (sig[0], sig[1]) != mt.open_signature:
        raise NotInDomainError(
            "plane is not in the open orbit: h-signature %r, open orbit "
            "needs %r" % ((sig[0], sig[1]), mt.open_signature))
    # move to the signature presentation; S is diagonal with entries 1 and
    # i, so S^-1 = conj(S)
    s_mat = mt.sig_change
    s_inv = s_mat.conj()
    w_sig = [s_inv.apply(bv) for bv in w_std.basis_vectors()]
    nf_std = mt.normal_form_real()
    _check_family(w_std, nf_std, n)
    pairs = mt.normal_form_real_pairs()
    eps = mt.eps
    expected = (mt.open_signature[0] - (1 if eps > 0 else 0),
                mt.open_signature[1] - (1 if eps < 0 else 0))
    w_v = _on_coordinates(t, m, w_sig, range(m - 1))
    if w_v.dim != n - 1:
        raise WitnessVerificationError(
            "plane meets the fixed hyperplane in dimension %d" % w_v.dim)
    sig_v = hermitian_signature(h_sig.restrict(w_v))
    if sig_v[2] > 0 or (sig_v[0], sig_v[1]) != expected:
        raise NotInDomainError(
            "boundary configuration: h-signature on the hyperplane part "
            "is %r, the procedure needs %r" % (sig_v, expected))
    # the element's columns, moved by each pair's transport with the plane
    # and the part of it still to place
    cols = Matrix.identity(t, m).col_list()
    cur = w_v
    for (a_idx, b_idx) in pairs[:-1]:
        csign = mt.hhat.signs[a_idx]
        u = _vector_with_sign(h_sig, cur, csign)
        if u is None:
            raise WitnessVerificationError(
                "no vector of the required sign; bookkeeping broken")
        x = [c.real_part() for c in u]
        y = [c.imag_part() for c in u]
        # u's h-norm has the sign csign, so this is |h(u)|/2
        root = t.adjoin_sqrt(h_sig.norm(u) * Fraction(csign, 2))
        ta, tb = ([root if j == c else t.zero() for j in range(m)]
                  for c in (a_idx, b_idx))
        # x and y vanish on the last coordinate and on every placed pair
        # (b- and h-orthogonality to its e_a + i e_b), so the transport
        # acts as the identity there; the h-complement of u inside the
        # current plane is what is left to place
        rest = h_sig.perp([u], cur).basis_vectors()
        moved = witt_transport(b_sig, [x, y], [ta, tb], cols + w_sig + rest)
        cols, w_sig = moved[:m], moved[m:m + n]
        prev_dim = cur.dim
        cur = Subspace.from_vectors(t, m, moved[m + n:])
        if cur.dim != prev_dim - 1:
            raise WitnessVerificationError("complement has wrong dimension")
    # leftover line must now sit on the final coordinate pair
    a_fin, b_fin = pairs[-1]
    leftover = _on_coordinates(t, m, w_sig, [a_fin, b_fin])
    if leftover.dim != 1:
        raise WitnessVerificationError("leftover line is displaced")
    w = leftover.basis_vectors()[0]
    if w[b_fin].is_zero():
        raise WitnessVerificationError("leftover line misses the last "
                                       "coordinate")
    w = vec_scale(t.i() / w[b_fin], w)
    beta = w[a_fin]
    if not (beta.is_real() and (beta * beta).is_one()):
        raise WitnessVerificationError("leftover line is not isotropic")
    rows = [list(r) for r in zip(*cols)]
    if beta.sign() < 0:
        # the Witt product may have determinant -1, in which case the
        # leftover lands on the conjugate line; negating the paired real
        # coordinate fixes both at once (it commutes with the diagonal
        # Gram, fixes the last vector and all placed pairs)
        rows[a_fin] = [-x for x in rows[a_fin]]
    # S g S^-1, entry by entry
    g_std = Matrix(t, [[x * (s_mat[r, r] * s_inv[c, c])
                        for c, x in enumerate(row)]
                       for r, row in enumerate(rows)], cols=m)
    return _certified(mt, "SO(p,q)", g_std, "maps_subspace", w_std.matrix,
                      nf_std.matrix)
