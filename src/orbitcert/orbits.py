"""Infinitesimal orbit certificates.

Exact tangent-space dimensions of a Lie algebra acting at a projective
point or at a point of an (isotropic) Grassmannian, stratum
classification for each model geometry, and the sampled tangent-equality
check on the seven-dimensional quadric: at points of every stratum the
octonion derivation algebra and the full real orthogonal algebra span
tangent spaces of the same real dimension.

Real algebras act on complex manifolds here, so their tangent
dimensions are computed in doubled real coordinates throughout: the
rank of the real-coordinate matrix of the generators' images, modulo
the real span of the point data.  This avoids any complex-structure
bookkeeping; openness of the orbit is then the statement that the
tangent dimension reaches twice the complex manifold dimension.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence, Tuple

from .forms import FormSpec, StandardModel
from .groups import LieAlgebraBasis, _action_coords, nilpotent_orthogonal
from .linalg import (Matrix, Subspace, hermitian_signature, rank, real_rank,
                     vec_add, vec_scale)
from .octonions import octonion_product
from .rng import SplitMix64
from .scalars import Scalar
from .witnesses import build_group

__all__ = [
    "OrbitReport", "tangent_dim_projective", "tangent_dim_grassmann",
    "classify_point", "quadric_algebras", "spans_null_subalgebra",
    "verify_orbit_equality",
]

STRATA = ("positive", "negative", "null-real", "null-nonreal")


# the tangent data of one algebra at one sampled point: its stratum, its
# real tangent dimension and whether that fills the manifold
OrbitReport = namedtuple("OrbitReport", "point stratum tangent_dim open")


def vector_text(v: Sequence[Scalar]) -> str:
    return "[" + ", ".join(x.to_text() for x in v) + "]"


def tangent_dim_projective(alg: LieAlgebraBasis, z: Sequence) -> int:
    """Dimension (over the algebra's ground field) of the orbit tangent
    space at the projective point [z]: span{X z} modulo the line itself
    (modulo the real plane spanned by z and iz for real algebras), i.e.
    the rank of the X z together with the line, less the line's rank.
    The X z come from ``alg.images``, the real rank from ``real_rank``."""
    t = alg.tower.host(z)
    zz = [t.lift(x) for x in z]
    if all(x.is_zero() for x in zz):
        raise ValueError("the zero vector does not represent a point")
    cols = alg.images(zz) + [zz]
    if alg.ground == "real":
        return real_rank(t, cols + [vec_scale(t.i(), zz)]) - 2
    return rank(Matrix(t, cols)) - 1


def tangent_dim_grassmann(alg: LieAlgebraBasis, s: Subspace,
                          ambient_constraint: Optional[FormSpec] = None) \
        -> int:
    """Dimension of the image of the algebra in Hom(S, ambient/S), i.e.
    of the orbit tangent space at the Grassmannian point S: the rank of
    ``groups._action_coords`` over the algebra's ground (``real_rank`` on
    a real ground).

    When ``ambient_constraint`` is given the point must be isotropic for
    it; the algebra is assumed to preserve the form, so its tangent
    directions automatically stay inside the isotropic Grassmannian.
    """
    if ambient_constraint is not None and not \
            ambient_constraint.is_isotropic(s):
        raise ValueError("subspace is not isotropic for the ambient "
                         "constraint")
    t = alg.tower.host(x for v in s.basis_vectors() for x in v)
    cols = _action_coords(alg, s)
    if alg.ground == "real":
        return real_rank(t, cols)
    return rank(Matrix(t, cols))


def classify_point(model: StandardModel, point) -> str:
    """Exact stratum label of a point of the model's manifold.

    Projective and quadric models: a nonzero vector, classified by the
    sign of h(z, z) and, in the null case, by whether the line equals its
    conjugate line -> "positive" / "negative" / "null-real" /
    "null-nonreal".  Isotropic model: an isotropic n-plane, classified by
    the signature of hhat on it, with the open-orbit signature marked.
    """
    if model.case in ("projective-split", "projective-pq", "quadric7"):
        t = model.tower.host(point)
        z = [t.lift(x) for x in point]
        if all(x.is_zero() for x in z):
            raise ValueError("the zero vector does not represent a point")
        if model.case == "quadric7" and not model.b.norm(z).is_zero():
            raise ValueError("point is not on the quadric")
        hz = model.h.norm(z)
        if not hz.is_zero():
            return "positive" if hz.sign() > 0 else "negative"
        # the line is real iff z is proportional to conj(z): all minors
        # z_i conj(z)_j - z_j conj(z)_i vanish
        zc = [x.conj() for x in z]
        real_line = all((z[i] * zc[j] - z[j] * zc[i]).is_zero()
                        for i in range(len(z)) for j in range(i + 1, len(z)))
        return "null-real" if real_line else "null-nonreal"
    if model.case == "isotropic":
        if isinstance(point, Subspace):
            s = point
        else:
            vecs = [v for v in point]
            t = model.tower.host(x for v in vecs for x in v)
            s = Subspace.from_vectors(t, model.ambient_dim, vecs)
        if s.dim != model.n or not model.b.is_isotropic(s):
            raise ValueError("point is not an isotropic n-plane")
        pos, neg, zero = hermitian_signature(model.hhat.restrict(s))
        label = "signature(%d,%d)" % (pos, neg)
        if zero:
            label += "+null(%d)" % zero
        elif (pos, neg) == model.open_signature:
            label += "-open"
        return label
    raise ValueError("no classification for model case %r" % (model.case,))


def quadric_algebras(model: StandardModel) -> Tuple[LieAlgebraBasis,
                                                    LieAlgebraBasis]:
    """The quadric case's real pair (G0, Ghat0) from ``StandardModel.CASES``,
    built by ``build_group`` with their closure certified: split g2, the
    algebra of the group keeping the octonion cross product on e1..e7, and
    so(3,4), the real orthogonal algebra of the same Gram matrix."""
    if model.case != "quadric7":
        raise ValueError("needs the quadric model")
    roles = StandardModel.CASES["quadric7"].groups
    return (build_group(model, roles.G0).lie_algebra(),
            build_group(model, roles.Ghat0).lie_algebra())


# real isotropic orthogonal pairs for the Gram diag(1,1,1,-1,-1,-1,-1):
# each vector couples one positive and one negative coordinate
_QUADRIC_NILPOTENT_PAIRS = [
    ((0, 3), (1, 4)),
    ((0, 4), (2, 5)),
    ((1, 5), (2, 3)),
    ((2, 6), (0, 5)),
    ((1, 3), (2, 4)),
    ((0, 6), (1, 4)),
]


def _quadric_nilpotents(model: StandardModel) -> list:
    """Six real elements of so(3,4), each checked square-zero by
    nilpotent_orthogonal: the sampler relies on exp(w x) = 1 + w x."""
    t = model.tower
    out = []
    for (iu, ju), (iv, jv) in _QUADRIC_NILPOTENT_PAIRS:
        u = [t.zero()] * 7
        u[iu] = t.one()
        u[ju] = t.one()
        v = [t.zero()] * 7
        v[iv] = t.one()
        v[jv] = t.one()
        out.append(nilpotent_orthogonal(model.b, u, v))
    return out


def spans_null_subalgebra(model: StandardModel, z: Sequence) -> bool:
    """True when Re z * Im z = 0 in the split octonions (the quadric
    coordinates being e1..e7), i.e. when Re z and Im z span a null
    subalgebra.  The condition does not depend on the representative of
    the line [z]; on the null-nonreal stratum it cuts out a smaller split
    G2 orbit inside the SO(3,4) orbit."""
    t = model.tower.host(z)
    zz = [t.lift(x) for x in z]
    prod = octonion_product(t, [t.zero()] + [x.real_part() for x in zz],
                            [t.zero()] + [x.imag_part() for x in zz])
    return all(c.is_zero() for c in prod)


def verify_orbit_equality(model: StandardModel, samples: int, seed: int,
                          bound: int = 5,
                          algebras: Optional[tuple] = None) -> list:
    """Sampled tangent-equality check on the quadric.

    For each of the four strata, moves the stratum representative by
    ``samples`` random group elements g = exp(w1 x1) ... exp(w6 x6), the
    x being six fixed real square-zero elements of so(3,4) and the
    weights integers in [-bound, bound] (at least 1), and certifies that
    the derivation algebra and the full real orthogonal algebra have the
    same real tangent dimension at the moved point.  g is never formed:
    since x^2 = 0, exp(w x) p = p + w x p exactly, so the exponentials
    are applied to the vector one at a time, right to left, which gives
    the point g p.  Returns one OrbitReport pair per sample, g2's first,
    both holding the moved point's text.  This is the infinitesimal part
    of orbit equality; it does not claim global transitivity.

    Equality is certified at generic points of each stratum.  The
    null-nonreal stratum holds one smaller split-G2 orbit: the lines
    whose real and imaginary parts span a null subalgebra of the split
    octonions (:func:`spans_null_subalgebra`), where g2 has real tangent
    dimension 7 against 9 for so(3,4).  A candidate on it is rejected and
    redrawn, as is a candidate that left its stratum.
    """
    if model.case != "quadric7":
        raise ValueError("needs the quadric model")
    if samples < 1:
        raise ValueError("need at least one sample")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    g2, so34 = algebras if algebras is not None else quadric_algebras(model)
    nil = _quadric_nilpotents(model)
    t = model.tower
    rng = SplitMix64(seed)
    ambient_real = 2 * model.flag_dim_complex
    pairs = []
    for stratum in STRATA:
        rep = model.stratum_representatives[stratum]
        for _ in range(samples):
            point = None
            for _attempt in range(20):
                ws = [rng.randint(-bound, bound) for _ in nil]
                # the rightmost factor of g acts first
                cand = list(rep)
                for x, w in reversed(list(zip(nil, ws))):
                    if w:
                        cand = vec_add(cand, vec_scale(t.scalar(w),
                                                       x.apply(cand)))
                if classify_point(model, cand) == stratum and not (
                        stratum == "null-nonreal"
                        and spans_null_subalgebra(model, cand)):
                    point = cand
                    break
            if point is None:
                raise RuntimeError("sampling failed to stay in stratum %r "
                                   "after 20 attempts" % (stratum,))
            text = vector_text(point)
            pairs.append(tuple(
                OrbitReport(text, stratum, d, d == ambient_real)
                for d in (tangent_dim_projective(g2, point),
                          tangent_dim_projective(so34, point))))
    return pairs
