"""Bilinear and sesquilinear forms, and the standard geometric models.

Conventions.  A form with Gram matrix G evaluates as

* symmetric / antisymmetric: value(z, w) = z^T G w  (bilinear),
* hermitian: value(z, w) = z^T G conj(w)  (linear in z, conjugate-linear
  in w, so Gram diagonals are the h-norms of the basis vectors).

value(z, w) and value(w, z) vanish together for every kind (they differ
by a sign or by ``conj``), so ``perp``, the one complement routine, may
read either slot.

Every Gram is a signed permutation, with one entry +-1 in each row and
column (J, diag(+-1), the identity and the octonion norm all are).
``FormSpec`` reads it as a permutation and signs, refuses any other
Gram, and applies it by indexing and sign flips: ``value``, ``gram_of``
and ``perp`` form no matrix product and multiply by no Gram entry.

The model constructors package the three geometries:

* ``projective_split(n)`` / ``projective_signature(p, q)``: C^{2n} with the
  symplectic form omega(z, w) = z^T J w, the symmetric form b(z, w) = z^T w,
  the hermitian form of Gram E (split: diag(+1^n, -1^n); signature:
  diag(E_pq, E_pq)), and the antilinear map phi(z) = -J E conj(z).
* ``quadric7()``: C^7 with b and h of common Gram diag(1,1,1,-1,-1,-1,-1),
  the ambient of the 5-dimensional quadric.
* ``isotropic(p, q)``: C^{2n}, p + q = 2n - 1, carrying the symmetric form
  b(z, w) = z^T w, the hermitian form hhat of Gram diag(E_pq, eps) with
  eps = -1 for p even and +1 for p odd, the distinguished last basis
  vector, and a documented diagonal change of basis to the "signature
  presentation" in which both Grams coincide and the relevant real group
  consists of literally real matrices.

``StandardModel.CASES`` is the one table of case rules.  For each case
it names the constructor, the integer parameters it takes after the tower
with the values a campaign uses when none is given, and the case's
Onishchik quadruple, the groups ``build_group`` builds on its model by
role: G inside Ghat, both transitive on Ghat's flag manifold Z, and their
real forms G0 and Ghat0 (the source paper's theorem: Ghat0 = Aut(D)^0 for
a flag domain D in Z).  The constructors are the only range checks.  Each
model records its name in ``info``, the dict witness files carry: its
``case`` plus that case's parameters.
``StandardModel.from_info`` builds the model a name stands for, and
``model.clone()`` rebuilds a model over a clone of its tower.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional, Sequence

from .linalg import Matrix, Subspace, null_combinations
from .scalars import Scalar, Tower, fma

__all__ = ["FormSpec", "StandardModel"]

KINDS = ("symmetric", "antisymmetric", "hermitian")

# value(w, z) from value(z, w), by kind: also what G[b, a] is to G[a, b]
_MIRROR = {"symmetric": lambda x: x, "antisymmetric": Scalar.__neg__,
           "hermitian": Scalar.conj}


class FormSpec:
    """A nondegenerate form given by kind and a signed-permutation Gram:
    one entry +-1 in each row and column, G[a, perm[a]] = signs[a].

    ``__init__`` reads ``perm`` and ``signs`` off the Gram and refuses any
    other Gram.  It first reads one nonzero entry per row, then checks
    the kind in O(m) as G[perm[a], a] = mirror(G[a, perm[a]])
    (``_MIRROR``), which makes ``perm`` an involution and so a
    permutation, refuses a hermitian diagonal entry that is not real, and
    refuses any fixed point of an antisymmetric form; last it refuses an
    entry other than +-1.  Such a Gram is nondegenerate by its shape."""

    __slots__ = ("kind", "gram", "name", "perm", "signs")

    def __init__(self, kind: str, gram: Matrix, name: str) -> None:
        if kind not in KINDS:
            raise ValueError("unknown form kind %r" % (kind,))
        if gram.rows != gram.cols:
            raise ValueError("Gram matrix must be square")
        perm, entries = [], []
        for a, row in enumerate(gram.to_lists()):
            nonzero = [(b, x) for b, x in enumerate(row) if x]
            if len(nonzero) != 1:
                raise ValueError("Gram row %d has %d nonzero entries, a "
                                 "monomial Gram one" % (a, len(nonzero)))
            perm.append(nonzero[0][0])
            entries.append(nonzero[0][1])
        mirror = _MIRROR[kind]
        for a, b in enumerate(perm):
            if perm[b] != a or entries[b] != mirror(entries[a]):
                raise ValueError("Gram is not %s: entry (%d, %d) does not "
                                 "mirror (%d, %d)" % (kind, b, a, a, b))
        signs = [1 if e.is_one() else -1 if (-e).is_one() else 0
                 for e in entries]
        if 0 in signs:
            a = signs.index(0)
            raise ValueError("Gram entry (%d, %d) is not 1 or -1"
                             % (a, perm[a]))
        self.kind = kind
        self.gram = gram
        self.name = name
        self.perm = perm
        self.signs = signs

    @property
    def dim(self) -> int:
        return self.gram.rows

    @property
    def tower(self) -> Tower:
        return self.gram.tower

    def value(self, z: Sequence[Scalar], w: Sequence[Scalar]) -> Scalar:
        """The form on (z, w).  The vectors may live in a deeper tower than
        the Gram matrix; the value then lives in theirs."""
        if len(z) != self.dim:
            raise ValueError("vector length does not match form dimension")
        return fma(self.tower.zero(), zip(z, self._against(w)))

    def _against(self, w: Sequence[Scalar]) -> list:
        """G w (G conj(w) if hermitian), read off ``perm`` and ``signs``:
        value(z, w) is z . _against(w)."""
        if len(w) != self.dim:
            raise ValueError("vector length does not match form dimension")
        if self.kind == "hermitian":
            w = [x.conj() for x in w]
        return [w[p] if s > 0 else -w[p]
                for p, s in zip(self.perm, self.signs)]

    def norm(self, z: Sequence[Scalar]) -> Scalar:
        return self.value(z, z)

    def gram_of(self, vectors: Sequence[Sequence[Scalar]]) -> Matrix:
        """Pairwise value matrix: value(u_a, u_b) for a <= b, mirrored by the
        kind ``__init__`` checked (``_MIRROR``; ``conj`` is a field
        automorphism, radicands being real and positive).  ``_against(u_b)``
        is formed once per vector."""
        k = len(vectors)
        mirror = _MIRROR[self.kind]
        gw = [self._against(w) for w in vectors]
        zero = self.tower.zero()
        rows = [[None] * k for _ in range(k)]
        for a, u in enumerate(vectors):
            for b in range(a, k):
                v = fma(zero, zip(u, gw[b]))
                rows[b][a], rows[a][b] = mirror(v), v   # (a, a) keeps v
        return Matrix(self.tower, rows, cols=k)

    def restrict(self, s: Subspace) -> Matrix:
        """Gram of the form on the canonical basis of ``s``."""
        return self.gram_of(s.basis_vectors())

    def perp(self, vectors: Sequence[Sequence[Scalar]],
             within: Subspace) -> Subspace:
        """{v in within : value(v, w) = 0 for every w in ``vectors``}.

        The null combinations of ``within``'s basis, with its values
        against the w as images.  The set does not depend on the slot
        (module docstring).  The vectors may live in a deeper tower than
        the form and ``within``; the result then lives in theirs."""
        if within.ambient_dim != self.dim:
            raise ValueError("subspace ambient does not match form dimension")
        basis = within.basis_vectors()
        zero = self.tower.zero()
        gws = [self._against(w) for w in vectors]
        images = [[fma(zero, zip(v, gw)) for gw in gws] for v in basis]
        t = within.tower.host([x for im in images for x in im])
        return Subspace.from_vectors(
            t, self.dim, null_combinations(t, basis, images))

    def is_isotropic(self, s: Subspace) -> bool:
        return self.restrict(s).is_zero()

    def __repr__(self) -> str:
        return "FormSpec(%s, dim=%d)" % (self.name, self.dim)


def _epq(p: int, q: int) -> list:
    return [1] * p + [-1] * q


# a row of ``StandardModel.CASES``: the constructor's name, its parameters
# with their campaign defaults, and its group names by role
Case = namedtuple("Case", "constructor defaults groups")
Quadruple = namedtuple("Quadruple", "G Ghat G0 Ghat0")


class StandardModel:
    """One of the explicit geometries, with its forms and reference data."""

    CASES = {
        "projective-split": Case("projective_split", {"n": 1}, Quadruple(
            "Sp2nC", "SL2nC", "Sp2nR", "SU(n,n)")),
        "projective-pq": Case("projective_signature", {"p": 1, "q": 1},
                              Quadruple("Sp2nC", "SL2nC", "Sp(2p,2q)",
                                        "SU(2p,2q)")),
        "quadric7": Case("quadric7", {}, Quadruple(
            "G2C", "SO7C", "G2split", "SO(3,4)")),
        "isotropic": Case("isotropic", {"p": 2, "q": 1}, Quadruple(
            "SO2n-1C", "SO2nC", "SO(p,q)", "SO(hhat)")),
    }

    def __init__(self, case: str, tower: Tower, ambient_dim: int, **data):
        self.case = case
        self.tower = tower
        self.ambient_dim = ambient_dim
        self.__dict__.update(data)
        self.info = dict(case=case, **{key: data[key] for key
                                       in StandardModel.CASES[case].defaults})

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def info_args(info) -> tuple:
        """(case, parameter values) of a model name.  Raises ``ValueError``
        unless ``info`` holds exactly ``case`` and that case's parameters,
        each a Python ``int`` (not a ``bool``)."""
        if not isinstance(info, dict):
            raise ValueError("model info is not an object")
        case = info.get("case")
        if case not in StandardModel.CASES:
            raise ValueError("unknown model case %r" % (case,))
        names = tuple(StandardModel.CASES[case].defaults)
        if set(info) != {"case", *names}:
            raise ValueError("model %s takes exactly the keys %s"
                             % (case, ", ".join(("case",) + names)))
        for key in names:
            if type(info[key]) is not int:
                raise ValueError("model parameter %s is not an integer: %r"
                                 % (key, info[key]))
        return case, [info[key] for key in names]

    @staticmethod
    def from_info(tower: Tower, info: dict) -> StandardModel:
        """The model ``info`` names, built over ``tower``."""
        case, args = StandardModel.info_args(info)
        build = getattr(StandardModel, StandardModel.CASES[case].constructor)
        return build(tower, *args)

    def clone(self) -> StandardModel:
        """The same model rebuilt over a clone of its tower."""
        return StandardModel.from_info(self.tower.clone(), self.info)

    @staticmethod
    def projective_split(tower: Tower, n: int) -> StandardModel:
        if n < 1:
            raise ValueError("n must be positive")
        return StandardModel._projective("projective-split", tower, n,
                                         [1] * n + [-1] * n, p=None, q=None)

    @staticmethod
    def projective_signature(tower: Tower, p: int, q: int) -> StandardModel:
        if p < 1 or q < 1:
            raise ValueError("need p, q >= 1")
        return StandardModel._projective("projective-pq", tower, p + q,
                                         _epq(p, q) + _epq(p, q), p=p, q=q)

    @staticmethod
    def _projective(case: str, tower: Tower, n: int, e_diag: list,
                    p: Optional[int], q: Optional[int]) -> StandardModel:
        m = 2 * n
        zero, one = tower.zero(), tower.one()
        # J e_i = e_{n+i} (i <= n), J e_i = -e_{i-n} (i > n)
        jrows = [[zero] * m for _ in range(m)]
        for i in range(n):
            jrows[n + i][i] = one
            jrows[i][n + i] = -one
        j = Matrix(tower, jrows, cols=m)
        e = Matrix.diag(tower, e_diag)
        return StandardModel(
            case, tower, m,
            n=n, p=p, q=q,
            b=FormSpec("symmetric", Matrix.identity(tower, m), "b"),
            omega=FormSpec("antisymmetric", j, "omega"),
            h=FormSpec("hermitian", e, "h"),
            phi_mat=-(j * e),
            flag_dim_complex=m - 1,
        )

    @staticmethod
    def quadric7(tower: Tower) -> StandardModel:
        g = Matrix.diag(tower, [1, 1, 1, -1, -1, -1, -1])
        i = tower.i()
        real_rep = [tower.zero(), tower.zero(), tower.scalar(1),
                    tower.scalar(1), tower.zero(), tower.zero(), tower.zero()]
        # on the quadric, h-null, and not proportional to a real vector
        null_nonreal = [tower.zero(), i, tower.scalar(1), tower.scalar(1), i,
                        tower.zero(), tower.zero()]
        return StandardModel(
            "quadric7", tower, 7,
            b=FormSpec("symmetric", g, "b"),
            h=FormSpec("hermitian", g, "h"),
            stratum_representatives={
                "positive": [tower.scalar(1), i, tower.zero(), tower.zero(),
                             tower.zero(), tower.zero(), tower.zero()],
                "negative": [tower.zero()] * 3 + [tower.scalar(1), i,
                                                  tower.zero(), tower.zero()],
                "null-real": real_rep,
                "null-nonreal": null_nonreal,
            },
            flag_dim_complex=5,
        )

    @staticmethod
    def isotropic(tower: Tower, p: int, q: int) -> StandardModel:
        if p < 1 or q < 1 or (p + q) % 2 == 0:
            raise ValueError("need p, q >= 1 with p + q odd")
        n = (p + q + 1) // 2
        m = 2 * n
        eps = -1 if p % 2 == 0 else 1
        hhat_diag = _epq(p, q) + [eps]
        s_change = Matrix.diag(tower,
                               [1 if d == 1 else tower.i() for d in hhat_diag])
        return StandardModel(
            "isotropic", tower, m,
            n=n, p=p, q=q, eps=eps,
            b=FormSpec("symmetric", Matrix.identity(tower, m), "b"),
            hhat=FormSpec("hermitian", Matrix.diag(tower, hhat_diag), "hhat"),
            # in signature coordinates (std_vec = S * sig_vec) b becomes
            # b_sig, with hhat's Gram, hhat stays hhat (S^H hhat S = hhat),
            # and the real isometry groups consist of real matrices
            b_sig=FormSpec("symmetric", Matrix.diag(tower, hhat_diag), "b_sig"),
            sig_change=s_change,
            open_signature=((p // 2, (q + 1) // 2) if p % 2 == 0
                            else ((p + 1) // 2, q // 2)),
            flag_dim_complex=n * (n - 1) // 2,
        )

    # -- projective-model operations -------------------------------------------

    def phi(self, z: Sequence[Scalar]) -> list:
        """The antilinear map phi(z) = -J E conj(z) (projective models)."""
        if self.case not in ("projective-split", "projective-pq"):
            raise ValueError("phi is defined for the projective models only")
        return self.phi_mat.apply([x.conj() for x in z])

    # -- isotropic-model reference subspaces -----------------------------------

    def normal_form_complex(self) -> Subspace:
        """The reference maximal isotropic span{e_k + i e_{n+k}: k = 1..n}."""
        self._require_isotropic()
        return self._pair_span([(k, self.n + k) for k in range(self.n)])

    def normal_form_real_pairs(self) -> list:
        """Index pairs (a, b) whose spans e_a + i e_b build the real-case
        normal form, one pair per basis vector, 0-based, ending with the
        pair that contains the distinguished last coordinate."""
        self._require_isotropic()
        p, q, m = self.p, self.q, self.ambient_dim
        pairs = []
        if p % 2 == 0:
            pairs += [(2 * t, 2 * t + 1) for t in range(p // 2)]
            pairs += [(p + 2 * t, p + 2 * t + 1) for t in range((q - 1) // 2)]
            pairs.append((m - 2, m - 1))
        else:
            pairs += [(2 * t, 2 * t + 1) for t in range((p - 1) // 2)]
            pairs += [(p + 2 * t, p + 2 * t + 1) for t in range(q // 2)]
            pairs.append((p - 1, m - 1))
        return pairs

    def normal_form_real(self) -> Subspace:
        """The reference plane W0 + C(last pair) from the real normal form."""
        return self._pair_span(self.normal_form_real_pairs())

    def _pair_span(self, pairs: list) -> Subspace:
        """span{e_a + i e_b : (a, b) in pairs}."""
        t = self.tower
        vecs = []
        for a, b in pairs:
            v = [t.zero()] * self.ambient_dim
            v[a], v[b] = t.one(), t.i()
            vecs.append(v)
        return Subspace.from_vectors(t, self.ambient_dim, vecs)

    def _require_isotropic(self) -> None:
        if self.case != "isotropic":
            raise ValueError("operation defined for the isotropic model only")

    def __repr__(self) -> str:
        return "StandardModel(%s)" % ", ".join(
            "%s=%s" % kv for kv in self.info.items())
