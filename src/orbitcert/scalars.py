"""Exact scalar arithmetic in iterated real-quadratic extensions of Q(i).

The scalar domain is Q(i)(sqrt(r1))(sqrt(r2))...(sqrt(rk)), where each
radicand r_j is a positive real element of the previous level that is not a
square there.  A :class:`Tower` records the adjoined radicands; a
:class:`Scalar` is a linear combination of products of the adjoined roots
with Gaussian-rational coefficients, held in canonical form (zero terms
dropped, each coefficient one reduced integer triple, see ``Coeff``).
Consequences:

* equality is decidable (coordinate comparison),
* complex conjugation i -> -i fixes every adjoined root,
* real elements (those fixed by conjugation) have a computable sign,
* squareness in the current tower is decidable, so redundant adjunctions
  are refused and the representation stays unique.

Towers are append-only: adjoining a root never mutates existing scalars,
and a scalar stays valid when its tower grows later.  Concurrent readers
are safe because the radicand list only ever gains fully-constructed
entries; code that wants full isolation works on ``tower.clone()``, as
the witness builders do through ``StandardModel.clone()``.

Scalars move between towers by one rule.  ``Tower.lift`` is strict: it
re-homes a scalar only when both towers agree on every level the scalar
uses, and raises ``TowerError`` otherwise.  ``Tower.host`` picks the
tower a computation mixing some entries runs in: the deepest one that
every entry lifts into.  The operators, ``==`` and ``fma`` all go
through it, so a radicand mismatch raises ``TowerError`` in each of them.
No tower grows to fit a scalar or a serialized matrix.

Term masks: bit j of a term's integer key selects sqrt(r_{j+1}), so the
key 0 is the rational part and key 0b101 tags sqrt(r1)*sqrt(r3).
``_split_by_mask`` reads a vector in the same keys: per mask, the
Gaussian-integer real and imaginary parts of its entries over one
denominator, the rows that the integer kernels of ``groups`` and
``linalg`` work on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence, Union

__all__ = ["Tower", "Scalar", "TowerError", "MAX_DEPTH", "fma"]

# A coefficient (re, im, den) of Python ints stands for (re + im*i)/den,
# with den > 0 and gcd(re, im, den) == 1.  The form is unique, so tuple
# equality is value equality and zero is exactly _G0.
Coeff = tuple
Rat = Union[int, Fraction]

_G0 = (0, 0, 1)
_G1 = (1, 0, 1)

# The deepest tower ``Tower.deserialize`` builds.  Each level doubles a
# scalar's coordinates and about doubles the time to read and check a
# file; the builders emit depth at most n (the line transport n, one root
# per phi-plane), so witnesses up to n = 8 are read.
MAX_DEPTH = 8


class TowerError(ValueError):
    """Raised for invalid tower operations (bad radicand, mixed towers...)."""


def _gnorm(x: int, y: int, d: int) -> Coeff:
    """Canonical triple of (x + y*i)/d for ``d`` > 0."""
    g = gcd(x, y, d)
    if g == 1:
        return (x, y, d)
    return (x // g, y // g, d // g)


def _grat(x: Rat, y: Rat) -> Coeff:
    """Canonical triple of x + y*i for rationals x and y."""
    if type(x) is int and type(y) is int:
        return (x, y, 1)
    a, b = Fraction(x), Fraction(y)
    return _gnorm(a.numerator * b.denominator, b.numerator * a.denominator,
                  a.denominator * b.denominator)


def _gadd(a: Coeff, b: Coeff) -> Coeff:
    ar, ai, ad = a
    br, bi, bd = b
    if ad == bd:
        if ad == 1:
            return (ar + br, ai + bi, 1)
        return _gnorm(ar + br, ai + bi, ad)
    return _gnorm(ar * bd + br * ad, ai * bd + bi * ad, ad * bd)


def _gmul(a: Coeff, b: Coeff) -> Coeff:
    ar, ai, ad = a
    br, bi, bd = b
    if ad == 1 and bd == 1:
        return (ar * br - ai * bi, ar * bi + ai * br, 1)
    return _gnorm(ar * br - ai * bi, ar * bi + ai * br, ad * bd)


def _gneg(a: Coeff) -> Coeff:
    return (-a[0], -a[1], a[2])


def _ginv(a: Coeff) -> Coeff:
    x, y, d = a
    n = x * x + y * y
    if n == 0:
        raise ZeroDivisionError("division by zero scalar")
    return _gnorm(d * x, -d * y, n)


def _rat_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        return Fraction(sp, sq)
    return None


_QI_RE = re.compile(r"^(-?\d+)/(\d+)\+(-?\d+)/(\d+)\*i$")


def _format_coeff(c: Coeff) -> str:
    """Text "a/b+c/d*i", each part reduced on its own."""
    x, y, d = c
    g, h = gcd(x, d), gcd(y, d)
    return "%d/%d+%d/%d*i" % (x // g, d // g, y // h, d // h)


# the text ``_format_coeff`` writes for zero; ``from_coords`` skips it
_ZERO_TEXT = "0/1+0/1*i"


def _parse_coeff(text: str) -> Coeff:
    m = _QI_RE.match(text)
    if m is None:
        raise TowerError("malformed scalar coordinate %r" % (text,))
    a, b, c, d = (int(x) for x in m.groups())
    if b == 0 or d == 0:
        raise TowerError("zero denominator in scalar coordinate %r"
                         % (text,))
    return _gnorm(a * d, c * b, b * d)


class Tower:
    """Append-only context Q(i)(sqrt(r1))...(sqrt(rk)) shared by scalars."""

    def __init__(self) -> None:
        self._radicands: list[Scalar] = []
        self._prodcache: dict[int, Scalar] = {}

    # -- basic constructors -------------------------------------------------

    def scalar(self, re_part: Rat = 0, im_part: Rat = 0) -> Scalar:
        c = _grat(re_part, im_part)
        if c == _G0:
            return Scalar(self, {})
        return Scalar(self, {0: c})

    def zero(self) -> Scalar:
        return Scalar(self, {})

    def one(self) -> Scalar:
        return Scalar(self, {0: _G1})

    def i(self) -> Scalar:
        return Scalar(self, {0: (0, 1, 1)})

    def root(self, level: int) -> Scalar:
        """The adjoined root sqrt(r_{level+1}) as a scalar."""
        if not 0 <= level < len(self._radicands):
            raise TowerError("tower has no level %d" % (level,))
        return Scalar(self, {1 << level: _G1})

    @property
    def depth(self) -> int:
        return len(self._radicands)

    def clone(self) -> Tower:
        """Independent tower with the same radicands (for isolated tasks)."""
        t = Tower()
        for r in self._radicands:
            t._radicands.append(Scalar(t, dict(r._terms)))
        return t

    # -- adjunction ----------------------------------------------------------

    def adjoin_sqrt(self, x: Union[Scalar, Rat]) -> Scalar:
        """Return sqrt(x), adjoining a new level only when necessary.

        ``x`` must be real with nonnegative sign.  If x is already a square
        in the current tower the existing (nonnegative) root is returned and
        the tower is left unchanged; otherwise x becomes the next radicand.
        """
        x = self.lift(x)
        if not x.is_real():
            raise TowerError("cannot adjoin the square root of a non-real scalar")
        s = x.sign()
        if s < 0:
            raise TowerError("cannot adjoin the square root of a negative scalar")
        if s == 0:
            return self.zero()
        y = x._try_sqrt()
        if y is not None:
            return y
        self._radicands.append(x)
        return self.root(len(self._radicands) - 1)

    # -- moving scalars between towers ----------------------------------------

    def lift(self, x: Union[Scalar, Rat]) -> Scalar:
        """``x`` as a scalar of this tower; raises :class:`TowerError` when
        ``x`` uses a level this tower lacks or whose radicand differs."""
        if isinstance(x, Scalar):
            if x._tower is self:
                return x
            if not self._fits(x):
                raise TowerError("incompatible towers: the scalar uses a "
                                 "level this tower lacks or whose radicand "
                                 "differs")
            return Scalar(self, dict(x._terms))
        return self.scalar(x)

    def host(self, entries: Iterable) -> Tower:
        """The tower a computation mixing the scalar ``entries`` runs in:
        the deepest among this one and the entries' towers that every
        entry lifts into (on equal depth the first one seen).  Raises
        :class:`TowerError` when there is none, i.e. when two entries use
        a level whose radicands differ."""
        entries = [x for x in entries if isinstance(x, Scalar)]
        towers = dict.fromkeys([self] + [x._tower for x in entries])
        # sorted() is stable, so on equal depth the first one seen wins
        for cand in sorted(towers, key=lambda u: -u.depth):
            if all(cand._fits(x) for x in entries):
                return cand
        raise TowerError("incompatible towers: no tower hosts every entry")

    # -- internals -----------------------------------------------------------

    def _fits(self, x: Scalar) -> bool:
        """Whether ``x`` can be re-homed here: this tower has every level
        ``x`` uses, with the same radicand."""
        if x._tower is self:
            return True
        need = x._level()
        if need > len(self._radicands):
            return False
        other = x._tower._radicands
        for j in range(need):
            if other[j]._terms != self._radicands[j]._terms:
                return False
        return True

    def _radical_product(self, mask: int) -> Scalar:
        """prod of r_{j+1} over the set bits j of mask, as a scalar."""
        got = self._prodcache.get(mask)
        if got is None:
            low = mask & -mask
            r = self._radicands[low.bit_length() - 1]
            rest = mask & (mask - 1)
            got = r if rest == 0 else r * self._radical_product(rest)
            self._prodcache[mask] = got
        return got

    # -- serialization ------------------------------------------------------

    def serialize_prefix(self, depth: int):
        """JSON-ready description of the first ``depth`` radicands: an
        integer radicand as itself, another base-level one as its text and
        a rooted one as its ``coords``."""
        out = []
        for r in self._radicands[:depth]:
            c = r._terms.get(0, _G0)
            if r._level():
                out.append(r.coords())
            elif c[1] == 0 and c[2] == 1:
                out.append(c[0])
            else:
                out.append(r.to_text())
        return out

    @staticmethod
    def deserialize(radicands) -> Tower:
        """Rebuild a tower from :meth:`serialize_prefix` output.

        Every entry is re-validated: an integer, or coordinates read by
        ``Scalar.from_coords`` over the prefix built so far; it must be
        real and positive, and must genuinely create a new level (a square
        radicand means the file violates the tower invariant).  A list of
        more than ``MAX_DEPTH`` radicands is refused before any is read.
        """
        if len(radicands) > MAX_DEPTH:
            raise TowerError("%d radicands exceed the tower depth cap %d"
                             % (len(radicands), MAX_DEPTH))
        t = Tower()
        for j, entry in enumerate(radicands):
            if isinstance(entry, int):
                r = t.scalar(entry)
            elif isinstance(entry, (str, list)):
                r = Scalar.from_coords(t, entry)
            else:
                raise TowerError("malformed radicand entry %r" % (entry,))
            before = t.depth
            t.adjoin_sqrt(r)
            if t.depth != before + 1:
                raise TowerError(
                    "radicand %d is a square in the preceding tower" % (j,))
        return t

    def __repr__(self) -> str:
        return "Tower(depth=%d)" % (len(self._radicands),)


class Scalar:
    """An element of a tower, immutable by convention.

    Do not build directly; use the Tower factory methods.  ``_terms`` maps
    term masks to nonzero Gaussian-rational coefficients.
    """

    __slots__ = ("_tower", "_terms")

    def __init__(self, tower: Tower, terms: dict) -> None:
        self._tower = tower
        self._terms = terms

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {0: _G1}

    def is_real(self) -> bool:
        return all(c[1] == 0 for c in self._terms.values())

    def _level(self) -> int:
        lvl = 0
        for m in self._terms:
            if m.bit_length() > lvl:
                lvl = m.bit_length()
        return lvl

    # -- ring structure -------------------------------------------------------

    def _align(self, other) -> Optional[tuple]:
        """``(self, other)`` as scalars of one tower, or None when ``other``
        is not a number.  Mixed towers meet in ``Tower.host`` (on equal
        depth ``self``'s), so both orders of an operator agree; a radicand
        mismatch on a level both operands use raises :class:`TowerError`."""
        if isinstance(other, Scalar):
            t, u = self._tower, other._tower
            if u is t:
                return self, other
            h = t.host((self, other))
            return h.lift(self), h.lift(other)
        if isinstance(other, (int, Fraction)):
            return self, self._tower.scalar(other)
        return None

    def __add__(self, other):
        ab = self._align(other)
        if ab is None:
            return NotImplemented
        a, b = ab
        terms = dict(a._terms)
        for m, c in b._terms.items():
            s = _gadd(terms.get(m, _G0), c)
            if s == _G0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Scalar(a._tower, terms)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self._tower, {m: _gneg(c) for m, c in self._terms.items()})

    def __sub__(self, other):
        ab = self._align(other)
        if ab is None:
            return NotImplemented
        a, b = ab
        return Scalar(a._tower, _sub_terms(a._terms, b._terms))

    def __rsub__(self, other):
        ab = self._align(other)
        if ab is None:
            return NotImplemented
        a, b = ab
        return Scalar(a._tower, _sub_terms(b._terms, a._terms))

    def __mul__(self, other):
        ab = self._align(other)
        if ab is None:
            return NotImplemented
        a, b = ab
        tower = a._tower
        if not a._terms or not b._terms:
            return tower.zero()
        out: dict = {}
        for m1, c1 in a._terms.items():
            for m2, c2 in b._terms.items():
                _mul_into(tower, out, m1 & m2, m1 ^ m2, _gmul(c1, c2))
        return Scalar(tower, out)

    __rmul__ = __mul__

    def inv(self) -> Scalar:
        if not self._terms:
            raise ZeroDivisionError("division by zero scalar")
        lvl = self._level()
        if lvl == 0:
            return Scalar(self._tower, {0: _ginv(self._terms[0])})
        bit = 1 << (lvl - 1)
        a, b = self._split(bit)
        r = self._tower._radicands[lvl - 1]
        denom = a * a - b * b * r
        # denom == 0 would force r = (a/b)^2, contradicting the invariant
        # that radicands are non-squares of their level.
        dinv = denom.inv()
        low = a * dinv
        high = -(b * dinv)
        terms = dict(low._terms)
        for m, c in high._terms.items():
            terms[m | bit] = c
        return Scalar(self._tower, terms)

    def __truediv__(self, other):
        ab = self._align(other)
        if ab is None:
            return NotImplemented
        a, b = ab
        return a.__mul__(b.inv())

    def __rtruediv__(self, other):
        return self.inv().__mul__(other)

    def conj(self) -> Scalar:
        """Complex conjugation: i -> -i, fixing every adjoined root."""
        return Scalar(self._tower,
                      {m: (c[0], -c[1], c[2]) for m, c in self._terms.items()})

    def real_part(self) -> Scalar:
        return Scalar(self._tower,
                      {m: _gnorm(c[0], 0, c[2])
                       for m, c in self._terms.items() if c[0] != 0})

    def imag_part(self) -> Scalar:
        """The real scalar y with self = x + i*y."""
        return Scalar(self._tower,
                      {m: _gnorm(c[1], 0, c[2])
                       for m, c in self._terms.items() if c[1] != 0})

    def __eq__(self, other) -> bool:
        ab = self._align(other)
        if ab is None:
            return NotImplemented
        return ab[0]._terms == ab[1]._terms

    __hash__ = None  # mutable dict inside; scalars are not dict keys

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- order structure on the real subfield ---------------------------------

    def sign(self) -> int:
        """-1, 0 or +1; defined for real scalars only.  On the top level in
        use self = a + b*sqrt(r); when a and b*sqrt(r) differ in sign,
        a^2 - b^2*r decides which one outweighs the other."""
        if not self.is_real():
            raise TowerError("sign of a non-real scalar")
        lvl = self._level()
        if lvl == 0:
            c = self._terms.get(0, _G0)[0]
            return (c > 0) - (c < 0)
        a, b = self._split(1 << (lvl - 1))
        sa, sb = a.sign(), b.sign()
        if sb == 0 or sa == sb:
            return sa
        if sa == 0:
            return sb
        st = (a * a - b * b * self._tower._radicands[lvl - 1]).sign()
        if st == 0:
            raise TowerError("tower invariant violated: radicand %d is a "
                             "square" % (lvl - 1,))
        return sa * st

    def _split(self, bit: int) -> tuple[Scalar, Scalar]:
        """Write self = a + b*sqrt(r) where bit tags sqrt(r)."""
        lo, hi = {}, {}
        for m, c in self._terms.items():
            if m & bit:
                hi[m ^ bit] = c
            else:
                lo[m] = c
        return Scalar(self._tower, lo), Scalar(self._tower, hi)

    def _try_sqrt(self, lvl: Optional[int] = None) -> Optional[Scalar]:
        """Nonnegative square root within the first ``lvl`` tower levels.

        Precondition: self is real with sign >= 0 and uses only levels below
        ``lvl`` (default: the whole tower — a rational can be a square deeper
        in the tower, e.g. 8 = (2*sqrt2)^2 once sqrt2 is adjoined).  Uses the
        classical descent: x = a + b*sqrt(r) is a square iff its quadratic
        norm a^2 - b^2*r is a square s^2 one level down and (a +- s)/2 is
        again a square there.
        """
        if lvl is None:
            lvl = self._tower.depth
        if lvl == 0:
            c = self._terms.get(0, _G0)
            root = _rat_sqrt(Fraction(c[0], c[2]))
            if root is None:
                return None
            return self._tower.scalar(root)
        bit = 1 << (lvl - 1)
        a, b = self._split(bit)
        r = self._tower._radicands[lvl - 1]
        if b.is_zero():
            t = a._try_sqrt(lvl - 1)
            if t is not None:
                return t
            d = (a / r)._try_sqrt(lvl - 1)
            if d is not None:
                return d * self._tower.root(lvl - 1)
            return None
        norm = a * a - b * b * r
        if norm.sign() < 0:
            return None
        s = norm._try_sqrt(lvl - 1)
        if s is None:
            return None
        half = Fraction(1, 2)
        for cand in ((a + s) * half, (a - s) * half):
            if cand.sign() < 0:
                continue
            c = cand._try_sqrt(lvl - 1)
            if c is None or c.is_zero():
                continue
            d = b / (c + c)
            y = c + d * self._tower.root(lvl - 1)
            if y * y == self:
                return y if y.sign() >= 0 else -y
        return None

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        """Base-level text form "a/b+c/d*i" (level-0 scalars only)."""
        if self._level() != 0:
            raise TowerError("scalar uses adjoined roots; serialize as coords")
        return _format_coeff(self._terms.get(0, _G0))

    def coords(self, depth: Optional[int] = None) -> list[str]:
        """Flat coordinate strings over 2**depth basis products."""
        lvl = self._level() if depth is None else depth
        if self._level() > lvl:
            raise TowerError("scalar does not fit in %d levels" % (lvl,))
        return [_format_coeff(self._terms.get(m, _G0)) for m in range(1 << lvl)]

    @staticmethod
    def from_coords(tower: Tower,
                    coords: Union[str, Iterable[str]]) -> Scalar:
        """``coords`` as a scalar of ``tower``; one text is one coordinate."""
        coords = [coords] if isinstance(coords, str) else list(coords)
        n = len(coords)
        if n == 0 or n & (n - 1):
            raise TowerError("coordinate list length must be a power of two")
        if n > (1 << tower.depth):
            raise TowerError("coordinate list exceeds tower depth")
        terms = {}
        for m, text in enumerate(coords):
            if text == _ZERO_TEXT:
                continue
            c = _parse_coeff(text)
            if c != _G0:
                terms[m] = c
        return Scalar(tower, terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "<0>"
        bits = []
        for m in sorted(self._terms):
            c = self._terms[m]
            part = _format_coeff(c)
            for j in range(m.bit_length()):
                if m >> j & 1:
                    part += "*rt%d" % (j,)
            bits.append(part)
        return "<" + " + ".join(bits) + ">"


def _sub_terms(a: dict, b: dict) -> dict:
    """Terms of a - b, subtracted straight into a copy of ``a``."""
    terms = dict(a)
    for m, c in b.items():
        cur = terms.get(m)
        if cur is None:
            terms[m] = _gneg(c)
            continue
        s = _gadd(cur, _gneg(c))
        if s == _G0:
            del terms[m]
        else:
            terms[m] = s
    return terms


def fma(acc: Scalar, pairs: Iterable) -> Scalar:
    """``acc + sum(a * b for a, b in pairs)``, built in one term dict.

    The fused multiply-accumulate kernel behind every inner product and
    row update of the exact linear algebra: pairs with a zero operand are
    skipped and only the result is allocated; the operators stay its
    reference.  Operands from different towers meet in ``Tower.host`` over
    ``acc`` and the live operands, as the operators' do, so a differing
    radicand on a level in use raises :class:`TowerError`.
    """
    live = [(a, b) for a, b in pairs if a._terms and b._terms]
    tower = acc._tower
    for a, b in live:
        if a._tower is not tower or b._tower is not tower:
            # every entry fits the host, so its terms can be read as they are
            tower = tower.host([acc] + [x for ab in live for x in ab])
            break
    terms = dict(acc._terms)
    for a, b in live:
        for m1, c1 in a._terms.items():
            for m2, c2 in b._terms.items():
                _mul_into(tower, terms, m1 & m2, m1 ^ m2, _gmul(c1, c2))
    return Scalar(tower, terms)


def _mul_into(tower: Tower, out: dict, common: int, sym: int, coeff: Coeff) -> None:
    """Accumulate coeff * prod(r_j, j in common) * basis(sym) into out,
    dropping a term that cancels (``coeff`` itself is nonzero)."""
    if common == 0:
        cur = out.get(sym)
        if cur is None:
            out[sym] = coeff
        else:
            s = _gadd(cur, coeff)
            if s == _G0:
                del out[sym]
            else:
                out[sym] = s
        return
    factor = tower._radical_product(common)
    for mf, cf in factor._terms.items():
        # basis(mf) and basis(sym) may themselves overlap; recurse.  The top
        # bit of the overlap strictly decreases, so this terminates.
        _mul_into(tower, out, mf & sym, mf ^ sym, _gmul(coeff, cf))


def _split_by_mask(vec: Sequence[Scalar]) -> dict:
    """{mask: (re, im, den)} of a vector: per tower monomial, the
    coefficients of the entries as Gaussian integers, real parts ``re``
    and imaginary parts ``im`` (0 where an entry lacks the mask), over the
    lcm ``den`` of their denominators."""
    by_mask: dict = {}
    for k, x in enumerate(vec):
        for mask, c in x._terms.items():
            by_mask.setdefault(mask, []).append((k, c))
    out = {}
    for mask, kcs in by_mask.items():
        den = lcm(*[c[2] for _, c in kcs])
        real, imag = [0] * len(vec), [0] * len(vec)
        for k, (x, y, d) in kcs:
            if d == den:
                real[k], imag[k] = x, y
            else:
                f = den // d
                real[k], imag[k] = x * f, y * f
        out[mask] = (real, imag, den)
    return out
