"""Exact supercommutative polynomial algebra.

Ground ring is Q: an integral coefficient is a plain int, any other a
stdlib Fraction.  Variables come in five families: bosonic x0, x1..xn,
y1..yn and fermionic th1..thm ("theta"), vt1..vtm ("vartheta").
Fermionic generators square to zero and anticommute; everything else
commutes.  Monomials are kept in a canonical form where the fermionic
factors appear in the fixed order

    th1 < ... < thm < vt1 < ... < vtm

and any reordering sign is pushed into the coefficient of the enclosing
term.  All arithmetic is exact; there is no floating point anywhere.

`LinearCombination` is the one place where coefficients live: a sparse
map from a key to a nonzero rational with the linear structure, equality
and rendering.  It keeps every coefficient in one canonical form, an int
when the value is integral and a Fraction only otherwise, so the integral
arithmetic that dominates here runs on Python ints.  A division of two
coefficients therefore builds its Fraction from numerator and
denominator: `a / b` on ints would give a float.  `SuperPolynomial`
(keyed by monomials), the operators' `DiffOperator` and the algebra
elements' `AlgebraElement` subclass it.

All six schemes grade by one rule.  A monomial's bidegree (l, l') is its
x-degree plus its theta count, and its y-degree plus its vartheta count,
where a twisted scheme counts x1..x_{n1} and y_{n2+1}..y_n with a minus
sign (`_variable_groups`).  gl(n|m) slices are labelled by that bidegree;
an osp slice is labelled by k = l + l' + the x0 exponent, so
`enumerate_slice` writes it as a union of bidegree slices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union


# ===================================================================
# variables
# ===================================================================

class Family(IntEnum):
    # the numeric order here fixes the global variable order:
    # x0 < x1..xn < y1..yn < th1..thm < vt1..vtm
    X0 = 0
    X = 1
    Y = 2
    THETA = 3
    VARTHETA = 4


_FAMILY_PREFIX = {
    Family.X0: "x",
    Family.X: "x",
    Family.Y: "y",
    Family.THETA: "th",
    Family.VARTHETA: "vt",
}


class VariableId(NamedTuple):
    family: Family
    index: int

    @property
    def fermionic(self) -> bool:
        return self.family in (Family.THETA, Family.VARTHETA)

    @property
    def parity(self) -> int:
        return 1 if self.fermionic else 0

    def name(self) -> str:
        return f"{_FAMILY_PREFIX[self.family]}{self.index}"


def x0() -> VariableId:
    return VariableId(Family.X0, 0)


def x(i: int) -> VariableId:
    if i == 0:
        return x0()
    return VariableId(Family.X, i)


def y(i: int) -> VariableId:
    return VariableId(Family.Y, i)


def theta(r: int) -> VariableId:
    return VariableId(Family.THETA, r)


def vartheta(r: int) -> VariableId:
    return VariableId(Family.VARTHETA, r)


def merge_signed(
    w1: Sequence[VariableId], w2: Sequence[VariableId]
) -> Optional[tuple[int, tuple[VariableId, ...]]]:
    """Merge two strictly ascending fermionic words.

    Returns (sign, merged word) where sign = (-1)^inversions, or None when
    the words share a generator (the product is then zero).
    """
    out: list[VariableId] = []
    inv = 0
    i = j = 0
    while i < len(w1) and j < len(w2):
        a, b = w1[i], w2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            inv += len(w1) - i
            j += 1
    out.extend(w1[i:])
    out.extend(w2[j:])
    return (-1 if inv % 2 else 1, tuple(out))


# ===================================================================
# monomials
# ===================================================================

class SuperMonomial(NamedTuple):
    """Canonical monomial: sparse bosonic exponents + ascending fermionic word."""

    bos: tuple[tuple[VariableId, int], ...]  # sorted by variable, exponents >= 1
    ferm: tuple[VariableId, ...]             # strictly ascending

    @staticmethod
    def unit() -> "SuperMonomial":
        return SuperMonomial((), ())

    @staticmethod
    def make(
        bos: Iterable[tuple[VariableId, int]] = (),
        ferm: Iterable[VariableId] = (),
    ) -> "SuperMonomial":
        acc: dict[VariableId, int] = {}
        for v, e in bos:
            if v.fermionic:
                raise ValueError(f"{v.name()} is fermionic")
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                acc[v] = acc.get(v, 0) + e
        fw = tuple(sorted(ferm))
        if len(set(fw)) != len(fw):
            raise ValueError("repeated fermionic generator")
        for v in fw:
            if not v.fermionic:
                raise ValueError(f"{v.name()} is bosonic")
        return SuperMonomial(tuple(sorted(acc.items())), fw)

    def degree(self) -> int:
        return sum(e for _, e in self.bos) + len(self.ferm)

    def parity(self) -> int:
        return len(self.ferm) % 2

    def exponent(self, v: VariableId) -> int:
        if v.fermionic:
            return 1 if v in self.ferm else 0
        for w, e in self.bos:
            if w == v:
                return e
        return 0

    def variables(self) -> tuple[VariableId, ...]:
        return tuple(v for v, _ in self.bos) + self.ferm

    def mul(self, other: "SuperMonomial") -> Optional[tuple[int, "SuperMonomial"]]:
        """Signed product; None when a fermionic generator repeats."""
        merged = merge_signed(self.ferm, other.ferm)
        if merged is None:
            return None
        sign, fw = merged
        acc = dict(self.bos)
        for v, e in other.bos:
            acc[v] = acc.get(v, 0) + e
        return sign, SuperMonomial(tuple(sorted(acc.items())), fw)

    def sort_key(self):
        """Graded order key; ties broken variable by variable (the canonical
        form lists the variables in order, every fermion after every boson)."""
        return (self.degree(),
                [(v, -e) for v, e in self.bos] + [(v, -1) for v in self.ferm])

    def render(self) -> str:
        parts = []
        for v, e in self.bos:
            parts.append(v.name() if e == 1 else f"{v.name()}^{e}")
        parts.extend(v.name() for v in self.ferm)
        return "*".join(parts) if parts else "1"


# ===================================================================
# linear combinations
# ===================================================================

Scalar = Union[int, Fraction]


def exact_scalar(c: Scalar) -> Scalar:
    """c in canonical coefficient form (an int when integral); TypeError on
    anything that is not an int or a Fraction, a float above all."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


class LinearCombination:
    """Sparse rational linear combination: key -> nonzero coefficient, an
    int when integral and a Fraction otherwise.

    The one implementation of the linear structure that polynomials,
    operators and algebra elements share.  Each subclass sets the sort key
    of its keys (`key_order`) and how one key renders (`key_render`; a key
    rendering as "1" prints as the bare coefficient).
    """

    __slots__ = ("_terms",)
    key_order: Callable
    key_render: Callable

    def __init__(self, terms: Optional[dict] = None):
        self._terms = {k: c if type(c) is int or c.denominator != 1
                       else c.numerator
                       for k, c in (terms or {}).items() if c}

    def _like(self, terms: dict):
        """A combination of the same kind with the given terms."""
        return type(self)(terms)

    # ---- inspection ----

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """The (key, coefficient) pairs in no particular order."""
        return self._terms.items()

    def terms(self) -> list:
        """The (key, coefficient) pairs in key order."""
        key = self.key_order
        return sorted(self._terms.items(), key=lambda t: key(t[0]))

    def coefficient(self, key) -> Scalar:
        return self._terms.get(key, 0)

    # ---- linear structure ----

    def __add__(self, other):
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0) + c
        return self._like(acc)

    def __sub__(self, other):
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, 0) - c
        return self._like(acc)

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def scale(self, c: Scalar):
        c = exact_scalar(c)
        return self._like({k: c * v for k, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"

    def render(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for k, c in self.terms():
            body = self.key_render(k)
            mag = abs(c)
            if body == "1":
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


# ===================================================================
# polynomials
# ===================================================================

class SuperPolynomial(LinearCombination):
    """Sparse polynomial: canonical monomial -> nonzero coefficient."""

    __slots__ = ()
    key_order = staticmethod(SuperMonomial.sort_key)
    key_render = staticmethod(SuperMonomial.render)

    # ---- constructors ----

    @staticmethod
    def zero() -> "SuperPolynomial":
        return SuperPolynomial()

    @staticmethod
    def one() -> "SuperPolynomial":
        return SuperPolynomial({SuperMonomial.unit(): 1})

    @staticmethod
    def monomial(m: SuperMonomial, c: Scalar = 1) -> "SuperPolynomial":
        return SuperPolynomial({m: exact_scalar(c)})

    @staticmethod
    def variable(v: VariableId) -> "SuperPolynomial":
        if v.fermionic:
            m = SuperMonomial((), (v,))
        else:
            m = SuperMonomial(((v, 1),), ())
        return SuperPolynomial({m: 1})

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree() for m in self._terms), default=-1)

    def __mul__(self, other) -> "SuperPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        acc: dict[SuperMonomial, Scalar] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                prod = m1.mul(m2)
                if prod is None:
                    continue
                sign, m = prod
                acc[m] = acc.get(m, 0) + sign * c1 * c2
        return SuperPolynomial(acc)


def integrate_bosonic(p: SuperPolynomial, v: VariableId) -> SuperPolynomial:
    """Right inverse of the partial derivative d_v: x^a -> x^(a+1)/(a+1)."""
    if v.fermionic:
        raise ValueError(f"cannot integrate fermionic variable {v.name()}")
    acc: dict[SuperMonomial, Scalar] = {}
    for m, c in p._terms.items():
        e = m.exponent(v)
        bos = dict(m.bos)
        bos[v] = e + 1
        nm = SuperMonomial(tuple(sorted(bos.items())), m.ferm)
        acc[nm] = acc.get(nm, 0) + Fraction(c, e + 1)
    return SuperPolynomial(acc)


# ===================================================================
# grading schemes
# ===================================================================

class SchemeKind(Enum):
    GL_NATURAL = "gl-natural"
    GL_TWISTED = "gl-twisted"
    OSP_EVEN_NATURAL = "osp-even-natural"
    OSP_EVEN_TWISTED = "osp-even-twisted"
    OSP_ODD_NATURAL = "osp-odd-natural"
    OSP_ODD_TWISTED = "osp-odd-twisted"


_TWISTED_KINDS = {
    SchemeKind.GL_TWISTED,
    SchemeKind.OSP_EVEN_TWISTED,
    SchemeKind.OSP_ODD_TWISTED,
}

_ODD_KINDS = {SchemeKind.OSP_ODD_NATURAL, SchemeKind.OSP_ODD_TWISTED}

Label = Union[int, tuple[int, int]]


def label_degree(label: Label) -> int:
    """Total degree of a label: k, or l + lp for a bidegree."""
    return label if isinstance(label, int) else sum(label)


@dataclass(frozen=True)
class GradingScheme:
    """Variant tag + parameters; doubles as the representation choice."""

    kind: SchemeKind
    n: int
    m: int
    n1: Optional[int] = None
    n2: Optional[int] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        if self.is_twisted:
            if self.n1 is None or self.n2 is None:
                raise ValueError("twisted scheme needs n1 and n2")
            if not (1 <= self.n1 and self.n1 + 2 <= self.n2 <= self.n):
                raise ValueError("twisted scheme needs 1 < n1+1 < n2 <= n")
        else:
            if self.n1 is not None or self.n2 is not None:
                raise ValueError("n1/n2 only make sense for twisted schemes")
        # every per-scheme cache looks the scheme up, so it is hashed once;
        # equality stays the dataclass's field comparison
        object.__setattr__(self, "_hash", hash((self.kind, self.n, self.m,
                                                self.n1, self.n2)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_twisted(self) -> bool:
        return self.kind in _TWISTED_KINDS

    @property
    def has_x0(self) -> bool:
        return self.kind in _ODD_KINDS

    @property
    def is_gl(self) -> bool:
        return self.kind in (SchemeKind.GL_NATURAL, SchemeKind.GL_TWISTED)

    def bosonic_variables(self) -> list[VariableId]:
        out: list[VariableId] = []
        if self.has_x0:
            out.append(x0())
        out.extend(x(i) for i in range(1, self.n + 1))
        out.extend(y(i) for i in range(1, self.n + 1))
        return out

    def fermionic_variables(self) -> list[VariableId]:
        out = [theta(r) for r in range(1, self.m + 1)]
        out.extend(vartheta(r) for r in range(1, self.m + 1))
        return out

    def variables(self) -> list[VariableId]:
        return self.bosonic_variables() + self.fermionic_variables()

    def params(self) -> dict:
        """The numeric parameters as reported: n, m, plus n1, n2 when twisted."""
        if self.is_twisted:
            return {"n": self.n, "m": self.m, "n1": self.n1, "n2": self.n2}
        return {"n": self.n, "m": self.m}

    def describe(self) -> str:
        if self.is_twisted:
            return f"{self.kind.value}(n={self.n},m={self.m},n1={self.n1},n2={self.n2})"
        return f"{self.kind.value}(n={self.n},m={self.m})"


# ===================================================================
# slice enumeration
# ===================================================================

@dataclass(frozen=True)
class GradedSlice:
    scheme: GradingScheme
    label: Label
    degree_cap: Optional[int]
    basis: tuple[SuperMonomial, ...]

    @property
    def complete(self) -> bool:
        """True when the basis is the whole slice, not a capped truncation."""
        if self.scheme.is_twisted:
            return False
        if self.degree_cap is None:
            return True
        return self.degree_cap >= label_degree(self.label)

    def dimension(self) -> int:
        return len(self.basis)


def _bos_monos(vars_: Sequence[VariableId], total: int, place: dict):
    """The monomials of degree `total` in vars_ (given in variable order),
    as (variable, exponent) pairs, each with its part of the sort key: the
    sum of place[v] over its factors (see `enumerate_slice`)."""
    for combo in itertools.combinations_with_replacement(vars_, total):
        yield (tuple((v, len(list(g))) for v, g in itertools.groupby(combo)),
               sum(place[v] for v in combo))


def _ferm_words(vars_: Sequence[VariableId], total: int, place: dict):
    """The fermion words of length `total` in vars_, each with its part of
    the sort key, as `_bos_monos` gives it."""
    for word in itertools.combinations(vars_, total):
        yield word, sum(place[v] for v in word)


def enumerate_slice(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None
) -> GradedSlice:
    """Enumerate the canonical monomial basis of one graded slice.

    Twisted slices are infinite, so they insist on a degree cap; every
    natural slice lies in the degree of its label (x0 counted on the odd
    osp schemes), so it is finite and enumerates fully.
    """
    if scheme.is_twisted and degree_cap is None:
        raise ValueError(f"{scheme.describe()} requires a degree cap")
    if degree_cap is not None and degree_cap < 0:
        raise ValueError("degree cap must be non-negative")

    if scheme.is_gl:
        if not (isinstance(label, tuple) and len(label) == 2):
            raise ValueError("gl schemes take a bidegree label (l, lp)")
    else:
        if not isinstance(label, int):
            raise ValueError("osp schemes take an integer label k")

    ferms = scheme.fermionic_variables()
    groups = (*_variable_groups(scheme), ferms[:scheme.m], ferms[scheme.m:])
    cap = label_degree(label) if degree_cap is None else degree_cap
    # a monomial's sort key, the sum of place[v] over its factors, is its
    # degree times base^N less its exponents read as base-`base` digits in
    # variable order: ascending keys give the order of SuperMonomial.sort_key
    variables = sorted(scheme.variables())
    base = cap + 1
    place = {v: base ** len(variables) - base ** i
             for i, v in enumerate(reversed(variables))}
    if scheme.is_gl:
        keyed = _bidegree_slice(groups, label, cap, ((), 0), place)
    else:
        keyed = _osp_slice(groups, scheme.has_x0, label, cap, place)
    basis = tuple(mono for _, mono in sorted(keyed))
    return GradedSlice(scheme, label, degree_cap, basis)


def _variable_groups(scheme):
    """The x's and y's by sign, in variable order: (swapped x's, kept x's,
    kept y's, swapped y's).  A twisted scheme swaps x1..x_{n1} and
    y_{n2+1}..y_n; a natural one swaps nothing."""
    n = scheme.n
    n1, n2 = (scheme.n1, scheme.n2) if scheme.is_twisted else (0, n)
    return ([x(i) for i in range(1, n1 + 1)],
            [x(i) for i in range(n1 + 1, n + 1)],
            [y(i) for i in range(1, n2 + 1)],
            [y(i) for i in range(n2 + 1, n + 1)])


def _bidegree_slice(groups, label, cap, head, place):
    """(sort key, monomial) for the monomials of bidegree label = (l, lp)
    and total degree <= cap, each with the bosonic pairs of `head` (x0^e0
    or nothing) in front; `head` is those pairs and their sort key part.

    `groups` is `_variable_groups` plus the thetas and the varthetas; the
    loops run over the theta count t, the vartheta count v and the degrees
    a, d in the swapped x's and y's, which fix the kept degrees b, c.
    """
    l, lp = label
    neg_x, pos_x, pos_y, neg_y, thetas, vthetas = groups
    hbos, hkey = head
    for t in range(len(thetas) + 1):
        for v in range(len(vthetas) + 1):
            for a in range(cap + 1 if neg_x else 1):
                b = l - t + a
                if b < 0 or a + b + t + v > cap:
                    continue
                for d in range(cap + 1 if neg_y else 1):
                    c = lp - v + d
                    if c < 0 or a + b + c + d + t + v > cap:
                        continue
                    for (ba, ka), (bb, kb), (bc, kc), (bd, kd), (tw, kt), (vw, kv) in (
                            itertools.product(
                                _bos_monos(neg_x, a, place),
                                _bos_monos(pos_x, b, place),
                                _bos_monos(pos_y, c, place),
                                _bos_monos(neg_y, d, place),
                                _ferm_words(thetas, t, place),
                                _ferm_words(vthetas, v, place))):
                        yield (hkey + ka + kb + kc + kd + kt + kv,
                               SuperMonomial(hbos + ba + bb + bc + bd, tw + vw))


def _osp_slice(groups, has_x0, k, cap, place):
    """The osp slice of degree k as the union, over the x0 exponent e0 and
    over l, of the (l, k - e0 - l) bidegree slices at cap - e0.  Only a
    swapped x can make l negative."""
    for e0 in range(cap + 1 if has_x0 else 1):
        head = (((x0(), e0),), e0 * place[x0()]) if e0 else ((), 0)
        for l in range(e0 - cap if groups[0] else 0, cap - e0 + 1):
            yield from _bidegree_slice(groups, (l, k - e0 - l), cap - e0, head, place)
