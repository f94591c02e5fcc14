"""Lie-superalgebra elements and their differential-operator realizations.

Three matrix superalgebras act on the polynomial algebra:

* ``gl(n|m)``            — ambient basis: all matrix units E[a,b], a,b in 1..n+m,
                           where indices > n are odd;
* ``osp(2n|2m)``         — realized inside gl(2n|2m) (indices 1..2n+2m, odd
                           past 2n) as the stabilizer of the quadratic
                           invariant;
* ``osp(2n+1|2m)``       — same with one extra even index 0.

Each grading scheme of the algebra module carries a representation of the
matching superalgebra by differential operators: the natural variants act
by first-order operators, the twisted variants are obtained by swapping
multiplication and differentiation on the twisted index blocks, which
trades first-order atoms for products of two multipliers or two
derivatives.  The tables below give the image of every matrix unit;
arbitrary elements extend linearly.

The module also provides the positive-root generators and diagonal Cartan
basis used for weights and singular vectors, plus two self-contained
checkers: an exhaustive bracket-homomorphism verification and the
stabilizer characterization of osp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .algebra import (
    GradedSlice,
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    VariableId,
    theta,
    vartheta,
    x,
    x0,
    y,
)
from .linalg import nullspace, poly_matrix, rank, rref
from .operators import DiffOperator, apply, compose, named_operator
from .report import Verdict, VerificationReport

Scalar = Union[int, Fraction]


# ===================================================================
# matrix superalgebras
# ===================================================================

class AlgebraFamily(Enum):
    GL = "gl"
    OSP_EVEN = "osp-even"
    OSP_ODD = "osp-odd"


@dataclass(frozen=True)
class AlgebraSpace:
    """Ambient matrix space of a superalgebra: index range and parity."""

    family: AlgebraFamily
    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")

    def indices(self) -> range:
        if self.family is AlgebraFamily.GL:
            return range(1, self.n + self.m + 1)
        if self.family is AlgebraFamily.OSP_EVEN:
            return range(1, 2 * self.n + 2 * self.m + 1)
        return range(0, 2 * self.n + 2 * self.m + 1)

    def index_parity(self, a: int) -> int:
        if a not in self.indices():
            raise ValueError(f"index {a} out of range for {self.family.value}")
        if self.family is AlgebraFamily.GL:
            return int(a > self.n)
        return int(a > 2 * self.n) if a else 0

    def lie_dimension(self) -> int:
        """Dimension of the superalgebra itself (not the ambient gl)."""
        n, m = self.n, self.m
        if self.family is AlgebraFamily.GL:
            return (n + m) ** 2
        dim = n * (2 * n - 1) + m * (2 * m + 1) + 4 * n * m
        if self.family is AlgebraFamily.OSP_ODD:
            dim += 2 * n + 2 * m
        return dim


def algebra_space(scheme: GradingScheme) -> AlgebraSpace:
    if scheme.is_gl:
        fam = AlgebraFamily.GL
    elif scheme.has_x0:
        fam = AlgebraFamily.OSP_ODD
    else:
        fam = AlgebraFamily.OSP_EVEN
    return AlgebraSpace(fam, scheme.n, scheme.m)


class AlgebraElement:
    """Finite rational combination of matrix units in a fixed space."""

    __slots__ = ("space", "_terms")

    def __init__(self, space: AlgebraSpace, terms: Dict[Tuple[int, int], Fraction]):
        self.space = space
        self._terms = {k: v for k, v in terms.items() if v}

    # ---- constructors ----

    @staticmethod
    def zero(space: AlgebraSpace) -> "AlgebraElement":
        return AlgebraElement(space, {})

    @staticmethod
    def unit(space: AlgebraSpace, a: int, b: int) -> "AlgebraElement":
        rng = space.indices()
        if a not in rng or b not in rng:
            raise ValueError(f"matrix unit E[{a},{b}] out of range")
        return AlgebraElement(space, {(a, b): Fraction(1)})

    # ---- inspection ----

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> List[Tuple[Tuple[int, int], Fraction]]:
        return sorted(self._terms.items())

    def coefficient(self, a: int, b: int) -> Fraction:
        return self._terms.get((a, b), Fraction(0))

    def parity(self) -> Optional[int]:
        """0/1 when homogeneous, None for mixed or zero."""
        if not self._terms:
            return None
        ps = {self.space.index_parity(a) ^ self.space.index_parity(b)
              for a, b in self._terms}
        return ps.pop() if len(ps) == 1 else None

    def parity_part(self, par: int) -> "AlgebraElement":
        sp = self.space
        return AlgebraElement(sp, {
            (a, b): c for (a, b), c in self._terms.items()
            if (sp.index_parity(a) ^ sp.index_parity(b)) == par
        })

    # ---- arithmetic ----

    def _require_same_space(self, other: "AlgebraElement") -> None:
        if self.space != other.space:
            raise ValueError("algebra elements live in different spaces")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_space(other)
        acc = dict(self._terms)
        for k, c in other._terms.items():
            acc[k] = acc.get(k, Fraction(0)) + c
        return AlgebraElement(self.space, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "AlgebraElement":
        c = Fraction(c)
        return AlgebraElement(self.space, {k: c * v for k, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.space == other.space and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self._terms.items())))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts: List[str] = []
        for (a, b), c in self.terms():
            body = f"E[{a},{b}]"
            mag = abs(c)
            piece = body if mag == 1 else f"{mag}*{body}"
            if not parts:
                parts.append(piece if c > 0 else f"-{piece}")
            else:
                parts.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.render()})"


def matrix_unit(space: AlgebraSpace, a: int, b: int) -> AlgebraElement:
    return AlgebraElement.unit(space, a, b)


def bracket(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Super-bracket [u, v] = uv - (-1)^{|u||v|} vu, extended bilinearly.

    On units: [E_ab, E_cd] = d_bc E_ad - (-1)^{p(ab) p(cd)} d_da E_cb.
    """
    u._require_same_space(v)
    sp = u.space
    acc: Dict[Tuple[int, int], Fraction] = {}
    for (a, b), cu in u._terms.items():
        pu = sp.index_parity(a) ^ sp.index_parity(b)
        for (c, d), cv in v._terms.items():
            pv = sp.index_parity(c) ^ sp.index_parity(d)
            coeff = cu * cv
            if b == c:
                acc[(a, d)] = acc.get((a, d), Fraction(0)) + coeff
            if d == a:
                sgn = -1 if (pu and pv) else 1
                acc[(c, b)] = acc.get((c, b), Fraction(0)) - sgn * coeff
    return AlgebraElement(sp, acc)


# ===================================================================
# osp bases inside the ambient gl
# ===================================================================

def _osp_index_maps(space: AlgebraSpace):
    n, m = space.n, space.m
    xi = lambda i: i
    yi = lambda i: n + i
    th = lambda r: 2 * n + r
    vt = lambda r: 2 * n + m + r
    return xi, yi, th, vt


def osp_basis(space: AlgebraSpace) -> List[AlgebraElement]:
    """Basis of osp inside the ambient gl matrix space.

    Even part: the gl(n)-type block {E_{i,j} - E_{n+j,n+i}}, the
    antisymmetric off-blocks, the gl(m)-type fermionic block and the
    symmetric fermionic off-blocks.  Odd part: four nm-families.  The
    odd variant appends the extra row/column-0 combinations.
    """
    if space.family is AlgebraFamily.GL:
        raise ValueError("osp basis requested for a gl space")
    n, m = space.n, space.m
    xi, yi, th, vt = _osp_index_maps(space)
    E = lambda a, b: AlgebraElement.unit(space, a, b)
    basis: List[AlgebraElement] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            basis.append(E(xi(i), xi(j)) - E(yi(j), yi(i)))
    for r in range(1, m + 1):
        for s in range(1, m + 1):
            basis.append(E(th(r), th(s)) - E(vt(s), vt(r)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            basis.append(E(xi(i), yi(j)) - E(xi(j), yi(i)))
            basis.append(E(yi(i), xi(j)) - E(yi(j), xi(i)))
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            basis.append(E(th(r), vt(s)) + E(th(s), vt(r)))
            basis.append(E(vt(r), th(s)) + E(vt(s), th(r)))
    for i in range(1, n + 1):
        for r in range(1, m + 1):
            basis.append(E(xi(i), th(r)) - E(vt(r), yi(i)))
            basis.append(E(th(r), xi(i)) + E(yi(i), vt(r)))
            basis.append(E(xi(i), vt(r)) + E(th(r), yi(i)))
            basis.append(E(yi(i), th(r)) - E(vt(r), xi(i)))
    if space.family is AlgebraFamily.OSP_ODD:
        for i in range(1, n + 1):
            basis.append(E(0, xi(i)) - E(yi(i), 0))
            basis.append(E(0, yi(i)) - E(xi(i), 0))
        for r in range(1, m + 1):
            basis.append(E(0, th(r)) - E(vt(r), 0))
            basis.append(E(0, vt(r)) + E(th(r), 0))
    return basis


def _element_row(elem: AlgebraElement, keys: Sequence[Tuple[int, int]]) -> List[Fraction]:
    return [elem.coefficient(a, b) for a, b in keys]


@functools.lru_cache(maxsize=None)
def _osp_span_data(space: AlgebraSpace):
    basis = osp_basis(space)
    keys = sorted({k for e in basis for k, _ in e.terms()})
    key_index = {k: i for i, k in enumerate(keys)}
    red, pivots = rref([_element_row(e, keys) for e in basis])
    return key_index, red, pivots


def is_orthosymplectic(elem: AlgebraElement) -> bool:
    """Exact span-membership test against the osp basis."""
    if elem.space.family is AlgebraFamily.GL:
        raise ValueError("membership test is for osp ambient spaces")
    key_index, red, pivots = _osp_span_data(elem.space)
    vec = [Fraction(0)] * len(key_index)
    for k, c in elem.terms():
        if k not in key_index:
            return False
        vec[key_index[k]] = c
    for row, pc in zip(red, pivots):
        if vec[pc]:
            f = vec[pc]
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)


def algebra_basis(scheme: GradingScheme) -> List[AlgebraElement]:
    """Basis of the superalgebra acting in the given scheme."""
    space = algebra_space(scheme)
    if space.family is AlgebraFamily.GL:
        return [AlgebraElement.unit(space, a, b)
                for a in space.indices() for b in space.indices()]
    return osp_basis(space)


def positive_generators(scheme: GradingScheme, *, even_only: bool = False) -> List[AlgebraElement]:
    """Positive-root generators (a generating set, not a root basis).

    For gl(n|m): strictly upper-triangular units of both even blocks plus
    (unless even_only) all odd units E[i, n+r].  For osp: the standard
    positive combinations of the even part plus (unless even_only) the
    two odd nm-families; the odd variant appends its column-0 family.
    """
    space = algebra_space(scheme)
    n, m = space.n, space.m
    E = lambda a, b: AlgebraElement.unit(space, a, b)
    gens: List[AlgebraElement] = []
    if space.family is AlgebraFamily.GL:
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                gens.append(E(i, j))
        for r in range(1, m + 1):
            for s in range(r + 1, m + 1):
                gens.append(E(n + r, n + s))
        if not even_only:
            for i in range(1, n + 1):
                for r in range(1, m + 1):
                    gens.append(E(i, n + r))
        return gens
    xi, yi, th, vt = _osp_index_maps(space)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(E(xi(i), xi(j)) - E(yi(j), yi(i)))
            gens.append(E(xi(i), yi(j)) - E(xi(j), yi(i)))
    for r in range(1, m + 1):
        for s in range(r + 1, m + 1):
            gens.append(E(th(r), th(s)) - E(vt(s), vt(r)))
    for r in range(1, m + 1):
        for s in range(r, m + 1):
            gens.append(E(th(r), vt(s)) + E(th(s), vt(r)))
    if not even_only:
        for i in range(1, n + 1):
            for r in range(1, m + 1):
                gens.append(E(xi(i), th(r)) - E(vt(r), yi(i)))
                gens.append(E(xi(i), vt(r)) + E(th(r), yi(i)))
        if space.family is AlgebraFamily.OSP_ODD:
            for i in range(1, n + 1):
                gens.append(E(0, yi(i)) - E(xi(i), 0))
            for r in range(1, m + 1):
                gens.append(E(0, vt(r)) + E(th(r), 0))
    return gens


def cartan_basis(scheme: GradingScheme) -> List[AlgebraElement]:
    """Diagonal Cartan basis, in eps_1..eps_n, eps'_1..eps'_m order."""
    space = algebra_space(scheme)
    n, m = space.n, space.m
    E = lambda a, b: AlgebraElement.unit(space, a, b)
    if space.family is AlgebraFamily.GL:
        return [E(a, a) for a in range(1, n + m + 1)]
    xi, yi, th, vt = _osp_index_maps(space)
    out = [E(xi(i), xi(i)) - E(yi(i), yi(i)) for i in range(1, n + 1)]
    out += [E(th(r), th(r)) - E(vt(r), vt(r)) for r in range(1, m + 1)]
    return out


# ===================================================================
# per-unit operator tables
# ===================================================================

def _atom(coeff: Scalar, mults: Sequence[VariableId] = (),
          derivs: Sequence[VariableId] = ()) -> DiffOperator:
    bos_m = [(v, 1) for v in mults if not v.fermionic]
    ferm_m = [v for v in mults if v.fermionic]
    dbos: Dict[VariableId, int] = {}
    dferm: List[VariableId] = []
    for v in derivs:
        if v.fermionic:
            dferm.append(v)
        else:
            dbos[v] = dbos.get(v, 0) + 1
    return DiffOperator.word(coeff, SuperMonomial.make(bos_m, ferm_m),
                             tuple(dbos.items()), tuple(sorted(dferm)))


def _gl_natural_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    n = scheme.n
    if a <= n and b <= n:
        return _atom(1, [x(a)], [x(b)]) + _atom(-1, [y(b)], [y(a)])
    if a <= n < b:
        r = b - n
        return _atom(1, [x(a)], [theta(r)]) + _atom(-1, [vartheta(r)], [y(a)])
    if b <= n < a:
        r = a - n
        return _atom(1, [theta(r)], [x(b)]) + _atom(1, [y(b)], [vartheta(r)])
    r, s = a - n, b - n
    return _atom(1, [theta(r)], [theta(s)]) + _atom(-1, [vartheta(s)], [vartheta(r)])


def _gl_twisted_x_block(scheme: GradingScheme, i: int, j: int) -> DiffOperator:
    # twisted x-side: multiplication and differentiation swap on 1..n1
    n1 = scheme.n1
    if i <= n1 and j <= n1:
        return _atom(-1, [x(j)], [x(i)]) + (DiffOperator.scalar(-1) if i == j
                                            else DiffOperator.zero())
    if i <= n1 < j:
        return _atom(1, [], [x(i), x(j)])
    if j <= n1 < i:
        return _atom(-1, [x(i), x(j)], [])
    return _atom(1, [x(i)], [x(j)])


def _gl_twisted_y_block(scheme: GradingScheme, k: int, l: int) -> DiffOperator:
    # twisted y-side: the swap happens on n2+1..n instead
    n2 = scheme.n2
    if k <= n2 and l <= n2:
        return _atom(1, [y(k)], [y(l)])
    if k <= n2 < l:
        return _atom(-1, [y(k), y(l)], [])
    if l <= n2 < k:
        return _atom(1, [], [y(k), y(l)])
    return _atom(-1, [y(l)], [y(k)]) + DiffOperator.scalar(-1 if k == l else 0)


def _gl_twisted_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    n, n1, n2 = scheme.n, scheme.n1, scheme.n2
    if a <= n and b <= n:
        return _gl_twisted_x_block(scheme, a, b) - _gl_twisted_y_block(scheme, b, a)
    if a <= n < b:
        i, r = a, b - n
        if i <= n1:
            return _atom(1, [], [x(i), theta(r)]) + _atom(-1, [vartheta(r)], [y(i)])
        if i <= n2:
            return _atom(1, [x(i)], [theta(r)]) + _atom(-1, [vartheta(r)], [y(i)])
        return _atom(1, [x(i)], [theta(r)]) + _atom(1, [y(i), vartheta(r)], [])
    if b <= n < a:
        r, i = a - n, b
        if i <= n1:
            return _atom(-1, [x(i), theta(r)], []) + _atom(1, [y(i)], [vartheta(r)])
        if i <= n2:
            return _atom(1, [theta(r)], [x(i)]) + _atom(1, [y(i)], [vartheta(r)])
        return _atom(1, [theta(r)], [x(i)]) + _atom(1, [], [y(i), vartheta(r)])
    r, s = a - n, b - n
    return _atom(1, [theta(r)], [theta(s)]) + _atom(-1, [vartheta(s)], [vartheta(r)])


def _osp_ambient_variable(scheme: GradingScheme, a: int) -> VariableId:
    n, m = scheme.n, scheme.m
    if a == 0:
        return x0()
    if a <= n:
        return x(a)
    if a <= 2 * n:
        return y(a - n)
    if a <= 2 * n + m:
        return theta(a - 2 * n)
    return vartheta(a - 2 * n - m)


def _osp_natural_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    za = _osp_ambient_variable(scheme, a)
    zb = _osp_ambient_variable(scheme, b)
    return _atom(1, [za], [zb])


def _osp_even_twisted_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    n, m, n1, n2 = scheme.n, scheme.m, scheme.n1, scheme.n2

    def classify(c: int) -> Tuple[str, int]:
        if c <= n:
            return "x", c
        if c <= 2 * n:
            return "y", c - n
        if c <= 2 * n + m:
            return "th", c - 2 * n
        return "vt", c - 2 * n - m

    fa, i = classify(a)
    fb, j = classify(b)
    if fa == "x" and fb == "x":
        return _gl_twisted_x_block(scheme, i, j)
    if fa == "y" and fb == "y":
        return _gl_twisted_y_block(scheme, i, j)
    if fa == "x" and fb == "y":
        if i <= n1:
            return (_atom(1, [], [x(i), y(j)]) if j <= n2
                    else _atom(-1, [y(j)], [x(i)]))
        return (_atom(1, [x(i)], [y(j)]) if j <= n2
                else _atom(-1, [x(i), y(j)], []))
    if fa == "y" and fb == "x":
        if j <= n1:
            return (_atom(-1, [x(j), y(i)], []) if i <= n2
                    else _atom(-1, [x(j)], [y(i)]))
        return (_atom(1, [y(i)], [x(j)]) if i <= n2
                else _atom(1, [], [x(j), y(i)]))
    if fa == "x" and fb in ("th", "vt"):
        f = theta(j) if fb == "th" else vartheta(j)
        return _atom(1, [], [x(i), f]) if i <= n1 else _atom(1, [x(i)], [f])
    if fa in ("th", "vt") and fb == "x":
        f = theta(i) if fa == "th" else vartheta(i)
        return _atom(-1, [x(j), f], []) if j <= n1 else _atom(1, [f], [x(j)])
    if fa == "y" and fb in ("th", "vt"):
        f = theta(j) if fb == "th" else vartheta(j)
        return _atom(1, [y(i)], [f]) if i <= n2 else _atom(1, [], [y(i), f])
    if fa in ("th", "vt") and fb == "y":
        f = theta(i) if fa == "th" else vartheta(i)
        return _atom(1, [f], [y(j)]) if j <= n2 else _atom(-1, [y(j), f], [])
    # fermionic block: untouched by the twist
    fva = theta(i) if fa == "th" else vartheta(i)
    fvb = theta(j) if fb == "th" else vartheta(j)
    return _atom(1, [fva], [fvb])


def _osp_odd_twisted_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    n, m, n1, n2 = scheme.n, scheme.m, scheme.n1, scheme.n2
    if a == 0 and b == 0:
        return _atom(1, [x0()], [x0()])
    if a == 0:
        if b <= n:
            return (_atom(-1, [x0(), x(b)], []) if b <= n1
                    else _atom(1, [x0()], [x(b)]))
        if b <= 2 * n:
            i = b - n
            return (_atom(1, [x0()], [y(i)]) if i <= n2
                    else _atom(-1, [x0(), y(i)], []))
        return _atom(1, [x0()], [_osp_ambient_variable(scheme, b)])
    if b == 0:
        if a <= n:
            return (_atom(1, [], [x(a), x0()]) if a <= n1
                    else _atom(1, [x(a)], [x0()]))
        if a <= 2 * n:
            i = a - n
            return (_atom(1, [y(i)], [x0()]) if i <= n2
                    else _atom(1, [], [y(i), x0()]))
        return _atom(1, [_osp_ambient_variable(scheme, a)], [x0()])
    return _osp_even_twisted_unit(scheme, a, b)


@functools.lru_cache(maxsize=None)
def _unit_operator(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    kind = scheme.kind
    if kind is SchemeKind.GL_NATURAL:
        return _gl_natural_unit(scheme, a, b)
    if kind is SchemeKind.GL_TWISTED:
        return _gl_twisted_unit(scheme, a, b)
    if kind in (SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_ODD_NATURAL):
        return _osp_natural_unit(scheme, a, b)
    if kind is SchemeKind.OSP_EVEN_TWISTED:
        return _osp_even_twisted_unit(scheme, a, b)
    return _osp_odd_twisted_unit(scheme, a, b)


def rep_operator(elem: AlgebraElement, scheme: GradingScheme) -> DiffOperator:
    """Differential operator representing an algebra element."""
    if elem.space != algebra_space(scheme):
        raise ValueError("element does not belong to this scheme's algebra")
    out = DiffOperator.zero()
    for (a, b), c in elem.terms():
        out = out + _unit_operator(scheme, a, b).scale(c)
    return out


# ===================================================================
# weights
# ===================================================================

class _NotAWeightVector:
    __slots__ = ()

    def __repr__(self) -> str:
        return "NOT_A_WEIGHT_VECTOR"


NOT_A_WEIGHT_VECTOR = _NotAWeightVector()

Weight = Tuple[Fraction, ...]


def weight_of(p: SuperPolynomial, scheme: GradingScheme):
    """Simultaneous Cartan eigenvalue tuple, or the sentinel if p is not
    a joint eigenvector.  Twisted variants include the constant shifts of
    their diagonal operators in the eigenvalue."""
    if p.is_zero():
        raise ValueError("the zero vector has no weight")
    lead_mono, lead_coeff = p.terms()[0]
    weight: List[Fraction] = []
    for h in cartan_basis(scheme):
        q = apply(rep_operator(h, scheme), p)
        lam = q.coefficient(lead_mono) / lead_coeff
        if q != p.scale(lam):
            return NOT_A_WEIGHT_VECTOR
        weight.append(lam)
    return tuple(weight)


# ===================================================================
# checkers
# ===================================================================

def verify_homomorphism(rep: GradingScheme,
                        sample: Optional[GradedSlice] = None) -> VerificationReport:
    """Check rho([a,b]) = rho(a)rho(b) - (-1)^{|a||b|} rho(b)rho(a) for
    every ordered pair of algebra basis elements, as an exact equality of
    normal-form operators.  With a sample slice, both sides are also
    applied to every slice monomial (a second, independent route through
    the composition engine).  For osp the bracket is additionally checked
    to stay inside the osp span."""
    basis = algebra_basis(rep)
    space = algebra_space(rep)
    sample_polys = []
    if sample is not None:
        sample_polys = [SuperPolynomial.monomial(u) for u in sample.basis]
    ops = [rep_operator(e, rep) for e in basis]
    report = VerificationReport(
        check="bracket-homomorphism",
        scheme=rep.kind.value,
        params=rep.params(),
        dimensions={"algebra_dimension": len(basis),
                    "pairs_checked": 0,
                    "sample_dimension": len(sample_polys)},
    )
    closure_checked = space.family is not AlgebraFamily.GL
    pairs = 0
    for eu, ru in zip(basis, ops):
        pu = eu.parity()
        for ev, rv in zip(basis, ops):
            pv = ev.parity()
            br = bracket(eu, ev)
            lhs = rep_operator(br, rep)
            sign = -1 if (pu and pv) else 1
            rhs = compose(ru, rv) - compose(rv, ru).scale(sign)
            pairs += 1
            if lhs != rhs:
                report.verdict = Verdict.FAIL
                report.explanation = (
                    "normal-form mismatch at a=%s, b=%s: rho([a,b]) - "
                    "(rho(a)rho(b) -+ rho(b)rho(a)) = %s"
                    % (eu.render(), ev.render(), (lhs - rhs).render()))
                report.dimensions["pairs_checked"] = pairs
                return report
            if closure_checked and not br.is_zero() and not is_orthosymplectic(br):
                report.verdict = Verdict.FAIL
                report.explanation = ("bracket of %s and %s left the osp span"
                                      % (eu.render(), ev.render()))
                report.dimensions["pairs_checked"] = pairs
                return report
            for w in sample_polys:
                if apply(lhs, w) != apply(rhs, w):
                    report.verdict = Verdict.FAIL
                    report.explanation = (
                        "application mismatch at a=%s, b=%s on %s"
                        % (eu.render(), ev.render(), w.render()))
                    report.dimensions["pairs_checked"] = pairs
                    return report
    report.dimensions["pairs_checked"] = pairs
    report.explanation = "all %d ordered basis pairs agree in normal form" % pairs
    return report


def _first_order_atoms(scheme: GradingScheme) -> List[Tuple[VariableId, VariableId]]:
    vs = scheme.variables()
    return [(u, v) for u in vs for v in vs]


def _operator_atom_row(op: DiffOperator,
                       atom_index: Dict[Tuple[VariableId, VariableId], int]
                       ) -> List[Fraction]:
    row = [Fraction(0)] * len(atom_index)
    for w, c in op.atoms():
        mvars = w.mult.variables()
        dvars = tuple(v for v, e in w.dbos for _ in range(e)) + w.dferm
        if len(mvars) != 1 or len(dvars) != 1 or w.mult.degree() != 1:
            raise ValueError("operator is not first order: " + op.render())
        row[atom_index[(mvars[0], dvars[0])]] = c
    return row


def osp_stabilizer_check(scheme: GradingScheme) -> VerificationReport:
    """Characterize osp as the stabilizer of the quadratic invariant.

    Inside the space W spanned by all first-order atoms u * d_v, the
    solution set of T(eta) = 0 must have exactly the osp dimension,
    contain every represented basis element, and exclude the control
    atom x1 * d_x1.  Natural variants only: the twisted eta is an
    operator, not a polynomial, so T(eta) has no meaning there.
    """
    if scheme.kind not in (SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_ODD_NATURAL):
        raise ValueError(
            "stabilizer characterization requires a natural osp scheme; "
            "twisted variants realize eta as an operator, not a polynomial")
    space = algebra_space(scheme)
    eta_poly = apply(named_operator("ETA", scheme), SuperPolynomial.one())
    atoms = _first_order_atoms(scheme)
    atom_index = {a: i for i, a in enumerate(atoms)}
    atom_ops = [_atom(1, [u], [v]) for u, v in atoms]
    images = [apply(op, eta_poly) for op in atom_ops]
    img_rows, _ = poly_matrix(images)
    # kernel of c -> sum_i c_i T_i(eta): null space of the transposed matrix
    transposed = [list(col) for col in zip(*img_rows)]
    kernel_rows = nullspace(transposed, len(atoms))
    kernel_dim = len(kernel_rows)
    expected = space.lie_dimension()
    rep_rows = [_operator_atom_row(rep_operator(e, scheme), atom_index)
                for e in osp_basis(space)]
    rep_rank = rank(rep_rows)
    included = all(rank(kernel_rows + [row]) == kernel_dim for row in rep_rows)
    control = _operator_atom_row(_atom(1, [x(1)], [x(1)]), atom_index)
    control_excluded = rank(kernel_rows + [control]) > kernel_dim
    ok = (kernel_dim == expected and included and control_excluded
          and rep_rank == expected)
    report = VerificationReport(
        check="osp-stabilizer",
        scheme=scheme.kind.value,
        params=scheme.params(),
        dimensions={
            "atom_count": len(atoms),
            "kernel_dimension": kernel_dim,
            "expected_dimension": expected,
            "representation_rank": rep_rank,
        },
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        explanation=("kernel of T -> T(eta) matches osp: dimension %d, all "
                     "represented basis elements inside, control atom "
                     "x1*d_x1 outside" % kernel_dim) if ok else
                    "stabilizer characterization failed",
    )
    return report
