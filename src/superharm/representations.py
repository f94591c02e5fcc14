"""Lie-superalgebra elements and their differential-operator realizations.

Three matrix superalgebras act on the polynomial algebra:

* ``gl(n|m)``            — ambient basis: all matrix units E[a,b], a,b in 1..n+m,
                           where indices > n are odd;
* ``osp(2n|2m)``         — realized inside gl(2n|2m) (indices 1..2n+2m, odd
                           past 2n) as the stabilizer of the quadratic
                           invariant;
* ``osp(2n+1|2m)``       — same with one extra even index 0.

One partner map and one sign state osp: X lies in osp exactly when
X[a,b] + eps(a,b) X[b*,a*] = 0.  The osp basis, the membership test and
the natural gl(n|m) units (gl(n|m) inside osp(2n|2m)) all read it.

Each grading scheme of the algebra module carries a representation of the
matching superalgebra by differential operators.  The natural variants act
by first-order operators; the tables below give the natural image of every
matrix unit.  A twisted variant maps each unit to the image of its natural
operator under the automorphism sigma of `operators.twist`, which swaps
multiplication and differentiation on x_1..x_{n1} and y_{n2+1}..y_n and so
trades first-order atoms for products of two multipliers or two
derivatives.  Arbitrary elements extend linearly: an `AlgebraElement` is
an `algebra.LinearCombination` of the matrix units, keyed by (a, b).
Each space builds one table from unit key to parity, E[a,b] being odd
when exactly one of a, b is odd; `bracket`, `AlgebraElement.parity` and
`AlgebraSpace.unit_parities` all read it, and a key outside it raises
ValueError.

The Cartan basis and the positive-root generators used for weights and
singular vectors are read off the algebra basis, with the roots ordered
by eps_1 > ... > eps_n > delta_1 > ... > delta_m; the simple root vectors
among them are checked to generate all positive ones.  The module also provides
two self-contained checkers: an exhaustive bracket-homomorphism
verification, which forms one supercommutator per unordered pair of basis
operators and checks both ordered pairs from it, and the stabilizer
characterization of osp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    GradingScheme,
    LinearCombination,
    Scalar,
    SchemeKind,
    SuperPolynomial,
    VariableId,
    x,
)
from .linalg import nullspace, poly_matrix, rank, span_rank
from .operators import (DiffOperator, OpWord, _atom, named_operator,
                        super_commutator, twist)
from .report import InternalError, Verdict, VerificationReport


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

    def _bounds(self) -> Tuple[int, int, int]:
        """(first index, last index, last even index)."""
        if self.family is AlgebraFamily.GL:
            return 1, self.n + self.m, self.n
        low = 0 if self.family is AlgebraFamily.OSP_ODD else 1
        return low, 2 * (self.n + self.m), 2 * self.n

    def indices(self) -> range:
        low, top, _ = self._bounds()
        return range(low, top + 1)

    def unit_parities(self, keys) -> List[int]:
        """Parity of each matrix unit E[a,b], (a, b) in keys, read from
        the space's `_unit_parity_table`."""
        table = _unit_parity_table(self)
        return [table[key] for key in keys]

    def lie_dimension(self) -> int:
        """Dimension of the superalgebra itself (not the ambient gl)."""
        n, m = self.n, self.m
        if self.family is AlgebraFamily.GL:
            return (n + m) ** 2
        dim = n * (2 * n - 1) + m * (2 * m + 1) + 4 * n * m
        if self.family is AlgebraFamily.OSP_ODD:
            dim += 2 * n + 2 * m
        return dim


class _ParityTable(dict):
    """{(a, b): parity of E[a,b]}; a key outside the space raises ValueError."""

    def __missing__(self, key):
        raise ValueError(f"matrix unit E[{key[0]},{key[1]}] out of range")


@functools.lru_cache(maxsize=None)
def _unit_parity_table(space: AlgebraSpace) -> _ParityTable:
    """The parity of every matrix unit of the space, the one parity rule:
    E[a,b] is odd when exactly one of a, b is past the last even index."""
    low, top, last_even = space._bounds()
    rng = range(low, top + 1)
    return _ParityTable(((a, b), int((a > last_even) != (b > last_even)))
                        for a in rng for b in rng)


@functools.lru_cache(maxsize=None)
def algebra_space(scheme: GradingScheme) -> AlgebraSpace:
    if scheme.is_gl:
        fam = AlgebraFamily.GL
    elif scheme.has_x0:
        fam = AlgebraFamily.OSP_ODD
    else:
        fam = AlgebraFamily.OSP_EVEN
    return AlgebraSpace(fam, scheme.n, scheme.m)


class AlgebraElement(LinearCombination):
    """Finite rational combination of matrix units E[a,b], keyed by (a, b),
    in a fixed space; only elements of the same space combine or compare."""

    __slots__ = ("space",)
    key_order = staticmethod(lambda k: k)
    key_render = staticmethod(lambda k: f"E[{k[0]},{k[1]}]")

    def __init__(self, space: AlgebraSpace, terms: Dict[Tuple[int, int], Scalar]):
        super().__init__(terms)
        self.space = space

    def _like(self, terms):
        return AlgebraElement(self.space, terms)

    # ---- constructors ----

    @staticmethod
    def zero(space: AlgebraSpace) -> "AlgebraElement":
        return AlgebraElement(space, {})

    @staticmethod
    def unit(space: AlgebraSpace, a: int, b: int) -> "AlgebraElement":
        rng = space.indices()
        if a not in rng or b not in rng:
            raise ValueError(f"matrix unit E[{a},{b}] out of range")
        return AlgebraElement(space, {(a, b): 1})

    def parity(self) -> Optional[int]:
        """0/1 when homogeneous, None for mixed or zero."""
        if not self._terms:
            return None
        ps = set(self.space.unit_parities(self._terms))
        return ps.pop() if len(ps) == 1 else None

    def _require_same_space(self, other: "AlgebraElement") -> None:
        if self.space != other.space:
            raise ValueError("algebra elements live in different spaces")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_space(other)
        return super().__add__(other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_space(other)
        return super().__sub__(other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.space == other.space and self._terms == other._terms)

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self._terms.items())))


def bracket(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Super-bracket [u, v] = uv - (-1)^{|u||v|} vu, extended bilinearly.

    On units: [E_ab, E_cd] = d_bc E_ad - (-1)^{p(ab) p(cd)} d_da E_cb.
    """
    u._require_same_space(v)
    parity = _unit_parity_table(u.space)
    acc: Dict[Tuple[int, int], Scalar] = {}
    vterms = [(c, d, cv, parity[c, d]) for (c, d), cv in v._terms.items()]
    for (a, b), cu in u._terms.items():
        pu = parity[a, b]
        for c, d, cv, pv in vterms:
            coeff = cu * cv
            if b == c:
                acc[(a, d)] = acc.get((a, d), 0) + coeff
            if d == a:
                sgn = -1 if (pu and pv) else 1
                acc[(c, b)] = acc.get((c, b), 0) - sgn * coeff
    return AlgebraElement(u.space, acc)


# ===================================================================
# osp inside the ambient gl: one partner map, one sign
# ===================================================================

def _partner(n: int, m: int, a: int) -> int:
    """The index the invariant form pairs with a: x_i <-> y_i,
    th_r <-> vt_r, x0 <-> x0."""
    if a == 0:
        return 0
    if a <= 2 * n:
        return a + n if a <= n else a - n
    return a + m if a <= 2 * n + m else a - m


def _form_sign(n: int, m: int, a: int, b: int) -> int:
    """eps(a,b) = j(a) j(b) (-1)^{|a|(|b|+1)}, j = -1 on the vt indices
    and +1 elsewhere: X lies in osp exactly when it solves
    X[a,b] + eps(a,b) X[b*,a*] = 0 for every key (a, b), b* = _partner(b)."""
    sign = -1 if a > 2 * n >= b else 1
    if (a > 2 * n + m) != (b > 2 * n + m):
        sign = -sign
    return sign


def _osp_terms(n: int, m: int, a: int, b: int) -> Dict[Tuple[int, int], int]:
    """{key: coefficient} of E[a,b] - eps(a,b) E[b*,a*], the osp element
    of the key (a, b); 2 E[a,b] where the key is its own mirror."""
    mirror = (_partner(n, m, b), _partner(n, m, a))
    terms = {(a, b): 1}
    terms[mirror] = terms.get(mirror, 0) - _form_sign(n, m, a, b)
    return terms


def osp_basis(space: AlgebraSpace) -> List[AlgebraElement]:
    """Basis of osp inside the ambient gl: `_osp_terms` of one key per
    mirror pair.  Even keys (x_i, x_j), (th_r, th_s), then (x_i, y_j),
    (y_i, x_j) for i < j and (th_r, vt_s), (vt_r, th_s) for r <= s; odd
    keys (x_i, th_r), (th_r, x_i), (x_i, vt_r), (y_i, th_r); on the odd
    variant the row-0 keys (0, x_i), (0, y_i), (0, th_r), (0, vt_r)."""
    if space.family is AlgebraFamily.GL:
        raise ValueError("osp basis requested for a gl space")
    n, m = space.n, space.m
    xs = range(1, n + 1)  # y_i = x_i + n, vt_r = th_r + m
    ths = range(2 * n + 1, 2 * n + m + 1)
    keys = [(i, j) for i in xs for j in xs]
    keys += [(r, s) for r in ths for s in ths]
    keys += [k for i in xs for j in xs if i < j for k in ((i, n + j), (n + i, j))]
    keys += [k for r in ths for s in ths if r <= s
             for k in ((r, s + m), (r + m, s))]
    keys += [k for i in xs for r in ths
             for k in ((i, r), (r, i), (i, r + m), (n + i, r))]
    if space.family is AlgebraFamily.OSP_ODD:
        keys += [k for i in xs for k in ((0, i), (0, n + i))]
        keys += [k for r in ths for k in ((0, r), (0, r + m))]
    return [AlgebraElement(space, _osp_terms(n, m, a, b)) for a, b in keys]


def is_orthosymplectic(elem: AlgebraElement) -> bool:
    """Whether elem solves the osp equation; its own keys suffice, since
    a nonzero entry at another key's mirror fails its own equation."""
    space = elem.space
    if space.family is AlgebraFamily.GL:
        raise ValueError("membership test is for osp ambient spaces")
    n, m = space.n, space.m
    terms = elem._terms
    for (a, b), c in terms.items():
        mirror = (_partner(n, m, b), _partner(n, m, a))
        if c + _form_sign(n, m, a, b) * terms.get(mirror, 0):
            return False
    return True


def algebra_basis(scheme: GradingScheme) -> List[AlgebraElement]:
    """Basis of the superalgebra acting in the given scheme."""
    space = algebra_space(scheme)
    if space.family is AlgebraFamily.GL:
        return [AlgebraElement.unit(space, a, b)
                for a in space.indices() for b in space.indices()]
    return osp_basis(space)


@functools.lru_cache(maxsize=None)
def cartan_basis(scheme: GradingScheme) -> Tuple[AlgebraElement, ...]:
    """The diagonal basis elements, in basis order: eps_1..eps_n, then
    delta_1..delta_m."""
    return tuple(e for e in algebra_basis(scheme)
                 if all(a == b for (a, b), _ in e.items()))


@functools.lru_cache(maxsize=None)
def _cartan_operators(scheme: GradingScheme) -> Tuple[DiffOperator, ...]:
    """The operators of `cartan_basis`, in its order, that `weight_of` reads."""
    return tuple(rep_operator(h, scheme) for h in cartan_basis(scheme))


def _root(h: AlgebraElement, g: AlgebraElement) -> Fraction:
    """The scalar alpha with [h, g] = alpha * g."""
    key, c = next(iter(g.items()))
    br = bracket(h, g)
    alpha = Fraction(br.coefficient(key), c)
    if br != g.scale(alpha):
        raise InternalError(f"{g.render()} is not a root vector")
    return alpha


@functools.lru_cache(maxsize=None)
def _positive_roots(scheme: GradingScheme
                    ) -> Tuple[Tuple[AlgebraElement, Tuple[Fraction, ...]], ...]:
    """(g, root of g) for the basis elements whose root is positive: the
    first nonzero entry of (alpha(h) for h in cartan_basis) is positive,
    which orders the roots by eps_1 > ... > eps_n > delta_1 > ... > delta_m."""
    hs = cartan_basis(scheme)
    out = []
    for g in algebra_basis(scheme):
        root = tuple(_root(h, g) for h in hs)
        if next((a for a in root if a), 0) > 0:
            out.append((g, root))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def positive_generators(scheme: GradingScheme) -> Tuple[AlgebraElement, ...]:
    """The basis elements whose root is positive, in basis order."""
    return tuple(g for g, _ in _positive_roots(scheme))


def _require_generates(simple: Sequence[AlgebraElement],
                       positive: Sequence[AlgebraElement]) -> None:
    """Raise InternalError unless the iterated brackets of `simple` span
    every element of `positive`.

    The brackets are collected level by level, [s, b] for s in `simple` and
    b in the previous level, keeping one bracket per support; n+ is
    nilpotent and there are finitely many supports, so the levels run out.
    Every kept element is an iterated bracket, so dropping repeats can only
    make the check fail, never pass wrongly.
    """
    seen = {frozenset(k for k, _ in s.items()) for s in simple}
    collected = list(simple)
    level = list(simple)
    while level:
        nxt = []
        for s in simple:
            for b in level:
                br = bracket(s, b)
                support = frozenset(k for k, _ in br.items())
                if support and support not in seen:
                    seen.add(support)
                    nxt.append(br)
        collected.extend(nxt)
        level = nxt
    spanned = span_rank(collected)
    if span_rank([*collected, *positive]) != spanned:
        raise InternalError("the simple root vectors do not generate n+")


@functools.lru_cache(maxsize=None)
def simple_generators(scheme: GradingScheme) -> Tuple[AlgebraElement, ...]:
    """The positive generators whose root is not the sum of two positive
    roots (one root may be taken twice), in basis order: the simple root
    vectors, which generate n+ (Kac, Adv. Math. 26, 1977).  That they do is
    checked exactly on every new scheme by `_require_generates`."""
    pos = _positive_roots(scheme)
    sums = {tuple(a + b for a, b in zip(r1, r2))
            for i, (_, r1) in enumerate(pos) for _, r2 in pos[i:]}
    simple = tuple(g for g, r in pos if r not in sums)
    _require_generates(simple, positive_generators(scheme))
    return simple


# ===================================================================
# per-unit operator tables
# ===================================================================

def _osp_ambient_variable(scheme: GradingScheme, a: int) -> VariableId:
    """The variable of ambient index a: the indices 0 (x0, odd kinds only),
    1..n, n+1..2n, 2n+1..2n+m, 2n+m+1..2n+2m follow `scheme.variables()`
    (so do a gl scheme's)."""
    return scheme.variables()[a if scheme.has_x0 else a - 1]


def _osp_natural_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    return _atom(1, [_osp_ambient_variable(scheme, a)],
                 [_osp_ambient_variable(scheme, b)])


def _gl_natural_unit(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    """The unit E[a,b] acts as the osp(2n|2m) element `_osp_terms` of its
    key embedded on the x and th indices (i > n goes to n + i)."""
    n = scheme.n
    embed = lambda i: i if i <= n else n + i
    op = DiffOperator.zero()
    for (c, d), k in _osp_terms(n, scheme.m, embed(a), embed(b)).items():
        op = op + _osp_natural_unit(scheme, c, d).scale(k)
    return op


@functools.lru_cache(maxsize=None)
def _unit_operator(scheme: GradingScheme, a: int, b: int) -> DiffOperator:
    natural = _gl_natural_unit if scheme.is_gl else _osp_natural_unit
    op = natural(scheme, a, b)
    return twist(op, scheme) if scheme.is_twisted else op


def rep_operator(elem: AlgebraElement, scheme: GradingScheme) -> DiffOperator:
    """Differential operator representing an algebra element."""
    if elem.space != algebra_space(scheme):
        raise ValueError("element does not belong to this scheme's algebra")
    acc: Dict[OpWord, Scalar] = {}
    for (a, b), c in elem.items():
        for w, cw in _unit_operator(scheme, a, b).items():
            acc[w] = acc.get(w, 0) + c * cw
    return DiffOperator(acc)


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
    for op in _cartan_operators(scheme):
        q = op.apply(p)
        lam = Fraction(q.coefficient(lead_mono), lead_coeff)
        if q != p.scale(lam):
            return NOT_A_WEIGHT_VECTOR
        weight.append(lam)
    return tuple(weight)


# ===================================================================
# checkers
# ===================================================================

def verify_homomorphism(rep: GradingScheme) -> VerificationReport:
    """Check rho([a,b]) = rho(a)rho(b) - (-1)^{|a||b|} rho(b)rho(a) for
    every ordered pair of algebra basis elements, as an exact equality of
    normal-form operators.  For osp the bracket is additionally checked
    to solve the osp equation.  "sample_dimension" stays in the report
    as a constant 0 so that the report format does not change.

    The loop runs over unordered pairs {a, b}: it forms the one
    supercommutator c = rho(a)rho(b) - s rho(b)rho(a), s = (-1)^{|a||b|},
    and checks (a, b) against c and (b, a) against -s c.  The associated
    graded algebra is supercommutative, so each atom pair's uncontracted
    terms cancel from c; `operators.super_commutator` never builds them,
    and skips the atom pairs whose variables do not meet.  When [b, a] =
    -s [a, b], as it is in a Lie superalgebra, rho is linear and the osp
    span a subspace, so (b, a) passes or fails with (a, b): its bracket's
    operator is neither built nor compared, and its right-hand side -s c is
    built only when it is.  Every ordered pair still forms its bracket, n^2
    `bracket` calls in all, since that per-pair equality is what lets
    (b, a) be skipped.  A FAIL names the first failing ordered pair in
    row-major order, with pairs_checked its row-major position; (a, b)
    with a < b comes before (b, a).
    """
    basis = algebra_basis(rep)
    space = algebra_space(rep)
    ops = [rep_operator(e, rep) for e in basis]
    parities = [e.parity() for e in basis]
    n = len(basis)
    report = VerificationReport(
        check="bracket-homomorphism",
        scheme=rep.kind.value,
        params=rep.params(),
        dimensions={"algebra_dimension": n,
                    "pairs_checked": 0,
                    "sample_dimension": 0},
    )
    closure_checked = space.family is not AlgebraFamily.GL
    failures = []  # (row-major index, reason) of every failing ordered pair
    for i in range(n):
        for j in range(i, n):
            s = -1 if parities[i] and parities[j] else 1
            c = super_commutator(ops[i], ops[j])
            first = None
            for a, b in ((i, j), (j, i)) if j > i else ((i, j),):
                eu, ev = basis[a], basis[b]
                br = bracket(eu, ev)
                rhs = c
                if first is not None:
                    if br == (-first if s == 1 else first):
                        break  # (b, a) has the outcome of (a, b), which comes first
                    rhs = -c if s == 1 else c
                first = br
                lhs = rep_operator(br, rep)
                if lhs != rhs:
                    why = ("normal-form mismatch at a=%s, b=%s: rho([a,b]) - "
                           "(rho(a)rho(b) -+ rho(b)rho(a)) = %s"
                           % (eu.render(), ev.render(), (lhs - rhs).render()))
                elif (closure_checked and not br.is_zero()
                      and not is_orthosymplectic(br)):
                    why = ("bracket of %s and %s left the osp span"
                           % (eu.render(), ev.render()))
                else:
                    continue
                failures.append((a * n + b, why))
    if failures:
        index, why = min(failures)
        report.verdict = Verdict.FAIL
        report.explanation = why
        report.dimensions["pairs_checked"] = index + 1
        return report
    report.dimensions["pairs_checked"] = n * n
    report.explanation = "all %d ordered basis pairs agree in normal form" % (n * n)
    return report


def _first_order_atoms(scheme: GradingScheme) -> List[Tuple[VariableId, VariableId]]:
    vs = scheme.variables()
    return [(u, v) for u in vs for v in vs]


def _operator_atom_row(op: DiffOperator,
                       atom_index: Dict[Tuple[VariableId, VariableId], int]
                       ) -> List[Scalar]:
    row = [0] * len(atom_index)
    for w, c in op.items():
        mvars = w.mult.variables()
        dvars = tuple(v for v, e in w.dbos for _ in range(e)) + w.dferm
        if len(mvars) != 1 or len(dvars) != 1 or w.mult.degree() != 1:
            raise InternalError("operator is not first order: " + op.render())
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
    eta_poly = named_operator("ETA", scheme).apply(SuperPolynomial.one())
    atoms = _first_order_atoms(scheme)
    atom_index = {a: i for i, a in enumerate(atoms)}
    atom_ops = [_atom(1, [u], [v]) for u, v in atoms]
    images = [op.apply(eta_poly) for op in atom_ops]
    img_rows, _ = poly_matrix(images)
    # kernel of c -> sum_i c_i T_i(eta): null space of the transposed matrix
    transposed = [list(col) for col in zip(*img_rows)]
    kernel_rows = nullspace(transposed, len(atoms))
    kernel_dim = len(kernel_rows)
    expected = space.lie_dimension()
    rep_rows = [_operator_atom_row(rep_operator(e, scheme), atom_index)
                for e in osp_basis(space)]
    rep_rank = rank(rep_rows)
    # every represented element lies in the kernel iff none of them raises its rank
    included = rank(kernel_rows + rep_rows) == kernel_dim
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
