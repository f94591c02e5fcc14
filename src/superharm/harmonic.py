"""Harmonic decomposition of graded slices: kernels, bases, singular
vectors, irreducibility predicates, and the verification suites.

Everything reduces to exact linear algebra over the rationals on the
graded slices of the polynomial algebra and their harmonic parts
H = ker Delta, organized along three levers:

* weight blocking — the Cartan elements act diagonally on monomials;
  Delta and eta keep weights and each positive generator shifts them
  uniformly (proved from the atoms), so kernels split blockwise.
* capped windows — a twisted slice is infinite dimensional and is checked
  inside a degree window: exact vectors violating an exact claim FAIL,
  and a claim reaching beyond the window is INCONCLUSIVE_CAP, not PASS.
* one table per theorem suite — the operators, slices, kernels and each
  kernel's weight grouping are built once, however many reports read them.

Every solver output is re-verified before it is reported (operator
application, for Delta from the images its solve read; rank re-checks),
so a bug in the blocked elimination cannot silently produce a PASS.
"""

from __future__ import annotations

import functools
import itertools
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    GradedSlice,
    GradingScheme,
    Label,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    _variable_groups,
    enumerate_slice,
    label_degree,
    theta,
    vartheta,
    x,
    x0,
    y,
)
from .linalg import (
    each_owns_a_monomial,
    independent_subset,
    joint_kernel_basis_polys,
    kernel_basis_polys,
    span_rank,
    span_ranks,
)
from .operators import (
    DiffOperator,
    ImageTable,
    named_operator,
    number_operator,
    super_commutator,
    xu_solve,
)
from .report import InternalError, Verdict, VerificationReport
from .representations import (
    NOT_A_WEIGHT_VECTOR,
    positive_generators,
    rep_operator,
    simple_generators,
    weight_of,
)


# ===================================================================
# weights of monomials (the blocking key)
# ===================================================================

def _integral(values: Sequence[Fraction], what: str) -> Tuple[int, ...]:
    for v in values:
        if v.denominator != 1:
            raise InternalError(f"non-integral {what} {v} in the weight table")
    return tuple(int(v) for v in values)


@functools.lru_cache(maxsize=None)
def _weight_table(scheme: GradingScheme):
    """(vacuum weight, per-variable steps) of the scheme, all integral; a
    variable's step is one (index, step) pair, (0, 0) if it moves no Cartan
    entry, and one that moves two is an InternalError."""
    base = weight_of(SuperPolynomial.one(), scheme)
    steps = {}
    for v in scheme.variables():
        wv = weight_of(SuperPolynomial.variable(v), scheme)
        step = _integral([a - b for a, b in zip(wv, base)], f"step of {v.name()}")
        moved = [(i, s) for i, s in enumerate(step) if s] or [(0, 0)]
        if len(moved) > 1:
            raise InternalError(f"{v.name()} moves two Cartan entries")
        steps[v] = moved[0]
    return _integral(base, "vacuum weight"), steps


def monomial_weight(mono: SuperMonomial, scheme: GradingScheme) -> Tuple[int, ...]:
    """Weight of a monomial under the scheme's Cartan action, the key of
    every weight block: the Cartan operators act on a monomial by scalars
    affine in its exponents, so it is the vacuum weight plus the steps of
    its variables, read from the scheme's step table on every call."""
    base, steps = _weight_table(scheme)
    acc = list(base)
    for v, e in mono.bos:
        i, s = steps[v]
        acc[i] += e * s
    for v in mono.ferm:
        i, s = steps[v]
        acc[i] += s
    return tuple(acc)


def _by_weight(scheme: GradingScheme, family) -> Dict[Tuple[int, ...], list]:
    """The family grouped by weight in first-seen order.  A member is a
    monomial, grouped by its weight, or a polynomial, which must be
    weight-homogeneous."""
    groups: Dict[Tuple[int, ...], list] = {}
    for p in family:
        wts = ({monomial_weight(p, scheme)} if isinstance(p, SuperMonomial)
               else {monomial_weight(m, scheme) for m, _ in p.items()})
        if len(wts) != 1:
            raise InternalError("expected a weight-homogeneous vector: " + p.render())
        wt, = wts
        groups.setdefault(wt, []).append(p)
    return groups


def _group_polys_by_weight(scheme: GradingScheme, *families):
    """Each weight's part of every family, {weight: [part of each family]}
    in first-seen order, for reading only: a `HarmonicBasis` gives its
    `by_weight`, another family is grouped by `_by_weight`."""
    groups: Dict[Tuple[int, ...], list] = {}
    for f, family in enumerate(families):
        parts = (family.by_weight if isinstance(family, HarmonicBasis)
                 else _by_weight(scheme, family))
        for wt, part in parts.items():
            groups.setdefault(wt, [()] * len(families))[f] = part
    return groups


def _weight_shift(op: DiffOperator, scheme: GradingScheme) -> Tuple[int, ...]:
    """The weight shift all the operator's atoms share, else InternalError:
    an atom u * d^w moves a weight by weight(u) - weight(w), so when they
    agree the operator maps distinct weight blocks into distinct blocks."""
    weight = functools.partial(monomial_weight, scheme=scheme)
    shifts = {tuple(a - b for a, b in zip(weight(w.mult),
                                          weight(SuperMonomial(w.dbos, w.dferm))))
              for w, _ in op.items()}
    if len(shifts) != 1:
        raise InternalError(f"an operator's atoms shift weights unevenly: {sorted(shifts)}")
    return shifts.pop()


# ===================================================================
# harmonic bases
# ===================================================================

@dataclass(frozen=True)
class HarmonicBasis:
    """A checked basis of a slice's harmonic part; `by_weight` groups it
    once for every report that reads it."""

    slice: GradedSlice
    vectors: Tuple[SuperPolynomial, ...]

    def dimension(self) -> int:
        return len(self.vectors)

    @functools.cached_property
    def by_weight(self) -> dict:
        """The vectors by weight (`_by_weight`), grouped once per basis."""
        return _by_weight(self.slice.scheme, self.vectors)


def _check_harmonic_invariants(sl: GradedSlice, vectors, delta):
    for v in vectors:
        if not delta.apply(v).is_zero():
            raise InternalError("harmonic basis vector not annihilated: " + v.render())
    if each_owns_a_monomial(vectors):
        return
    for block in _by_weight(sl.scheme, vectors).values():
        if span_rank(block) != len(block):
            raise InternalError("harmonic basis vectors are dependent")


def harmonic_kernel(sl: GradedSlice) -> HarmonicBasis:
    """Exact kernel of the scheme's Delta (the table's) on the slice span.

    Delta never raises total degree in any variant, so the kernel of the
    capped slice consists of exact harmonic vectors (their images are
    computed without truncation).  Delta's images are cached for the
    call, and each vector is re-verified as their exact combination.
    """
    delta = ImageTable((_suite_table.get() or _SliceTable()).operator(sl.scheme, "DELTA"))
    vectors = kernel_basis_polys(
        delta, sl.basis, block_key=functools.partial(monomial_weight, scheme=sl.scheme))
    _check_harmonic_invariants(sl, vectors, delta)
    return HarmonicBasis(sl, tuple(vectors))


class _SliceTable:
    """What a theorem suite's reports read many times (a natural grid's
    decompositions read every slice below each label), built once and
    dropped with the suite: the scheme's operators, its complete slices and
    their checked harmonic kernels with their `by_weight` groupings.

    A capped window (every twisted slice) is not kept: a twisted label's
    summands sit at its own internal cap (cap + 2 * i_max), which no other
    label reads.  A miss calls the module-level builders, so every kernel
    has passed `_check_harmonic_invariants`.  A natural slice capped at or
    above its degree is held once, uncapped.
    """

    def __init__(self):
        self._slices: Dict[tuple, GradedSlice] = {}
        self._kernels: Dict[tuple, HarmonicBasis] = {}
        self._operators: Dict[tuple, object] = {}

    def operator(self, scheme: GradingScheme, name: str):
        """A `named_operator`, proved to keep weights, or "N+": {g:
        rep_operator(g)} over n+, each proved to shift evenly; built once
        per table."""
        key = scheme, name
        if key not in self._operators:
            if name == "N+":
                ops = {g: rep_operator(g, scheme) for g in positive_generators(scheme)}
                for op in ops.values():
                    _weight_shift(op, scheme)
            else:
                ops = named_operator(name, scheme)
                if any(_weight_shift(ops, scheme)):
                    raise InternalError(f"{name.lower()} moves weights")
            self._operators[key] = ops
        return self._operators[key]

    @staticmethod
    def _key(scheme: GradingScheme, label: Label, cap: Optional[int]) -> tuple:
        if cap is not None and not scheme.is_twisted and cap >= label_degree(label):
            cap = None
        return scheme, label, cap

    def slice(self, scheme: GradingScheme, label: Label,
              cap: Optional[int]) -> GradedSlice:
        key = self._key(scheme, label, cap)
        sl = self._slices.get(key)
        if sl is None:
            sl = enumerate_slice(*key)
            if sl.complete:
                self._slices[key] = sl
        return sl

    def kernel(self, scheme: GradingScheme, label: Label,
               cap: Optional[int]) -> HarmonicBasis:
        key = self._key(scheme, label, cap)
        hb = self._kernels.get(key)
        if hb is None:
            # a lone report's table is the context's while it builds Delta
            token = _suite_table.set(self)
            try:
                hb = harmonic_kernel(self.slice(*key))
            finally:
                _suite_table.reset(token)
            if hb.slice.complete:
                self._kernels[key] = hb
        return hb


# The table of the suite running in this context; a lone report makes its
# own.  Reports find it here, not as an argument, so each keeps its name.
_suite_table: ContextVar[Optional[_SliceTable]] = ContextVar(
    "suite_table", default=None)


def has_formula_basis(scheme: GradingScheme) -> bool:
    """Whether xu_basis has a closed formula for the scheme: the gl schemes
    and the x0 ladders do, the even osp schemes do not."""
    return scheme.is_gl or scheme.has_x0


def _xu_gl(sl: GradedSlice) -> List[SuperPolynomial]:
    """One series per slice monomial with x_c- or y_c-exponent zero, in the
    column c = 1 (natural) or c = n1+1 (twisted), t1 = d_xc d_yc."""
    c = sl.scheme.n1 + 1 if sl.scheme.is_twisted else 1
    seeds = [SuperPolynomial.monomial(mono) for mono in sl.basis
             if not (mono.exponent(x(c)) and mono.exponent(y(c)))]
    return xu_solve(sl.scheme, ((x(c), 1), (y(c), 1)), seeds)


def _even_partner(scheme: GradingScheme) -> GradingScheme:
    """The even osp scheme with the parameters of an odd (x0) one."""
    kind = (SchemeKind.OSP_EVEN_NATURAL
            if scheme.kind is SchemeKind.OSP_ODD_NATURAL
            else SchemeKind.OSP_EVEN_TWISTED)
    return GradingScheme(kind, scheme.n, scheme.m, scheme.n1, scheme.n2)


def _xu_osp_odd(sl: GradedSlice) -> List[SuperPolynomial]:
    """The two-parity x0 series: seeds x0^iota times the even-scheme slice
    of label k - iota, t1 = d_x0^2, t2 = 2 * (x0-free Delta)."""
    scheme = sl.scheme
    even_scheme = _even_partner(scheme)
    seeds = []
    for h, iota in ((SuperPolynomial.one(), 0), (SuperPolynomial.variable(x0()), 1)):
        seeds.extend(h * SuperPolynomial.monomial(mono) for mono in enumerate_slice(
            even_scheme, sl.label - iota, sl.degree_cap).basis)
    return xu_solve(scheme, ((x0(), 2),), seeds)


def xu_basis(sl: GradedSlice) -> HarmonicBasis:
    """Harmonic basis from the explicit one-seed-per-monomial formulas,
    each seed solved by xu_solve's alternating series: natural gl (seeds
    with x1- or y1-exponent zero), twisted gl (the same in the n1+1 column)
    and the x0 ladders (the two-parity x0 series over even-scheme slices).
    The even osp schemes have no closed formula here and raise.
    """
    if not has_formula_basis(sl.scheme):
        raise ValueError("no formula basis for the even osp schemes")
    spanning = _xu_gl(sl) if sl.scheme.is_gl else _xu_osp_odd(sl)
    # reduce to an independent family, blockwise for tractability
    groups = _by_weight(sl.scheme, [p for p in spanning if not p.is_zero()])
    vectors: List[SuperPolynomial] = []
    for _, block in sorted(groups.items()):  # the weights are distinct
        vectors.extend(block[i] for i in independent_subset(block))
    _check_harmonic_invariants(sl, vectors, named_operator("DELTA", sl.scheme))
    return HarmonicBasis(sl, tuple(vectors))


# ===================================================================
# singular vectors
# ===================================================================

@dataclass(frozen=True)
class SingularVectorSet:
    slice: GradedSlice
    entries: Tuple[Tuple[Tuple[Fraction, ...], SuperPolynomial], ...]

    @property
    def complete(self) -> bool:
        return self.slice.complete

    def count(self) -> int:
        return len(self.entries)

    def polys(self) -> List[SuperPolynomial]:
        return [p for _, p in self.entries]

    def report_entries(self) -> List[dict]:
        """The entries as a report lists them: rendered vector and weight."""
        return [{"vector": p.render(), "weight": [str(c) for c in wt]}
                for wt, p in self.entries]


def singular_vectors(sl: GradedSlice) -> SingularVectorSet:
    """All weight vectors of H on the slice killed by every positive
    generator, up to scalar (leading coefficient 1): Delta joins the
    annihilation system, the counting convention of the uniqueness lemmas.

    Of the table's operators the solve uses the simple root vectors and
    Delta: they generate n+ (`simple_generators` checks it) and rho is a
    homomorphism, so the joint kernel is that of all of n+ and Delta.
    Each vector found is re-verified against all of n+ and Delta.
    """
    scheme = sl.scheme
    table = _suite_table.get() or _SliceTable()
    op_of, delta = table.operator(scheme, "N+"), table.operator(scheme, "DELTA")
    solve_ops = [*(op_of[g] for g in simple_generators(scheme)), delta]
    found = joint_kernel_basis_polys(
        solve_ops, sl.basis, block_key=functools.partial(monomial_weight, scheme=scheme))
    ops = [*op_of.values(), delta]
    entries = []
    for v in found:
        v = v.scale(Fraction(1, v.terms()[0][1]))
        wt = weight_of(v, scheme)
        if wt is NOT_A_WEIGHT_VECTOR:
            raise InternalError("solver produced a non-weight vector")
        # re-verification against all of n+ and Delta by direct application
        for op in ops:
            if not op.apply(v).is_zero():
                raise InternalError("solver produced a non-singular vector")
        entries.append((wt, v))
    entries.sort(key=lambda e: (e[0], e[1].terms()[0][0].sort_key()))
    if len({v for _, v in entries}) != len(entries):
        raise InternalError("duplicate singular vectors reported")
    return SingularVectorSet(sl, tuple(entries))


# ===================================================================
# irreducibility predicates (the theorem criteria)
# ===================================================================

@dataclass(frozen=True)
class IrreducibilityVerdict:
    holds: bool
    clause: str

    def __bool__(self) -> bool:
        return self.holds


def _require_nat_pair(label) -> Tuple[int, int]:
    try:
        l, lp = label
    except (TypeError, ValueError) as err:
        raise ValueError("expected a pair label") from err
    if l < 0 or lp < 0:
        raise ValueError("natural gl labels live on non-negative pairs")
    return int(l), int(lp)


def criterion_constant(scheme: GradingScheme) -> Tuple[int, str]:
    """The constant c = m + 1 - e that every theorem criterion compares a
    label degree with, and its spelling in the clauses; e is the constant
    term of [DELTA_BAR, ETA_BAR], n on a natural scheme and n2 - n1 on a
    twisted one."""
    if scheme.is_twisted:
        return scheme.n1 + scheme.m + 1 - scheme.n2, "n1+m+1-n2"
    return scheme.m + 1 - scheme.n, "m+1-n"


def _degree_clause(scheme: GradingScheme, label: Label) -> IrreducibilityVerdict:
    """deg <= c holds and deg > c does not, for the label degree deg
    (l+lp or k) and the criterion constant c."""
    c, spelled = criterion_constant(scheme)
    deg = "l+lp" if scheme.is_gl else "k"
    if label_degree(label) <= c:
        return IrreducibilityVerdict(True, f"{deg} <= {spelled} = {c}")
    return IrreducibilityVerdict(False, f"{deg} > {spelled} = {c}")


def irreducibility_predicate(scheme: GradingScheme, label: Label) -> IrreducibilityVerdict:
    """The literal irreducibility criterion of the relevant theorem,
    together with which clause fired."""
    kind = scheme.kind
    n, m = scheme.n, scheme.m
    c, spelled = criterion_constant(scheme)
    if kind is SchemeKind.GL_NATURAL:
        if n <= 1:
            raise ValueError("the gl criterion is stated for n > 1")
        l, lp = _require_nat_pair(label)
        for name, value in (("l", l), ("lp", lp)):
            if value > c:
                return IrreducibilityVerdict(True, f"{name} > {spelled} = {c}")
        clause = _degree_clause(scheme, (l, lp))
        if clause.holds:
            return clause
        return IrreducibilityVerdict(False, f"l, lp <= {spelled} = {c} < l+lp")
    if kind is SchemeKind.GL_TWISTED:
        l, lp = int(label[0]), int(label[1])
        if scheme.n2 == n and lp < 0:
            raise ValueError("label outside the stated domain: lp >= 0 "
                             "is required when n2 = n")
        clause = _degree_clause(scheme, (l, lp))
        # with n2 = n, c = n1+m+1-n and the window is [n1+1-n, n1+m+1-n]
        if not clause.holds and scheme.n2 == n and not (c - m <= l <= c):
            return IrreducibilityVerdict(
                True, f"n2 = n and l outside [{c - m}, {c}]")
        return clause
    if kind is SchemeKind.OSP_EVEN_NATURAL:
        if n <= 1:
            raise ValueError("the even osp criterion is stated for n > 1")
        k = int(label)
        if k < 0:
            raise ValueError("natural osp labels are non-negative")
        clause = _degree_clause(scheme, k)
        if clause.holds:
            return clause
        if k > 2 * c:
            return IrreducibilityVerdict(True, f"k > 2({spelled}) = {2 * c}")
        return IrreducibilityVerdict(
            False, f"{spelled} = {c} < k <= 2({spelled}) = {2 * c}")
    if kind is SchemeKind.OSP_EVEN_TWISTED:
        return _degree_clause(scheme, int(label))
    # the x0 ladders: always irreducible
    if kind is SchemeKind.OSP_ODD_NATURAL and int(label) < 0:
        raise ValueError("natural osp labels are non-negative")
    return IrreducibilityVerdict(True, "always irreducible")


def _decomposition_hypothesis(scheme: GradingScheme, label: Label) -> IrreducibilityVerdict:
    """The hypothesis of the eta-power decomposition: the degree criterion,
    widened on gl-natural by |l-lp| > c; the x0 ladders need none."""
    if scheme.has_x0:
        return IrreducibilityVerdict(True, "unconditional")
    if scheme.kind is SchemeKind.GL_NATURAL:
        c, spelled = criterion_constant(scheme)
        l, lp = label
        if abs(l - lp) > c:
            return IrreducibilityVerdict(True, f"|l-lp| > {spelled} = {c}")
        if l + lp > c:
            return IrreducibilityVerdict(False, f"|l-lp| <= {c} and l+lp > {c}")
    return _degree_clause(scheme, label)


def _expected_singular_count(scheme: GradingScheme, label: Label) -> Optional[int]:
    """Exact singular-vector count in H per the uniqueness lemmas: 1 when the
    irreducibility criterion holds, else 2, or None on a twisted scheme,
    where the lemma only bounds the count below (capped twisted search)."""
    if irreducibility_predicate(scheme, label).holds:
        return 1
    return None if scheme.is_twisted else 2


# ===================================================================
# cross-checks and decomposition reports
# ===================================================================

def cross_check_irreducibility(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None
) -> VerificationReport:
    """Compare the singular-vector count in H with the uniqueness lemmas.

    Complete slices give definite verdicts.  In a capped window more exact
    vectors than the lemma allows FAIL, matching a uniqueness claim is only
    INCONCLUSIVE_CAP, and two exact vectors certify non-uniqueness (PASS).
    """
    pred = irreducibility_predicate(scheme, label)
    sl = (_suite_table.get() or _SliceTable()).slice(scheme, label, degree_cap)
    svs = singular_vectors(sl)
    count = svs.count()
    expected = _expected_singular_count(scheme, label)
    report = VerificationReport(
        check="irreducibility-cross-check",
        scheme=scheme.kind.value,
        params=scheme.params(),
        label=label,
        cap=degree_cap,
        dimensions={"slice": sl.dimension(), "singular_count": count},
        singular_vectors=svs.report_entries(),
        predicate=pred.holds,
        clause=pred.clause,
    )
    if expected is not None:
        report.dimensions["expected_count"] = expected
    if sl.complete:
        if expected is None:  # unreachable: incomplete slices only
            raise InternalError("no exact count for a complete slice")
        if count == expected:
            report.verdict = Verdict.PASS
            report.explanation = f"exact count {count} matches the lemma"
        else:
            report.verdict = Verdict.FAIL
            report.explanation = f"count {count} != expected {expected}"
        return report
    if expected is None:
        # the lemma claims at least two; exact witnesses certify it
        if count >= 2:
            report.verdict = Verdict.PASS
            report.explanation = (
                f"non-uniqueness certified by {count} exact vectors in the window")
        else:
            report.verdict = Verdict.INCONCLUSIVE_CAP
            report.explanation = (
                "expected a second singular vector; none appeared within the window")
        return report
    if count > expected:
        report.verdict = Verdict.FAIL
        report.explanation = (
            f"{count} exact singular vectors exceed the lemma's count {expected}")
    elif count == expected:
        report.verdict = Verdict.INCONCLUSIVE_CAP
        report.explanation = (
            f"count {count} matches within the window; uniqueness beyond "
            "the cap is not certified")
    else:
        report.verdict = Verdict.INCONCLUSIVE_CAP
        report.explanation = (
            f"only {count} of {expected} expected vectors appear within the window")
    return report


def _step_label(scheme: GradingScheme, label: Label, i: int) -> Label:
    if scheme.is_gl:
        return (label[0] - i, label[1] - i)
    return int(label) - 2 * i


def _eta_powers(eta: DiffOperator, hs, sub, summand_dims: List[int]):
    """One weight's nonzero eta^i h for h in hs[i], i >= 1, counted with
    hs[0] into summand_dims, and the nonzero eta images of the monomials
    sub, from one `ImageTable` made only when the weight applies eta."""
    summand_dims[0] += len(hs[0])
    powers: List[SuperPolynomial] = []
    if not sub and not any(hs[1:]):
        return powers, []
    table = ImageTable(eta)
    for i in range(1, len(hs)):
        images = hs[i]
        for _ in range(i):
            images = [table.apply(h) for h in images]
        images = [q for q in images if not q.is_zero()]
        summand_dims[i] += len(images)
        powers.extend(images)
    return powers, [SuperPolynomial(q) for q in table.images(sub) if q]


def decomposition_report(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None
) -> VerificationReport:
    """Check the eta-power direct-sum structure of one graded slice.

    Candidates are eta^i images of the stepped harmonic bases.  On a
    complete slice the check is exact: the candidates lie in it (one
    outside is an internal error), so independent ones span it when they
    are as many as its monomials.  On a capped slice the bases come from an
    enlarged window (cap + 2 * i_max); dependence is a definite FAIL, and a
    shortfall in spanning the capped window is INCONCLUSIVE_CAP.

    eta keeps weights, so each weight takes its part of the summand
    kernels (their `by_weight`), of a capped window's monomials and of the
    overlap witness, forms its candidates eta^i h from a table of eta's
    images that lives for that weight only, and runs one elimination; a
    weight that only window monomials reach leaves the window unspanned.

    The hypothesis is reported, never assumed: when it fails the same
    computation records whether the direct sum holds anyway, and the
    dimension of the H ∩ eta-image overlap that witnesses
    indecomposability when it does not.
    """
    hyp = _decomposition_hypothesis(scheme, label)
    table = _suite_table.get() or _SliceTable()
    window = table.slice(scheme, label, degree_cap)
    report = VerificationReport(
        check="decomposition",
        scheme=scheme.kind.value,
        params=scheme.params(),
        label=label,
        cap=degree_cap,
        dimensions={"window": window.dimension()},
        predicate=hyp.holds,
        clause=hyp.clause,
    )

    # ---- summation length ----
    if scheme.kind is SchemeKind.GL_NATURAL:
        i_max = min(label)
    elif not scheme.is_twisted:
        i_max = int(label) // 2
    else:
        bound = label[1] if (scheme.kind is SchemeKind.GL_TWISTED
                             and scheme.n2 == scheme.n) else None
        i_max = 0
        while (bound is None or i_max < bound) and table.slice(
                scheme, _step_label(scheme, label, i_max + 1), degree_cap).dimension():
            i_max += 1
    # a capped summand sits in the enlarged internal window
    summand_cap = None if degree_cap is None else degree_cap + 2 * i_max

    # ---- one weight at a time ----
    eta = table.operator(scheme, "ETA")
    complete = window.complete
    kernels = [table.kernel(scheme, _step_label(scheme, label, i), summand_cap)
               for i in range(i_max + 1)]
    witness = [[], []] if hyp.holds else [
        table.slice(scheme, _step_label(scheme, label, 1), degree_cap).basis,
        table.kernel(scheme, label, degree_cap)]
    groups = _group_polys_by_weight(
        scheme, *kernels, [] if complete else window.basis, *witness)
    inside = set(window.basis) if complete else ()
    summand_dims, independent, spanning, inter = [0] * (i_max + 1), True, True, 0
    for *hs, monos, sub, hv in groups.values():
        powers, ev = _eta_powers(eta, hs, sub if hv else [], summand_dims)
        # H itself is the complete window's kernel, so only powers can leave
        if complete and powers and any(
                u not in inside for p in powers for u, _ in p.items()):
            raise InternalError("an eta-power candidate leaves the complete slice")
        block = [*hs[0], *powers]
        # a lone nonzero candidate is independent; monomials must keep the rank
        if independent and (len(block) > 1 or monos):
            rank_block, rank_all = span_ranks(block, [
                SuperPolynomial.monomial(u) for u in monos] if spanning else [])
            independent = rank_block == len(block)
            spanning = spanning and rank_all == len(block)
        if ev and hv:
            # rank(H_w) = |H_w|: the kernel vectors were proved independent
            rank_eta, rank_sum = span_ranks(ev, hv)
            inter += len(hv) + rank_eta - rank_sum
    if complete:
        spanning = sum(summand_dims) == window.dimension()
    direct_sum = independent and spanning
    report.dimensions.update(summands=summand_dims, candidates=sum(summand_dims),
                             direct_sum_holds=direct_sum)

    # ---- verdict ----
    if not hyp.holds:
        report.dimensions["harmonic_eta_overlap"] = inter
        report.verdict = Verdict.PASS
        report.explanation = (
            "hypothesis fails; computationally the direct sum %s"
            % ("still holds" if direct_sum else "fails (overlap dimension %d)" % inter))
    elif not independent:
        report.verdict = Verdict.FAIL
        report.explanation = "candidate vectors are linearly dependent"
    elif not spanning and complete:
        report.verdict = Verdict.FAIL
        report.explanation = "candidates do not span the complete slice"
    elif not spanning:
        report.verdict = Verdict.INCONCLUSIVE_CAP
        report.explanation = ("candidates span only part of the window; "
                              "enlarge the cap to decide")
    else:
        report.verdict = Verdict.PASS
        report.explanation = (
            "direct sum verified: %s with total %d = window %d"
            % (" + ".join(str(d) for d in summand_dims),
               sum(summand_dims), window.dimension())
            if complete else "window spanned by independent eta-power candidates")
    return report


# ===================================================================
# basis comparison
# ===================================================================

def compare_bases(xu: HarmonicBasis, kern: HarmonicBasis) -> VerificationReport:
    """span(xu) == span(kern) for a formula and a kernel basis of one
    slice: plain span equality on a complete slice.  On a capped one the
    formula vectors may leave the window, so every kernel vector must lie
    in the formula span, which must meet the window in the kernel's
    dimension."""
    if xu.slice != kern.slice:
        raise InternalError("compare_bases needs two bases of the same slice")
    sl = xu.slice
    scheme = sl.scheme
    report = VerificationReport(
        check="basis-comparison",
        scheme=scheme.kind.value,
        params=scheme.params(),
        label=sl.label,
        cap=sl.degree_cap,
        dimensions={"kernel": kern.dimension(), "formula": xu.dimension()},
    )
    groups = _group_polys_by_weight(scheme, xu, kern)
    if sl.complete:
        ok = xu.dimension() == kern.dimension()
        for a, b in groups.values():
            rank_a, rank_ab = span_ranks(a, b)
            if rank_a != len(a) or span_rank(b) != len(b) or rank_ab != len(b):
                ok = False
                break
        report.verdict = Verdict.PASS if ok else Verdict.FAIL
        report.explanation = ("spans agree, dimension %d" % kern.dimension()
                              if ok else "span mismatch")
        return report
    # capped: dim(span(xu_w) ∩ window) is the rank lost outside the window
    window = set(sl.basis)
    contained, window_dim = True, 0
    for a, b in groups.values():
        rank_xu, rank_both = span_ranks(a, b)
        contained = contained and rank_xu == rank_both
        window_dim += rank_xu - span_rank(
            [SuperPolynomial({m: c for m, c in p.items() if m not in window}) for p in a])
    report.dimensions["formula_window"] = window_dim
    ok = contained and window_dim == kern.dimension()
    report.verdict = Verdict.PASS if ok else Verdict.FAIL
    report.explanation = (
        "window harmonics match the formula span" if ok else
        "kernel not contained in formula span" if not contained else
        "formula span meets the window in dimension %d != kernel %d"
        % (window_dim, kern.dimension()))
    return report


# ===================================================================
# operator identities
# ===================================================================

def _commutator_identities(scheme: GradingScheme, op: Callable[[str], DiffOperator]):
    """The scheme's pair-commutator identities, (name, lhs, rhs) triples of
    normal-form operators, op(name) giving each named operator: [Delta, eta]
    is a constant plus signed Euler operators.  The bosonic constant
    e = m + 1 - c (c the criterion constant) checks what the criteria read;
    the bosonic count is + on the x's and y's a twist keeps and - on those
    it swaps (FLAT + FLAT_PRIME), and the x0 ladder doubles everything."""
    m = scheme.m
    c, _ = criterion_constant(scheme)
    e = m + 1 - c
    one = DiffOperator.identity()
    ferm_number = number_operator(scheme.fermionic_variables())
    neg_x, pos_x, pos_y, neg_y = _variable_groups(scheme)
    bos_number = number_operator(pos_x + pos_y, neg_x + neg_y)
    out = [(
        "fermionic pair",
        super_commutator(op("DELTA_CHECK"), op("ETA_CHECK")),
        one.scale(-m) + ferm_number,
    ), (
        "twisted bosonic pair" if scheme.is_twisted else "bosonic pair",
        super_commutator(op("DELTA_BAR"), op("ETA_BAR")),
        one.scale(e) + bos_number,
    )]
    if scheme.has_x0:
        out.append((
            "ladder pair",
            super_commutator(op("DELTA"), op("ETA")),
            one.scale(2 + 4 * (e - m))
            + (number_operator([x0()]) + ferm_number + bos_number).scale(4),
        ))
    return out


def _ladder_pieces(scheme: GradingScheme, table: _SliceTable,
                   degree_cap: Optional[int]):
    """The pieces of the ladder law delta(eta^l h) = scalar(l) eta^(l-1) h,
    each ((kind, where), delta, eta, harmonic vectors h, powers l, scalar).

    Fermionic, on the check pair: the harmonic piece of fermionic bidegree
    (r, m+1-s) takes l*(l+r-s) for l = 1..s-r; with r >= s it has no
    powers, and no harmonics.  Harmonic, on Delta and eta for the kinds
    whose ladder constant is label-linear: with d the label degree and c
    the criterion constant, l*(d+l-c) (twisted) or 2l*(1+2(d+l-c)) (odd
    natural, on the even partner's kernels) for l = 1, 2."""
    m = scheme.m
    d_check = table.operator(scheme, "DELTA_CHECK")
    e_check = table.operator(scheme, "ETA_CHECK")
    thetas = [theta(i) for i in range(1, m + 1)]
    varthetas = [vartheta(i) for i in range(1, m + 1)]
    for a in range(m + 1):
        for b in range(m + 1):
            monos = [SuperMonomial.make([], th + vt)
                     for th in itertools.combinations(thetas, a)
                     for vt in itertools.combinations(varthetas, b)]
            r, s = a, m + 1 - b
            yield (("fermionic", f"bidegree ({a},{b})"), d_check, e_check,
                   kernel_basis_polys(d_check, monos), range(1, s - r + 1),
                   lambda ell, k=r - s: ell * (ell + k))
    c, _ = criterion_constant(scheme)
    if scheme.kind in (SchemeKind.GL_TWISTED, SchemeKind.OSP_EVEN_TWISTED):
        source = scheme
        labels = [(0, 0), (1, 0)] if scheme.is_gl else [0, 1]
        cap = 3 if degree_cap is None else degree_cap

        def scalar(d, ell):
            return ell * (d + ell - c)
    elif scheme.kind is SchemeKind.OSP_ODD_NATURAL:
        source, labels, cap = _even_partner(scheme), [0, 1, 2], None

        def scalar(d, ell):
            return 2 * ell * (1 + 2 * (d + ell - c))
    else:
        return
    delta, eta = table.operator(scheme, "DELTA"), table.operator(scheme, "ETA")
    for label in labels:
        yield (("harmonic", f"label {label}"), delta, eta,
               table.kernel(source, label, cap).vectors, range(1, 3),
               functools.partial(scalar, label_degree(label)))


def identity_report(
    scheme: GradingScheme, degree_cap: Optional[int] = None
) -> VerificationReport:
    """Exact normal-form commutator identities for the scheme's
    distinguished operator pairs, plus the ladder law on each of
    `_ladder_pieces`, one check loop for all of them.  The operators come
    from one `_SliceTable`, each built once and proved to keep weights,
    and the harmonic pieces are its kernels, which share its Delta."""
    report = VerificationReport(
        check="operator-identities",
        scheme=scheme.kind.value,
        params=scheme.params(),
        cap=degree_cap,
    )
    table = _SliceTable()
    identities = _commutator_identities(
        scheme, functools.partial(table.operator, scheme))
    failures = [f"normal-form mismatch: {name}"
                for name, lhs, rhs in identities if lhs != rhs]
    checked = 0
    for (kind, where), delta, eta, vectors, powers, scalar in _ladder_pieces(
            scheme, table, degree_cap):
        if vectors and not powers:
            failures.append(f"unexpected {kind} harmonics at {where}")
        for f in vectors:
            prev = f
            for ell in powers:
                cur = eta.apply(prev)
                if delta.apply(cur) != prev.scale(scalar(ell)):
                    failures.append(f"{kind} ladder scalar wrong at {where}, power {ell}")
                prev = cur
        checked += len(vectors) * len(powers)
    report.dimensions["identities"] = len(identities)
    report.dimensions["scalar_checks"] = checked
    if failures:
        report.verdict = Verdict.FAIL
        report.explanation = "; ".join(failures[:4])
    else:
        report.verdict = Verdict.PASS
        report.explanation = (
            f"{len(identities)} operator identities and "
            f"{checked} scalar actions verified")
    return report


# ===================================================================
# theorem suites
# ===================================================================

# theorem -> (natural kind, twisted kind) it concerns, None where it has none
THEOREM_KINDS = {
    "T1": (SchemeKind.GL_NATURAL, None),
    "T2": (None, SchemeKind.GL_TWISTED),
    "T3": (SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_EVEN_TWISTED),
    "T4": (SchemeKind.OSP_ODD_NATURAL, SchemeKind.OSP_ODD_TWISTED),
}


def theorem_suite(
    theorem_id: str,
    scheme: GradingScheme,
    labels: Sequence[Label],
    degree_cap: Optional[int] = None,
) -> VerificationReport:
    """Aggregate irreducibility cross-checks and decomposition reports
    over a grid of labels, in label order; one consolidated verdict.

    The reports share one `_SliceTable`, so its operators, slices,
    kernels and their weight groupings are built once."""
    tid = str(theorem_id).upper()
    if not tid.startswith("T"):
        tid = "T" + tid
    if tid not in THEOREM_KINDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if scheme.kind not in THEOREM_KINDS[tid]:
        raise ValueError(
            f"{tid} concerns {'/'.join(k.value for k in THEOREM_KINDS[tid] if k)}, "
            f"not {scheme.kind.value}")
    report = VerificationReport(
        check=f"theorem-suite-{tid}",
        scheme=scheme.kind.value,
        params=scheme.params(),
        cap=degree_cap,
        dimensions={"labels": len(labels)},
    )
    token = _suite_table.set(_SliceTable())
    try:
        for label in labels:
            report.subreports.append(
                cross_check_irreducibility(scheme, label, degree_cap))
            report.subreports.append(
                decomposition_report(scheme, label, degree_cap))
    finally:
        _suite_table.reset(token)
    report.consolidate_subreports()
    n_fail = sum(1 for r in report.subreports if r.verdict is Verdict.FAIL)
    n_cap = sum(1 for r in report.subreports
                if r.verdict is Verdict.INCONCLUSIVE_CAP)
    report.explanation = (
        f"{len(report.subreports)} checks over {len(labels)} labels: "
        f"{n_fail} failed, {n_cap} window-limited")
    return report
