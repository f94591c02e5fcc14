"""Harmonic decomposition of graded slices: kernels, bases, singular
vectors, irreducibility predicates, and the verification suites.

The central objects are the graded slices of the polynomial algebra and
their harmonic subspaces H = ker Delta.  Everything here reduces to exact
linear algebra over the rationals, organized along two performance levers:

* weight blocking — every Cartan element acts diagonally on monomials, so
  each slice splits into small joint-eigenvalue blocks.  Delta preserves
  the weight and each positive generator shifts it uniformly, so kernels
  and joint kernels split blockwise.
* capped windows — the twisted slices (and the x0 ladders) are infinite
  dimensional.  All statements about them are verified inside an explicit
  degree window; verdicts distinguish definite failures (exact vectors
  violating an exact claim) from window-limited evidence, which is
  reported as INCONCLUSIVE_CAP rather than PASS when the claim quantifies
  beyond the window.

Every solver output is re-verified through an independent route before it
is reported (direct operator application, rank re-checks), so a bug in
the blocked solver cannot silently produce a PASS.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .algebra import (
    GradedSlice,
    GradingScheme,
    Label,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    theta,
    vartheta,
    x,
    x0,
    y,
)
from .linalg import (
    in_span,
    independent_subset,
    joint_kernel_basis_polys,
    kernel_basis_polys,
    span_rank,
)
from .operators import (
    DiffOperator,
    IntegrationOperator,
    apply,
    compose,
    filtration_measure,
    named_operator,
    xu_solve,
)
from .report import InternalError, Verdict, VerificationReport
from .representations import (
    NOT_A_WEIGHT_VECTOR,
    AlgebraElement,
    positive_generators,
    rep_operator,
    weight_of,
)


class NonNilpotentError(InternalError):
    """Delta iteration exceeded its guard; the operator is not locally
    nilpotent on the given input (or the guard is wrong)."""


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
    """(vacuum weight, per-variable steps, per-monomial memo), all integral."""
    base = weight_of(SuperPolynomial.one(), scheme)
    steps = {}
    for v in scheme.variables():
        wv = weight_of(SuperPolynomial.variable(v), scheme)
        steps[v] = _integral([a - b for a, b in zip(wv, base)],
                             f"step of {v.name()}")
    return _integral(base, "vacuum weight"), steps, {}


def monomial_weight(mono: SuperMonomial, scheme: GradingScheme) -> Tuple[int, ...]:
    """Weight of a monomial under the scheme's Cartan action.

    Diagonal Cartan operators act on each monomial by a scalar that is
    affine in the exponents, so the weight is the vacuum weight plus the
    per-variable increments.
    """
    base, steps, memo = _weight_table(scheme)
    weight = memo.get(mono)
    if weight is None:
        acc = list(base)
        for v, e in mono.bos:
            for i, s in enumerate(steps[v]):
                acc[i] += e * s
        for v in mono.ferm:
            for i, s in enumerate(steps[v]):
                acc[i] += s
        weight = memo[mono] = tuple(acc)
    return weight


def _weight_fn(scheme: GradingScheme) -> Callable[[SuperMonomial], Tuple[int, ...]]:
    return lambda mono: monomial_weight(mono, scheme)


def _group_polys_by_weight(polys: Sequence[SuperPolynomial], scheme: GradingScheme):
    """Group weight-homogeneous polynomials; raises if one is mixed."""
    groups: Dict[Tuple[int, ...], List[SuperPolynomial]] = {}
    for p in polys:
        wts = {monomial_weight(m, scheme) for m in p.monomials()}
        if len(wts) != 1:
            raise InternalError("expected a weight-homogeneous vector: " + p.render())
        groups.setdefault(wts.pop(), []).append(p)
    return groups


# ===================================================================
# harmonic bases
# ===================================================================

class BasisMethod(Enum):
    KERNEL = "kernel"
    XU_FORMULA = "xu-formula"


@dataclass(frozen=True)
class HarmonicBasis:
    slice: GradedSlice
    vectors: Tuple[SuperPolynomial, ...]
    method: BasisMethod

    def dimension(self) -> int:
        return len(self.vectors)


def _check_harmonic_invariants(sl: GradedSlice, vectors: Sequence[SuperPolynomial]):
    delta = named_operator("DELTA", sl.scheme)
    for v in vectors:
        if not apply(delta, v).is_zero():
            raise InternalError("harmonic basis vector not annihilated: " + v.render())
    for block in _group_polys_by_weight(vectors, sl.scheme).values():
        if span_rank(block) != len(block):
            raise InternalError("harmonic basis vectors are dependent")


def harmonic_kernel(sl: GradedSlice) -> HarmonicBasis:
    """Exact kernel of the scheme's Delta on the slice span.

    Delta never raises total degree in any variant, so the kernel of the
    capped slice consists of exact harmonic vectors (their images are
    computed without truncation).
    """
    delta = named_operator("DELTA", sl.scheme)
    vectors = kernel_basis_polys(delta, sl.basis, block_key=_weight_fn(sl.scheme))
    _check_harmonic_invariants(sl, vectors)
    return HarmonicBasis(sl, tuple(vectors), BasisMethod.KERNEL)


def has_formula_basis(scheme: GradingScheme) -> bool:
    """Whether xu_basis has a closed formula for the scheme: the gl schemes
    and the x0 ladders do, the even osp schemes do not."""
    return scheme.is_gl or scheme.has_x0


def _series_solutions(scheme: GradingScheme, steps, seeds) -> List[SuperPolynomial]:
    """xu_solve with t1 the derivative product `steps`, t2 = Delta - t1,
    exact integration as t1's inverse and the scheme's filtration measure."""
    t1 = DiffOperator.word(1, SuperMonomial.unit(), steps)
    t2 = named_operator("DELTA", scheme) - t1
    return xu_solve(t1, IntegrationOperator(steps), t2, seeds,
                    measure=filtration_measure(t1, scheme))


def _xu_gl(sl: GradedSlice) -> List[SuperPolynomial]:
    """One series per slice monomial with x_c- or y_c-exponent zero, in the
    column c = 1 (natural) or c = n1+1 (twisted), t1 = d_xc d_yc."""
    c = sl.scheme.n1 + 1 if sl.scheme.is_twisted else 1
    one = SuperPolynomial.one()
    seeds = [(one, SuperPolynomial.monomial(mono)) for mono in sl.basis
             if not (mono.exponent(x(c)) and mono.exponent(y(c)))]
    return _series_solutions(sl.scheme, ((x(c), 1), (y(c), 1)), seeds)


def _xu_osp_odd(sl: GradedSlice) -> List[SuperPolynomial]:
    """The two-parity x0 series: seeds x0^iota times the even-scheme slice
    of label k - iota, t1 = d_x0^2, t2 = 2 * (x0-free Delta)."""
    scheme = sl.scheme
    even_kind = (SchemeKind.OSP_EVEN_NATURAL
                 if scheme.kind is SchemeKind.OSP_ODD_NATURAL
                 else SchemeKind.OSP_EVEN_TWISTED)
    even_scheme = GradingScheme(even_kind, scheme.n, scheme.m,
                                scheme.n1, scheme.n2)
    cap = sl.degree_cap if even_scheme.is_twisted else None
    seeds = []
    for h, iota in ((SuperPolynomial.one(), 0), (SuperPolynomial.variable(x0()), 1)):
        label = sl.label - iota
        if even_kind is SchemeKind.OSP_EVEN_NATURAL and label < 0:
            continue
        seeds.extend((h, SuperPolynomial.monomial(mono))
                     for mono in enumerate_slice(even_scheme, label, cap).basis)
    return _series_solutions(scheme, ((x0(), 2),), seeds)


def xu_basis(sl: GradedSlice) -> HarmonicBasis:
    """Harmonic basis from the explicit one-seed-per-monomial formulas,
    each seed solved by xu_solve's alternating series.

    Supported: the natural gl scheme (seeds with x1- or y1-exponent zero),
    the twisted gl scheme (the same in the n1+1 column), and both x0
    ladders (the two-parity x0 series over even-scheme slices).  The even
    osp schemes have no published closed formula here and raise.
    """
    if not has_formula_basis(sl.scheme):
        raise ValueError("no formula basis for the even osp schemes")
    spanning = _xu_gl(sl) if sl.scheme.is_gl else _xu_osp_odd(sl)
    # reduce to an independent family, blockwise for tractability
    groups = _group_polys_by_weight([p for p in spanning if not p.is_zero()],
                                    sl.scheme)
    vectors: List[SuperPolynomial] = []
    for wt in sorted(groups):
        block = groups[wt]
        vectors.extend(block[i] for i in independent_subset(block))
    _check_harmonic_invariants(sl, vectors)
    return HarmonicBasis(sl, tuple(vectors), BasisMethod.XU_FORMULA)


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


def singular_vectors(
    sl: GradedSlice,
    rep: Optional[GradingScheme] = None,
    *,
    harmonic: bool = True,
    generators: Optional[Sequence[AlgebraElement]] = None,
) -> SingularVectorSet:
    """All weight vectors in the slice span annihilated by every positive
    generator, up to scalar (leading coefficient normalized to 1).

    With harmonic=True (the default) Delta is adjoined to the annihilation
    system, so the search runs inside H rather than the full slice — this
    is the counting convention of the uniqueness lemmas.  A custom
    generator family (e.g. the even-part positive generators) replaces
    the scheme's full positive set when given.
    """
    scheme = sl.scheme
    rep_scheme = rep if rep is not None else scheme
    gens = list(generators) if generators is not None else positive_generators(rep_scheme)
    ops = [rep_operator(g, rep_scheme) for g in gens]
    if harmonic:
        ops.append(named_operator("DELTA", scheme))
    found = joint_kernel_basis_polys(ops, sl.basis, block_key=_weight_fn(scheme))
    entries = []
    for v in found:
        lead_mono, lead_coeff = v.terms()[0]
        v = v.scale(1 / lead_coeff)
        wt = weight_of(v, rep_scheme)
        if wt is NOT_A_WEIGHT_VECTOR:
            raise InternalError("solver produced a non-weight vector")
        # independent re-verification, straight operator application
        for op in ops:
            if not apply(op, v).is_zero():
                raise InternalError("solver produced a non-singular vector")
        entries.append((wt, v))
    entries.sort(key=lambda e: (e[0], e[1].terms()[0][0].sort_key()))
    for i in range(1, len(entries)):
        if entries[i - 1][1] == entries[i][1]:
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


def irreducibility_predicate(scheme: GradingScheme, label: Label) -> IrreducibilityVerdict:
    """The literal irreducibility criterion of the relevant theorem,
    together with which clause fired."""
    kind = scheme.kind
    n, m = scheme.n, scheme.m
    if kind is SchemeKind.GL_NATURAL:
        l, lp = _require_nat_pair(label)
        c = m + 1 - n
        if l > c:
            return IrreducibilityVerdict(True, f"l > m+1-n = {c}")
        if lp > c:
            return IrreducibilityVerdict(True, f"lp > m+1-n = {c}")
        if l + lp <= c:
            return IrreducibilityVerdict(True, f"l+lp <= m+1-n = {c}")
        return IrreducibilityVerdict(
            False, f"l, lp <= m+1-n = {c} < l+lp")
    if kind is SchemeKind.GL_TWISTED:
        l, lp = int(label[0]), int(label[1])
        n1, n2 = scheme.n1, scheme.n2
        if n2 == n and lp < 0:
            raise ValueError("label outside the stated domain: lp >= 0 "
                             "is required when n2 = n")
        c = n1 + m + 1 - n2
        if l + lp <= c:
            return IrreducibilityVerdict(True, f"l+lp <= n1+m+1-n2 = {c}")
        if n2 == n and not (n1 + 1 - n <= l <= n1 + m + 1 - n):
            return IrreducibilityVerdict(
                True, f"n2 = n and l outside [{n1 + 1 - n}, {n1 + m + 1 - n}]")
        return IrreducibilityVerdict(False, f"l+lp > n1+m+1-n2 = {c}")
    if kind is SchemeKind.OSP_EVEN_NATURAL:
        if n <= 1:
            raise ValueError("the even osp criterion is stated for n > 1")
        k = int(label)
        if k < 0:
            raise ValueError("natural osp labels are non-negative")
        c = m + 1 - n
        if k <= c:
            return IrreducibilityVerdict(True, f"k <= m+1-n = {c}")
        if k > 2 * c:
            return IrreducibilityVerdict(True, f"k > 2(m+1-n) = {2 * c}")
        return IrreducibilityVerdict(False, f"m+1-n = {c} < k <= 2(m+1-n) = {2 * c}")
    if kind is SchemeKind.OSP_EVEN_TWISTED:
        k = int(label)
        c = scheme.n1 + m + 1 - scheme.n2
        if k <= c:
            return IrreducibilityVerdict(True, f"k <= n1+m+1-n2 = {c}")
        return IrreducibilityVerdict(False, f"k > n1+m+1-n2 = {c}")
    # the x0 ladders: always irreducible
    if kind is SchemeKind.OSP_ODD_NATURAL and int(label) < 0:
        raise ValueError("natural osp labels are non-negative")
    return IrreducibilityVerdict(True, "always irreducible")


def _expected_singular_count(scheme: GradingScheme, label: Label) -> Optional[int]:
    """Exact singular-vector count in H per the uniqueness lemmas; None
    when the lemma only bounds the count below (capped twisted search)."""
    kind = scheme.kind
    n, m = scheme.n, scheme.m
    if kind is SchemeKind.GL_NATURAL:
        l, lp = label
        c = m + 1 - n
        return 2 if (l <= c and lp <= c and l + lp > c) else 1
    if kind is SchemeKind.OSP_EVEN_NATURAL:
        k = int(label)
        c = m + 1 - n
        return 2 if c < k <= 2 * c else 1
    if kind in (SchemeKind.OSP_ODD_NATURAL, SchemeKind.OSP_ODD_TWISTED):
        return 1
    # twisted gl / twisted even osp: unique iff the predicate holds
    return 1 if irreducibility_predicate(scheme, label).holds else None


# ===================================================================
# cross-checks and decomposition reports
# ===================================================================

def cross_check_irreducibility(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None
) -> VerificationReport:
    """Compare the computed singular-vector count in H against the
    uniqueness lemmas.

    Complete slices give definite verdicts.  In a capped window, finding
    more vectors than the lemma allows is a definite FAIL (the vectors
    are exact); matching a uniqueness claim is only window evidence and
    reports INCONCLUSIVE_CAP, while a non-uniqueness claim is certified
    PASS as soon as two exact vectors are exhibited.
    """
    pred = irreducibility_predicate(scheme, label)
    sl = enumerate_slice(scheme, label, degree_cap)
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
        singular_vectors=[{"vector": p.render(), "weight": [str(c) for c in wt]}
                          for wt, p in svs.entries],
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


def _decomposition_hypothesis(scheme: GradingScheme, label: Label) -> IrreducibilityVerdict:
    kind = scheme.kind
    n, m = scheme.n, scheme.m
    if kind is SchemeKind.GL_NATURAL:
        l, lp = label
        c = m + 1 - n
        if abs(l - lp) > c:
            return IrreducibilityVerdict(True, f"|l-lp| > m+1-n = {c}")
        if l + lp <= c:
            return IrreducibilityVerdict(True, f"l+lp <= m+1-n = {c}")
        return IrreducibilityVerdict(False, f"|l-lp| <= {c} and l+lp > {c}")
    if kind is SchemeKind.GL_TWISTED:
        l, lp = label
        c = scheme.n1 + m + 1 - scheme.n2
        return IrreducibilityVerdict(l + lp <= c, f"l+lp <= n1+m+1-n2 = {c}"
                                     if l + lp <= c else f"l+lp > n1+m+1-n2 = {c}")
    if kind is SchemeKind.OSP_EVEN_NATURAL:
        k, c = int(label), m + 1 - n
        return IrreducibilityVerdict(k <= c, f"k <= m+1-n = {c}" if k <= c
                                     else f"k > m+1-n = {c}")
    if kind is SchemeKind.OSP_EVEN_TWISTED:
        k, c = int(label), scheme.n1 + m + 1 - scheme.n2
        return IrreducibilityVerdict(k <= c, f"k <= n1+m+1-n2 = {c}" if k <= c
                                     else f"k > n1+m+1-n2 = {c}")
    return IrreducibilityVerdict(True, "unconditional")


def _step_label(scheme: GradingScheme, label: Label, i: int) -> Label:
    if scheme.is_gl:
        return (label[0] - i, label[1] - i)
    return int(label) - 2 * i


def _summand_cap(scheme: GradingScheme, label: Label,
                 internal_cap: Optional[int]) -> Optional[int]:
    if scheme.is_twisted:
        return internal_cap
    if scheme.has_x0:
        return int(label)  # the natural x0 slice is complete at its own degree
    return None


def _eta_power(eta: DiffOperator, p: SuperPolynomial, i: int) -> SuperPolynomial:
    for _ in range(i):
        p = apply(eta, p)
    return p


def decomposition_report(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None
) -> VerificationReport:
    """Check the eta-power direct-sum structure of one graded slice.

    Candidates are eta^i images of the stepped harmonic bases.  On
    complete slices the check is exact: candidates must be independent
    and span the slice.  On capped slices the harmonic bases are drawn
    from an enlarged internal window (cap + 2 * i_max) and the candidates
    must be independent (exact vectors, so dependence is a definite FAIL)
    and must span the degree-capped window; a spanning shortfall at the
    window boundary is INCONCLUSIVE_CAP.

    The theorem hypothesis is reported, never assumed: when it fails the
    same computation runs and the report records whether the direct sum
    holds anyway, plus the dimension of H ∩ eta-image overlap that
    witnesses indecomposability when it does not.
    """
    hyp = _decomposition_hypothesis(scheme, label)
    window = enumerate_slice(scheme, label, degree_cap)
    eta = named_operator("ETA", scheme)
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
        while bound is None or i_max < bound:
            nxt = enumerate_slice(scheme, _step_label(scheme, label, i_max + 1),
                                  degree_cap)
            if nxt.dimension() == 0:
                break
            i_max += 1
    internal_cap = None if degree_cap is None else degree_cap + 2 * i_max

    # ---- candidates ----
    summand_dims: List[int] = []
    candidates: List[SuperPolynomial] = []
    for i in range(i_max + 1):
        step = _step_label(scheme, label, i)
        sub = enumerate_slice(scheme, step, _summand_cap(scheme, step, internal_cap))
        hb = harmonic_kernel(sub)
        images = [_eta_power(eta, h, i) for h in hb.vectors]
        images = [q for q in images if not q.is_zero()]
        summand_dims.append(len(images))
        candidates.extend(images)
    report.dimensions["summands"] = summand_dims
    report.dimensions["candidates"] = len(candidates)

    # ---- blockwise independence + spanning ----
    groups = _group_polys_by_weight(candidates, scheme)
    window_blocks: Dict[Tuple[int, ...], List[SuperMonomial]] = {}
    for mono in window.basis:
        window_blocks.setdefault(monomial_weight(mono, scheme), []).append(mono)
    independent = True
    spanning = True
    for wt, block in groups.items():
        if span_rank(block) != len(block):
            independent = False
            break
    if independent:
        for wt, monos in window_blocks.items():
            block = groups.get(wt, [])
            want = [SuperPolynomial.monomial(u) for u in monos]
            if span_rank(block) != span_rank(block + want):
                spanning = False
                break
    direct_sum = independent and spanning
    report.dimensions["direct_sum_holds"] = direct_sum

    # ---- witness of overlap when the structure fails ----
    if not hyp.holds:
        step1 = _step_label(scheme, label, 1)
        sub_cap = _summand_cap(scheme, step1, degree_cap)
        sub = enumerate_slice(scheme, step1, sub_cap)
        eta_image = [apply(eta, SuperPolynomial.monomial(u)) for u in sub.basis]
        eta_groups = _group_polys_by_weight(
            [q for q in eta_image if not q.is_zero()], scheme)
        h_groups = _group_polys_by_weight(
            list(harmonic_kernel(window).vectors), scheme)
        inter = 0
        for wt, hv in h_groups.items():
            ev = eta_groups.get(wt, [])
            if ev:
                inter += span_rank(hv) + span_rank(ev) - span_rank(hv + ev)
        report.dimensions["harmonic_eta_overlap"] = inter

    # ---- verdict ----
    if hyp.holds:
        if not independent:
            report.verdict = Verdict.FAIL
            report.explanation = "candidate vectors are linearly dependent"
        elif not spanning:
            if window.complete:
                report.verdict = Verdict.FAIL
                report.explanation = "candidates do not span the complete slice"
            else:
                report.verdict = Verdict.INCONCLUSIVE_CAP
                report.explanation = ("candidates span only part of the window; "
                                      "enlarge the cap to decide")
        else:
            report.verdict = Verdict.PASS
            report.explanation = (
                "direct sum verified: %s with total %d = window %d"
                % (" + ".join(str(d) for d in summand_dims),
                   sum(summand_dims), window.dimension())
                if window.complete else
                "window spanned by independent eta-power candidates")
    else:
        report.verdict = Verdict.PASS
        report.explanation = (
            "hypothesis fails; computationally the direct sum %s"
            % ("still holds" if direct_sum else
               "fails (overlap dimension %d)"
               % report.dimensions["harmonic_eta_overlap"]))
    return report


# ===================================================================
# kappa and basis comparison
# ===================================================================

def kappa(u: SuperPolynomial, scheme: GradingScheme) -> int:
    """The unique k with Delta^k(u) != 0 and Delta^(k+1)(u) = 0.

    Guarded: every variant's Delta strictly decreases an explicit
    monovariant bounded by twice the total degree, so the iteration is
    aborted (NonNilpotentError) beyond that bound.
    """
    if u.is_zero():
        raise ValueError("kappa of the zero vector is undefined")
    delta = named_operator("DELTA", scheme)
    bound = 2 * max(u.degree(), 0) + 2
    k = 0
    cur = u
    while True:
        nxt = apply(delta, cur)
        if nxt.is_zero():
            return k
        k += 1
        cur = nxt
        if k > bound:
            raise NonNilpotentError(
                f"Delta^k(u) still nonzero at k = {k} > guard {bound}")


def _window_intersection_dimension(
    polys: Sequence[SuperPolynomial], window_monos: Sequence[SuperMonomial]
) -> int:
    """dim(span(polys) ∩ span(window monomials)), exact.

    Dropping the window monomials is a linear map on span(polys) whose
    kernel is exactly the intersection, so its dimension is the rank lost.
    """
    window = set(window_monos)
    outside = [SuperPolynomial({m: c for m, c in p.terms() if m not in window})
               for p in polys]
    return span_rank(polys) - span_rank(outside)


def compare_bases(xu: HarmonicBasis, kern: HarmonicBasis) -> VerificationReport:
    """span(xu) == span(kern) for a formula basis and a kernel basis of the
    same slice, with window semantics.

    On complete slices this is plain span equality.  On capped slices
    the formula vectors may extend beyond the window, so the check is:
    every kernel vector lies in the formula span, and the formula span
    meets the window in exactly the kernel dimension.
    """
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
    xu_groups = _group_polys_by_weight(list(xu.vectors), scheme)
    kern_groups = _group_polys_by_weight(list(kern.vectors), scheme)
    if sl.complete:
        ok = xu.dimension() == kern.dimension()
        for wt in set(xu_groups) | set(kern_groups):
            a = xu_groups.get(wt, [])
            b = kern_groups.get(wt, [])
            if span_rank(a) != len(a) or span_rank(b) != len(b) \
                    or span_rank(a + b) != len(b):
                ok = False
                break
        report.verdict = Verdict.PASS if ok else Verdict.FAIL
        report.explanation = ("spans agree, dimension %d" % kern.dimension()
                              if ok else "span mismatch")
        return report
    # capped window comparison
    window_blocks: Dict = {}
    for mono in sl.basis:
        window_blocks.setdefault(monomial_weight(mono, scheme), []).append(mono)
    contained = all(
        in_span(v, xu_groups.get(wt, []))
        for wt, block in kern_groups.items() for v in block)
    window_dim = sum(
        _window_intersection_dimension(block, window_blocks.get(wt, []))
        for wt, block in xu_groups.items())
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

def _number_operator(variables) -> DiffOperator:
    out = DiffOperator.zero()
    for v in variables:
        out = out + compose(
            DiffOperator.multiplier(SuperPolynomial.variable(v)),
            DiffOperator.partial(v))
    return out


def _commutator_identities(scheme: GradingScheme):
    """The scheme's pair-commutator identities as (name, lhs, rhs)
    normal-form operator triples.

    Composing Delta with eta picks up the constant shift plus the number
    operators; the twisted variants trade the plain degree count for the
    signed degree operators, and the x0 ladder doubles everything."""
    n, m = scheme.n, scheme.m
    one = DiffOperator.identity()
    ferm_number = _number_operator(scheme.fermionic_variables())
    d_check = named_operator("DELTA_CHECK", scheme)
    e_check = named_operator("ETA_CHECK", scheme)
    out = [(
        "fermionic pair",
        compose(d_check, e_check),
        compose(e_check, d_check) + one.scale(-m) + ferm_number,
    )]
    d_bar = named_operator("DELTA_BAR", scheme)
    e_bar = named_operator("ETA_BAR", scheme)
    bosonic = [x(i) for i in range(1, n + 1)] + [y(i) for i in range(1, n + 1)]
    if scheme.is_twisted:
        flats = (named_operator("FLAT", scheme)
                 + named_operator("FLAT_PRIME", scheme))
        out.append((
            "twisted bosonic pair",
            compose(d_bar, e_bar),
            compose(e_bar, d_bar) + one.scale(scheme.n2 - scheme.n1) + flats,
        ))
    else:
        out.append((
            "bosonic pair",
            compose(d_bar, e_bar),
            compose(e_bar, d_bar) + one.scale(n) + _number_operator(bosonic),
        ))
    if scheme.has_x0:
        delta = named_operator("DELTA", scheme)
        eta = named_operator("ETA", scheme)
        if scheme.is_twisted:
            shift = 2 + 4 * (scheme.n2 - scheme.n1 - m)
            inner = (_number_operator([x0()]) + ferm_number
                     + named_operator("FLAT", scheme)
                     + named_operator("FLAT_PRIME", scheme))
        else:
            shift = 2 + 4 * (n - m)
            inner = (_number_operator([x0()]) + ferm_number
                     + _number_operator(bosonic))
        out.append((
            "ladder pair",
            compose(delta, eta) - compose(eta, delta),
            one.scale(shift) + inner.scale(4),
        ))
    return out


def _fermionic_ladder_scalars(scheme: GradingScheme) -> Tuple[int, List[str]]:
    """Scalar action of the fermionic Laplacian on eta-check powers.

    On the harmonic piece of fermionic bidegree (r, m+1-s) the l-th
    eta-check power is mapped onto l*(l+r-s) times the previous power;
    pieces with r >= s are checked to be zero."""
    m = scheme.m
    d_check = named_operator("DELTA_CHECK", scheme)
    e_check = named_operator("ETA_CHECK", scheme)
    thetas = [theta(i) for i in range(1, m + 1)]
    varthetas = [vartheta(i) for i in range(1, m + 1)]
    checked, failures = 0, []
    for a in range(m + 1):
        for b in range(m + 1):
            monos = [SuperMonomial.make([], th + vt)
                     for th in itertools.combinations(thetas, a)
                     for vt in itertools.combinations(varthetas, b)]
            kern = kernel_basis_polys(d_check, monos)
            r, s = a, m + 1 - b
            if r >= s:
                if kern:
                    failures.append(
                        f"unexpected fermionic harmonics at bidegree ({a},{b})")
                continue
            for f in kern:
                powers = [f]
                for _ in range(s - r):
                    powers.append(apply(e_check, powers[-1]))
                for ell in range(1, s - r + 1):
                    want = powers[ell - 1].scale(ell * (ell + r - s))
                    if apply(d_check, powers[ell]) != want:
                        failures.append(
                            "fermionic ladder scalar wrong at bidegree "
                            f"({a},{b}), power {ell}")
                    checked += 1
    return checked, failures


def _harmonic_ladder_scalars(
    scheme: GradingScheme, degree_cap: Optional[int]
) -> Tuple[int, List[str]]:
    """Scalar action of Delta on eta-powers of harmonic vectors, for the
    kinds whose ladder constant is label-linear."""
    kind = scheme.kind
    if kind is SchemeKind.GL_TWISTED:
        source, labels = scheme, [(0, 0), (1, 0)]
        cap = 3 if degree_cap is None else degree_cap

        def scalar(label, l1):
            return l1 * (scheme.n2 - scheme.n1 - scheme.m
                         + label[0] + label[1] + l1 - 1)
    elif kind is SchemeKind.OSP_EVEN_TWISTED:
        source, labels = scheme, [0, 1]
        cap = 3 if degree_cap is None else degree_cap

        def scalar(label, l1):
            return l1 * (scheme.n2 - scheme.n1 - scheme.m + label + l1 - 1)
    elif kind is SchemeKind.OSP_ODD_NATURAL:
        source = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, scheme.n, scheme.m)
        labels, cap = [0, 1, 2], None

        def scalar(label, l1):
            return 2 * l1 * (1 + 2 * (scheme.n - scheme.m + label + l1 - 1))
    else:
        return 0, []
    delta = named_operator("DELTA", scheme)
    eta = named_operator("ETA", scheme)
    checked, failures = 0, []
    for label in labels:
        for f in harmonic_kernel(enumerate_slice(source, label, cap)).vectors:
            powers = [f, apply(eta, f)]
            powers.append(apply(eta, powers[-1]))
            for l1 in (1, 2):
                want = powers[l1 - 1].scale(scalar(label, l1))
                if apply(delta, powers[l1]) != want:
                    failures.append(
                        f"harmonic ladder scalar wrong at label {label}, "
                        f"power {l1}")
                checked += 1
    return checked, failures


def identity_report(
    scheme: GradingScheme, degree_cap: Optional[int] = None
) -> VerificationReport:
    """Exact normal-form commutator identities for the scheme's
    distinguished operator pairs, plus the scalar-action laws on
    harmonic vectors."""
    report = VerificationReport(
        check="operator-identities",
        scheme=scheme.kind.value,
        params=scheme.params(),
        cap=degree_cap,
    )
    failures = []
    identities = _commutator_identities(scheme)
    for name, lhs, rhs in identities:
        if lhs != rhs:
            failures.append(f"normal-form mismatch: {name}")
    checked_f, fails_f = _fermionic_ladder_scalars(scheme)
    checked_h, fails_h = _harmonic_ladder_scalars(scheme, degree_cap)
    failures.extend(fails_f + fails_h)
    report.dimensions["identities"] = len(identities)
    report.dimensions["scalar_checks"] = checked_f + checked_h
    if failures:
        report.verdict = Verdict.FAIL
        report.explanation = "; ".join(failures[:4])
    else:
        report.verdict = Verdict.PASS
        report.explanation = (
            f"{len(identities)} operator identities and "
            f"{checked_f + checked_h} scalar actions verified")
    return report


# ===================================================================
# theorem suites
# ===================================================================

_THEOREM_KINDS = {
    "T1": (SchemeKind.GL_NATURAL,),
    "T2": (SchemeKind.GL_TWISTED,),
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
    over a grid of labels, in label order; one consolidated verdict."""
    tid = str(theorem_id).upper()
    if not tid.startswith("T"):
        tid = "T" + tid
    if tid not in _THEOREM_KINDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if scheme.kind not in _THEOREM_KINDS[tid]:
        raise ValueError(
            f"{tid} concerns {'/'.join(k.value for k in _THEOREM_KINDS[tid])}, "
            f"not {scheme.kind.value}")
    report = VerificationReport(
        check=f"theorem-suite-{tid}",
        scheme=scheme.kind.value,
        params=scheme.params(),
        cap=degree_cap,
        dimensions={"labels": len(labels)},
    )
    for label in labels:
        report.subreports.append(
            cross_check_irreducibility(scheme, label, degree_cap))
        report.subreports.append(
            decomposition_report(scheme, label, degree_cap))
    report.consolidate_subreports()
    n_fail = sum(1 for r in report.subreports if r.verdict is Verdict.FAIL)
    n_cap = sum(1 for r in report.subreports
                if r.verdict is Verdict.INCONCLUSIVE_CAP)
    report.explanation = (
        f"{len(report.subreports)} checks over {len(labels)} labels: "
        f"{n_fail} failed, {n_cap} window-limited")
    return report
