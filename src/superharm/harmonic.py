"""Harmonic decomposition of graded slices: kernels, bases, singular
vectors, irreducibility predicates, and the verification suites.

Everything reduces to exact linear algebra over the rationals on the
graded slices of the polynomial algebra and their harmonic parts
H = ker Delta, organized along five levers:

* weight blocking — the Cartan elements act diagonally on monomials;
  Delta and eta keep weights and each positive generator shifts them
  uniformly (proved from the atoms), so kernels and ranks split blockwise.
* rank certificates — a complete slice's decomposition reads the ranks of
  eta, Delta and Delta∘eta on integer image rows, not kernel vectors,
  wherever eta is injective; the explicit eta powers of kernel vectors
  decide the rest and are the certificates' oracle.
* block ids — those eta powers never become polynomials: each weight
  block numbers the monomials it meets with small ints in one eta
  `ImageTable`, steps its candidates on them and hands them to the span
  test as {id: coefficient} dicts, so no monomial is hashed per term.
* capped windows — a twisted slice is infinite dimensional and is checked
  inside a degree window: exact vectors violating an exact claim FAIL,
  and a claim reaching beyond the window is INCONCLUSIVE_CAP, not PASS.
* one table per theorem suite — the slices and capped windows, their
  kernels with each kernel's weight grouping, and the certificates are
  built once, however many reports read them, like the proved operators
  of each scheme (`_operator`).

Every solver output is re-verified before it is reported (operator
application, for Delta from the images its solve read; rank re-checks),
so a bug in the blocked elimination cannot silently produce a PASS.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    _budget,
    each_owns_a_monomial,
    image_rank,
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
    _cartan_operators,
    positive_generators,
    rep_operator,
    simple_generators,
    weight_of,
)


# ===================================================================
# weights of monomials (the blocking key)
# ===================================================================

@functools.lru_cache(maxsize=None)
def _weight_table(scheme: GradingScheme):
    """(vacuum weight, per-variable steps) of the scheme, all integral, read
    from its Cartan operators' atoms: a constant adds to the vacuum weight,
    c * v * d_v in entry i gives v the step (i, c), else v's is (0, 0); any
    other atom, or a variable that moves two Cartan entries, is an InternalError."""
    (one, _), = DiffOperator.identity().items()
    euler = {w: v for v in scheme.variables() for w, _ in number_operator([v]).items()}
    cartan = _cartan_operators(scheme)
    base, steps = [0] * len(cartan), {}
    for i, h in enumerate(cartan):
        for w, c in h.items():
            if c != int(c):
                raise InternalError(f"non-integral Cartan coefficient {c}")
            if w == one:
                base[i] += int(c)
            elif w not in euler:
                raise InternalError(f"Cartan atom {w.render()} is not constant or v*d_v")
            elif euler[w] in steps:
                raise InternalError(f"{euler[w].name()} moves two Cartan entries")
            else:
                steps[euler[w]] = i, int(c)
    return tuple(base), {v: steps.get(v, (0, 0)) for v in scheme.variables()}


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
    """Exact kernel of the scheme's Delta (from `_operator`) on the slice span.

    Delta never raises total degree in any variant, so the kernel of the
    capped slice consists of exact harmonic vectors (their images are
    computed without truncation).  Delta's images are cached for the
    call, and each vector is re-verified as their exact combination.
    """
    delta = ImageTable(_operator(sl.scheme, "DELTA"))
    vectors = kernel_basis_polys(
        delta, sl.basis, block_key=functools.partial(monomial_weight, scheme=sl.scheme))
    _check_harmonic_invariants(sl, vectors, delta)
    return HarmonicBasis(sl, tuple(vectors))


@functools.lru_cache(maxsize=None)
def _operator(scheme: GradingScheme, name: str):
    """A `named_operator`, proved to keep weights, or "N+": {g:
    rep_operator(g)} over n+, each proved to shift evenly; built once per
    scheme (a failed proof raises and caches nothing)."""
    if name == "N+":
        ops = {g: rep_operator(g, scheme) for g in positive_generators(scheme)}
        for op in ops.values():
            _weight_shift(op, scheme)
    else:
        ops = named_operator(name, scheme)
        if any(_weight_shift(ops, scheme)):
            raise InternalError(f"{name.lower()} moves weights")
    return ops


class _Certificate(NamedTuple):
    """The ranks that decide one level P_L = H_L + eta P_{L-step} of a
    natural decomposition, summed over weight blocks: eta on P_{L-step},
    Delta on P_L and Delta∘eta on P_{L-step}, with |P_L| and |P_{L-step}|.
    Where eta is injective (eta_rank = below), dim H_L is size - delta_rank
    and eta maps ker(Delta∘eta) onto H_L ∩ eta P_{L-step}, whose dimension
    is below - delta_eta_rank."""

    size: int
    below: int
    eta_rank: int
    delta_rank: int
    delta_eta_rank: int


def _level_certificate(upper: GradedSlice, lower: GradedSlice) -> _Certificate:
    """The certificate of the complete slice upper over lower, the slice one
    step below, from integer image rows (`image_rank`), one weight block at
    a time under one parsed budget.  eta must send lower into upper and
    Delta upper into lower, else InternalError.  Where Delta∘eta has full
    rank on a block so have eta and Delta (ker eta lies in ker Delta∘eta,
    and Delta's image in the block below), so only the other blocks
    eliminate their images under eta and Delta."""
    scheme = upper.scheme
    eta, delta = _operator(scheme, "ETA"), _operator(scheme, "DELTA")
    budget = _budget()
    ranks = [0, 0, 0]
    for monos, sub in _group_polys_by_weight(scheme, upper.basis, lower.basis).values():
        up, down = eta.images(sub), ImageTable(delta)
        above, below = set(monos), set(sub)
        if any(u not in above for q in up for u in q):
            raise InternalError("an eta image leaves the complete slice")
        if any(u not in below for q in down.images(monos) for u in q):
            raise InternalError("a delta image leaves the slice below")
        n = len(sub)
        rank_both = image_rank([down.combine(q.items()) for q in up], n, budget)
        block = (n, n) if rank_both == n else (
            image_rank(up, n, budget), image_rank(down.images(monos), len(monos), budget))
        ranks = [a + b for a, b in zip(ranks, (*block, rank_both))]
    return _Certificate(upper.dimension(), lower.dimension(), *ranks)


class _SliceTable:
    """What a theorem suite's reports read many times, built once and
    dropped with the suite: every slice or capped window they ask for, its
    checked harmonic kernel with its `by_weight` grouping, and each natural
    label's `_Certificate`.  A natural grid's decompositions read the
    certificate of every label down each chain, and a twisted label's
    cross-check and decomposition read the same window.

    A miss calls the module-level builders, so every kernel has passed
    `_check_harmonic_invariants`.  A natural slice capped at or above its
    degree is held once, uncapped.
    """

    def __init__(self):
        self._slices: Dict[tuple, GradedSlice] = {}
        self._kernels: Dict[tuple, HarmonicBasis] = {}
        self._certificates: Dict[tuple, _Certificate] = {}

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
            sl = self._slices[key] = enumerate_slice(*key)
        return sl

    def kernel(self, scheme: GradingScheme, label: Label,
               cap: Optional[int]) -> HarmonicBasis:
        key = self._key(scheme, label, cap)
        hb = self._kernels.get(key)
        if hb is None:
            hb = self._kernels[key] = harmonic_kernel(self.slice(*key))
        return hb

    def certificate(self, scheme: GradingScheme, label: Label) -> _Certificate:
        """The `_level_certificate` of a natural label's complete slice."""
        key = scheme, label
        cert = self._certificates.get(key)
        if cert is None:
            cert = self._certificates[key] = _level_certificate(
                self.slice(scheme, label, None),
                self.slice(scheme, _step_label(scheme, label, 1), None))
        return cert


def has_formula_basis(scheme: GradingScheme) -> bool:
    """Whether xu_basis has a closed formula for the scheme: the gl schemes
    and the x0 ladders do, the even osp schemes do not."""
    return scheme.is_gl or scheme.has_x0


def _xu_gl(sl: GradedSlice, delta: DiffOperator) -> List[SuperPolynomial]:
    """One series per slice monomial with x_c- or y_c-exponent zero, in the
    column c = 1 (natural) or c = n1+1 (twisted), t1 = d_xc d_yc."""
    c = sl.scheme.n1 + 1 if sl.scheme.is_twisted else 1
    seeds = [SuperPolynomial.monomial(mono) for mono in sl.basis
             if not (mono.exponent(x(c)) and mono.exponent(y(c)))]
    return xu_solve(sl.scheme, delta, ((x(c), 1), (y(c), 1)), seeds)


def _even_partner(scheme: GradingScheme) -> GradingScheme:
    """The even osp scheme with the parameters of an odd (x0) one."""
    kind = (SchemeKind.OSP_EVEN_NATURAL
            if scheme.kind is SchemeKind.OSP_ODD_NATURAL
            else SchemeKind.OSP_EVEN_TWISTED)
    return GradingScheme(kind, scheme.n, scheme.m, scheme.n1, scheme.n2)


def _xu_osp_odd(sl: GradedSlice, delta: DiffOperator) -> List[SuperPolynomial]:
    """The two-parity x0 series: seeds x0^iota times the even-scheme slice
    of label k - iota, t1 = d_x0^2, t2 = 2 * (x0-free Delta)."""
    scheme = sl.scheme
    even_scheme = _even_partner(scheme)
    seeds = []
    for h, iota in ((SuperPolynomial.one(), 0), (SuperPolynomial.variable(x0()), 1)):
        seeds.extend(h * SuperPolynomial.monomial(mono) for mono in enumerate_slice(
            even_scheme, sl.label - iota, sl.degree_cap).basis)
    return xu_solve(scheme, delta, ((x0(), 2),), seeds)


def xu_basis(sl: GradedSlice) -> HarmonicBasis:
    """Harmonic basis from the explicit one-seed-per-monomial formulas,
    each seed solved by xu_solve's alternating series: natural gl (seeds
    with x1- or y1-exponent zero), twisted gl (the same in the n1+1 column)
    and the x0 ladders (the two-parity x0 series over even-scheme slices).
    The even osp schemes have no closed formula here and raise.
    """
    if not has_formula_basis(sl.scheme):
        raise ValueError("no formula basis for the even osp schemes")
    delta = _operator(sl.scheme, "DELTA")
    spanning = (_xu_gl if sl.scheme.is_gl else _xu_osp_odd)(sl, delta)
    # reduce to an independent family, blockwise for tractability
    groups = _by_weight(sl.scheme, [p for p in spanning if not p.is_zero()])
    vectors: List[SuperPolynomial] = []
    for _, block in sorted(groups.items()):  # the weights are distinct
        vectors.extend(block[i] for i in independent_subset(block))
    _check_harmonic_invariants(sl, vectors, delta)
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

    Of the scheme's operators the solve uses the simple root vectors and
    Delta: they generate n+ (`simple_generators` checks it) and rho is a
    homomorphism, so the joint kernel is that of all of n+ and Delta.
    Each vector found is re-verified against all of n+ and Delta.
    """
    scheme = sl.scheme
    op_of, delta = _operator(scheme, "N+"), _operator(scheme, "DELTA")
    solve_ops = [*(op_of[g] for g in simple_generators(scheme)), delta]
    found = joint_kernel_basis_polys(
        solve_ops, sl.basis, block_key=functools.partial(monomial_weight, scheme=scheme))
    ops = [*op_of.values(), delta]
    entries = []
    for v in found:
        v = v.scale(Fraction(1, v.terms()[0][1]))
        wt = weight_of(v, scheme)
        if wt is None:
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
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None,
    table: Optional[_SliceTable] = None,
) -> VerificationReport:
    """Compare the singular-vector count in H with the uniqueness lemmas.

    Complete slices give definite verdicts.  In a capped window more exact
    vectors than the lemma allows FAIL, matching a uniqueness claim is only
    INCONCLUSIVE_CAP, and two exact vectors certify non-uniqueness (PASS).
    """
    pred = irreducibility_predicate(scheme, label)
    sl = (table or _SliceTable()).slice(scheme, label, degree_cap)
    svs = singular_vectors(sl)
    count = svs.count()
    expected = _expected_singular_count(scheme, label)
    report = VerificationReport.of(
        "irreducibility-cross-check", scheme,
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


def _chain_length(scheme: GradingScheme, label: Label, degree_cap: Optional[int],
                  table: _SliceTable) -> int:
    """i_max of the chain L, L - step, ..., L - i_max * step that ends at
    the last nonempty slice, on every kind: the first empty one stops it."""
    i_max = 0
    while table.slice(scheme, _step_label(scheme, label, i_max + 1),
                      degree_cap).dimension():
        i_max += 1
    return i_max


def _eta_power_families(eta: DiffOperator, hs, monos, sub, hv, inside):
    """One weight's families for `_eta_power_decomposition`, as {id:
    coefficient} dicts on the ids of one `ImageTable` of eta that lives for
    this call only: per level i, the nonzero eta^i h for h in hs[i] (hs[0]
    as it is); the monomials monos; the nonzero eta images of the monomials
    sub; and the vectors hv.  The candidates short of their power take the
    next eta step together, so each power computes the images it lacks in
    one `images` call.  On a complete window `inside` holds its monomials,
    and a candidate outside them is an InternalError."""
    table = ImageTable(eta)
    levels = [[table.vector(h) for h in hs[0]]]
    pending = [(i, table.vector(h)) for i in range(1, len(hs)) for h in hs[i]]
    for power in range(1, len(hs)):
        stepped = table.step([v for _, v in pending])
        # a vanishing eta^power h stays 0, so it is no candidate
        pending = [(i, w) for (i, _), w in zip(pending, stepped) if w]
        levels.append([w for i, w in pending if i == power])
        pending = [(i, w) for i, w in pending if i > power]
    # H itself is the complete window's kernel, so only powers can leave
    if inside is not None and any(
            table.monos[j] not in inside
            for j in {j for level in levels[1:] for w in level for j in w}):
        raise InternalError("an eta-power candidate leaves the complete slice")
    ev = [w for w in table.step([{j: 1} for j in table.ids(sub)]) if w]
    return (levels, [{j: 1} for j in table.ids(monos)], ev,
            [table.vector(h) for h in hv])


def decomposition_report(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None,
    table: Optional[_SliceTable] = None,
) -> VerificationReport:
    """Check the eta-power direct-sum structure P_L = ⊕ eta^i H_{L-i} of one
    graded slice, down the chain to the last nonempty slice (`_chain_length`).

    A complete slice reads the `_Certificate` of every label of its chain.
    Where eta is injective at every level they decide the report exactly,
    with no kernel vector: summands[i] = dim H_{L-i}, since no eta^i h
    vanishes; the overlap H_L ∩ eta P_{L-step} is the kernel of Delta∘eta;
    and the candidates are independent when every overlap down the chain
    is 0.  A bijective Delta∘eta makes Delta onto P_{L-step}, so then
    P_L = H_L ⊕ eta P_{L-step} at every level and the summands add up to
    the window.  A capped window, or a chain where some eta is not
    injective, takes the explicit eta powers (`_eta_power_decomposition`),
    the slow oracle of the certificates.

    The hypothesis is reported, never assumed: when it fails the report
    records whether the direct sum holds anyway, and the dimension of the
    H ∩ eta-image overlap that witnesses indecomposability when it does
    not.  A lone call makes its own `table`.
    """
    table = table or _SliceTable()
    window = table.slice(scheme, label, degree_cap)
    if window.complete:
        chain = [table.certificate(scheme, _step_label(scheme, label, i))
                 for i in range(_chain_length(scheme, label, degree_cap, table) + 1)]
        if all(c.eta_rank == c.below for c in chain):
            summands = [c.size - c.delta_rank for c in chain]
            return _decomposition_verdict(
                scheme, label, degree_cap, window, summands,
                all(c.delta_eta_rank == c.below for c in chain),
                sum(summands) == window.dimension(),
                chain[0].below - chain[0].delta_eta_rank)
    return _eta_power_decomposition(scheme, label, degree_cap, table)


def _eta_power_decomposition(
    scheme: GradingScheme, label: Label, degree_cap: Optional[int] = None,
    table: Optional[_SliceTable] = None,
) -> VerificationReport:
    """`decomposition_report` from the candidates eta^i h, for h in the
    stepped harmonic bases.  On a complete slice the check is exact: the
    candidates lie in it (one outside is an internal error), so independent
    ones span it when they are as many as its monomials.  On a capped slice
    the bases come from an enlarged window (cap + 2 * i_max); dependence is
    a definite FAIL, and a shortfall in spanning the capped window is
    INCONCLUSIVE_CAP.

    eta keeps weights, so each weight takes its part of the summand
    kernels (their `by_weight`), of a capped window's monomials and of the
    overlap witness, forms its candidates eta^i h on the ids of a table of
    eta's images that lives for that weight only (`_eta_power_families`),
    and runs one elimination; a weight that only window monomials reach
    leaves the window unspanned.
    """
    hyp = _decomposition_hypothesis(scheme, label)
    table = table or _SliceTable()
    window = table.slice(scheme, label, degree_cap)
    i_max = _chain_length(scheme, label, degree_cap, table)
    # a capped summand sits in the enlarged internal window
    summand_cap = None if degree_cap is None else degree_cap + 2 * i_max

    # ---- one weight at a time ----
    eta = _operator(scheme, "ETA")
    complete = window.complete
    kernels = [table.kernel(scheme, _step_label(scheme, label, i), summand_cap)
               for i in range(i_max + 1)]
    witness = [[], []] if hyp.holds else [
        table.slice(scheme, _step_label(scheme, label, 1), degree_cap).basis,
        table.kernel(scheme, label, degree_cap)]
    groups = _group_polys_by_weight(
        scheme, *kernels, [] if complete else window.basis, *witness)
    inside = set(window.basis) if complete else None
    summand_dims, independent, spanning, inter = [0] * (i_max + 1), True, True, 0
    for *hs, monos, sub, hv in groups.values():
        levels, window_ids, ev, hv = _eta_power_families(
            eta, hs, monos, sub if hv else [], hv, inside)
        summand_dims = [d + len(level) for d, level in zip(summand_dims, levels)]
        block = [w for level in levels for w in level]
        # a lone nonzero candidate is independent; monomials must keep the rank
        if independent and (len(block) > 1 or monos):
            rank_block, rank_all = span_ranks(block, window_ids if spanning else [])
            independent = rank_block == len(block)
            spanning = spanning and rank_all == len(block)
        if ev and hv:
            # rank(H_w) = |H_w|: the kernel vectors were proved independent
            rank_eta, rank_sum = span_ranks(ev, hv)
            inter += len(hv) + rank_eta - rank_sum
    if complete:
        spanning = sum(summand_dims) == window.dimension()
    return _decomposition_verdict(scheme, label, degree_cap, window, summand_dims,
                                  independent, spanning, inter)


def _decomposition_verdict(scheme: GradingScheme, label: Label,
                           degree_cap: Optional[int], window: GradedSlice,
                           summands: List[int], independent: bool, spanning: bool,
                           overlap: int) -> VerificationReport:
    """The decomposition report of either path, from its summand dimensions,
    whether the candidates are independent and span the window, and the
    dimension of H ∩ eta P_{L-step} (reported when the hypothesis fails)."""
    hyp = _decomposition_hypothesis(scheme, label)
    complete = window.complete
    direct_sum = independent and spanning
    report = VerificationReport.of(
        "decomposition", scheme,
        label=label,
        cap=degree_cap,
        dimensions={"window": window.dimension(), "summands": summands,
                    "candidates": sum(summands), "direct_sum_holds": direct_sum},
        predicate=hyp.holds,
        clause=hyp.clause,
    )
    if not hyp.holds:
        report.dimensions["harmonic_eta_overlap"] = overlap
        report.verdict = Verdict.PASS
        report.explanation = (
            "hypothesis fails; computationally the direct sum %s"
            % ("still holds" if direct_sum else "fails (overlap dimension %d)" % overlap))
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
            % (" + ".join(str(d) for d in summands),
               sum(summands), window.dimension())
            if complete else "window spanned by independent eta-power candidates")
    return report


# ===================================================================
# basis comparison
# ===================================================================

def compare_bases(xu: HarmonicBasis, kern: HarmonicBasis) -> VerificationReport:
    """span(xu) meets the slice in span(kern), for a formula and a kernel
    basis of one slice: per weight, every kernel vector lies in the formula
    span, and that span meets the slice in the kernel's dimension.  On a
    complete slice no formula vector leaves it, so this is span equality;
    on a capped one the meet is reported as `formula_window`."""
    if xu.slice != kern.slice:
        raise InternalError("compare_bases needs two bases of the same slice")
    sl = xu.slice
    report = VerificationReport.of(
        "basis-comparison", sl.scheme,
        label=sl.label,
        cap=sl.degree_cap,
        dimensions={"kernel": kern.dimension(), "formula": xu.dimension()},
    )
    # dim(span(xu_w) ∩ window) is its rank less the rank lost outside the window
    window = set(sl.basis)
    contained, window_dim = True, 0
    for a, b in _group_polys_by_weight(sl.scheme, xu, kern).values():
        rank_xu, rank_both = span_ranks(a, b)
        contained = contained and rank_xu == rank_both
        window_dim += rank_xu - span_rank(
            [SuperPolynomial({m: c for m, c in p.items() if m not in window}) for p in a])
    ok = contained and window_dim == kern.dimension()
    report.verdict = Verdict.PASS if ok else Verdict.FAIL
    if sl.complete:
        report.explanation = ("spans agree, dimension %d" % kern.dimension()
                              if ok else "span mismatch")
        return report
    report.dimensions["formula_window"] = window_dim
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
    d_check = _operator(scheme, "DELTA_CHECK")
    e_check = _operator(scheme, "ETA_CHECK")
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
    delta, eta = _operator(scheme, "DELTA"), _operator(scheme, "ETA")
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
    from `_operator`, each built once and proved to keep weights, and the
    harmonic pieces are the kernels of one `_SliceTable`."""
    report = VerificationReport.of("operator-identities", scheme, cap=degree_cap)
    table = _SliceTable()
    identities = _commutator_identities(
        scheme, functools.partial(_operator, scheme))
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

    The reports share one `_SliceTable`, so its slices, kernels and their
    weight groupings are built once."""
    tid = str(theorem_id).upper()
    if not tid.startswith("T"):
        tid = "T" + tid
    if tid not in THEOREM_KINDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if scheme.kind not in THEOREM_KINDS[tid]:
        raise ValueError(
            f"{tid} concerns {'/'.join(k.value for k in THEOREM_KINDS[tid] if k)}, "
            f"not {scheme.kind.value}")
    report = VerificationReport.of(
        f"theorem-suite-{tid}", scheme, cap=degree_cap,
        dimensions={"labels": len(labels)})
    table = _SliceTable()
    for label in labels:
        report.subreports.append(
            cross_check_irreducibility(scheme, label, degree_cap, table=table))
        report.subreports.append(
            decomposition_report(scheme, label, degree_cap, table=table))
    tally = report.consolidate_subreports()
    report.explanation = (
        f"{len(report.subreports)} checks over {len(labels)} labels: "
        f"{tally[Verdict.FAIL]} failed, {tally[Verdict.INCONCLUSIVE_CAP]} window-limited")
    return report
