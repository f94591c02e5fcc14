from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    parse_polynomial,
    theta,
    vartheta,
    x,
    y,
)
from superharm.harmonic import (
    BasisMethod,
    _weight_fn,
    NonNilpotentError,
    compare_bases,
    cross_check_irreducibility,
    decomposition_report,
    harmonic_kernel,
    identity_report,
    irreducibility_predicate,
    kappa,
    monomial_weight,
    singular_vectors,
    theorem_suite,
    xu_basis,
)
from superharm.linalg import (
    in_span,
    joint_kernel_basis_polys,
    kernel_basis_polys,
    span_rank,
)
from superharm.operators import DiffOperator, apply, im_operator, named_operator, op_power
from superharm.report import InternalError, Verdict
from superharm.representations import NOT_A_WEIGHT_VECTOR, positive_generators, weight_of

P = SuperPolynomial.variable
GL11 = GradingScheme(SchemeKind.GL_NATURAL, 1, 1)
GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
GL22 = GradingScheme(SchemeKind.GL_NATURAL, 2, 2)
GL23 = GradingScheme(SchemeKind.GL_NATURAL, 2, 3)
TW4113 = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
TW3113 = GradingScheme(SchemeKind.GL_TWISTED, 3, 1, 1, 3)
EV11 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 1, 1)
EV21 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1)
EV23 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 3)
ODD21 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1)


def bpow(v, e):
    return SuperPolynomial.monomial(SuperMonomial.make([(v, e)], ())) if e \
        else SuperPolynomial.one()


# ===================================================================
# kernel bases
# ===================================================================

def test_kernel_dimension_small():
    sl = enumerate_slice(GL21, (1, 1))
    hb = harmonic_kernel(sl)
    assert sl.dimension() == 9
    assert hb.dimension() == 8
    assert hb.method is BasisMethod.KERNEL


def test_kernel_trivial_label():
    hb = harmonic_kernel(enumerate_slice(GL23, (0, 0)))
    assert list(hb.vectors) == [SuperPolynomial.one()]


def test_kernel_vectors_annihilated():
    delta = named_operator("DELTA", GL23)
    hb = harmonic_kernel(enumerate_slice(GL23, (1, 1)))
    assert hb.dimension() > 0
    for v in hb.vectors:
        assert apply(delta, v).is_zero()


def test_kernel_vectors_are_weight_vectors():
    for v in harmonic_kernel(enumerate_slice(GL21, (1, 1))).vectors:
        assert weight_of(v, GL21) is not NOT_A_WEIGHT_VECTOR


# one small slice per scheme kind, the twisted ones capped
ONE_SLICE_PER_KIND = [
    (GL21, (1, 1), None),
    (TW4113, (0, -1), 3),
    (EV21, 2, None),
    (GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3), 0, 2),
    (ODD21, 2, 2),
    (GradingScheme(SchemeKind.OSP_ODD_TWISTED, 4, 1, 1, 3), 1, 2),
]


@pytest.mark.parametrize("scheme,label,cap", ONE_SLICE_PER_KIND)
def test_monomial_weight_matches_weight_of(scheme, label, cap):
    basis = enumerate_slice(scheme, label, cap).basis
    assert basis
    for mono in basis:
        wt = monomial_weight(mono, scheme)
        assert wt == weight_of(SuperPolynomial.monomial(mono), scheme)
        assert all(type(c) is int for c in wt)
        assert monomial_weight(mono, scheme) is wt  # memoized


@pytest.mark.parametrize("scheme,label,cap", ONE_SLICE_PER_KIND)
def test_joint_kernel_of_one_operator_is_the_kernel(scheme, label, cap):
    monos = list(enumerate_slice(scheme, label, cap).basis)
    delta = named_operator("DELTA", scheme)
    key = _weight_fn(scheme)
    kern = kernel_basis_polys(delta, monos, key)
    assert kern
    assert joint_kernel_basis_polys([delta], monos, key) == kern


def test_non_integral_weight_table_is_an_internal_error(monkeypatch):
    import superharm.harmonic as hm

    monkeypatch.setattr(hm, "weight_of", lambda p, scheme: (Fraction(1, 2),))
    hm._weight_table.cache_clear()
    try:
        with pytest.raises(InternalError, match="non-integral"):
            monomial_weight(SuperMonomial.unit(), GL11)
    finally:
        hm._weight_table.cache_clear()


# ===================================================================
# formula bases
# ===================================================================

def compare(sl):
    return compare_bases(xu_basis(sl), harmonic_kernel(sl))


def test_xu_matches_kernel_gl_natural():
    rep = compare(enumerate_slice(GL21, (1, 1)))
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions == {"kernel": 8, "formula": 8}


@pytest.mark.parametrize("label", [(1, 1), (2, 1), (0, 2)])
def test_xu_matches_kernel_more_labels(label):
    assert compare(enumerate_slice(GL23, label)).verdict is Verdict.PASS


def test_compare_bases_needs_one_slice():
    with pytest.raises(InternalError):
        compare_bases(xu_basis(enumerate_slice(GL21, (1, 1))),
                      harmonic_kernel(enumerate_slice(GL21, (2, 1))))


def test_xu_seed_values():
    # the two completions worked out by hand: a seed supported on the
    # fermionic pair stays harmonic only after picking up x1*y1, while a
    # pure bosonic seed x2*y2 subtracts the leading pair.
    vecs = set(xu_basis(enumerate_slice(GL21, (1, 1))).vectors)
    assert parse_polynomial("x1*y1 + th1*vt1") in vecs
    assert parse_polynomial("-x1*y1 + x2*y2") in vecs


def test_xu_even_osp_rejected():
    with pytest.raises(ValueError):
        xu_basis(enumerate_slice(EV23, 1))


def test_xu_capped_twisted_window():
    rep = compare(enumerate_slice(TW4113, (0, 0), 4))
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions == {"kernel": 34, "formula": 42, "formula_window": 34}


def test_xu_odd_scheme():
    rep = compare(enumerate_slice(ODD21, 2, 2))
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions == {"kernel": 25, "formula": 25}


# ===================================================================
# singular vectors
# ===================================================================

def test_unique_singular_vector():
    svs = singular_vectors(enumerate_slice(GL23, (1, 0)))
    assert [v.render() for v in svs.polys()] == ["x1"]
    assert svs.complete


def test_two_singular_vectors():
    svs = singular_vectors(enumerate_slice(GL23, (2, 1)))
    rendered = {v.render() for v in svs.polys()}
    assert rendered == {
        "x1^2*vt3",
        "x1^2*y1 + x1*x2*y2 + x1*th1*vt1 + x1*th2*vt2 + x1*th3*vt3",
    }
    # the bulky one is eta applied to the previous step's vector
    eta = named_operator("ETA", GL23)
    assert apply(eta, P(x(1))) in set(svs.polys())


def test_full_slice_singular_includes_eta():
    sl = enumerate_slice(GL23, (1, 1))
    inside_h = singular_vectors(sl)
    whole = singular_vectors(sl, harmonic=False)
    assert inside_h.count() == 1
    assert whole.count() == 2
    eta_vec = apply(named_operator("ETA", GL23), SuperPolynomial.one())
    lead_coeff = eta_vec.terms()[0][1]
    assert eta_vec.scale(1 / lead_coeff) in whole.polys()


def test_even_osp_singular():
    svs = singular_vectors(enumerate_slice(EV21, 1))
    assert [v.render() for v in svs.polys()] == ["x1"]


# ===================================================================
# the closed-form singular family (even-part generators)
# ===================================================================

N, M = 2, 3


def vec_theta(r):
    p = SuperPolynomial.one()
    for i in range(1, r + 1):
        p = p * P(theta(i))
    return p


def vec_vartheta(s):
    p = SuperPolynomial.one()
    for i in range(M, s - 1, -1):
        p = p * P(vartheta(i))
    return p


def formula_family(l, lp, require_regular=False):
    """Integral-operator images of x1^l1 y_n^l2 th_(r) vt_(s) over the
    admissible index tuples; optionally keep only tuples satisfying the
    regularity inequality n + l1 + l2 + r - s >= 0."""
    out = []
    for r in range(0, M + 2):
        for s in range(r + 1, M + 2):
            for l3 in range(0, s - r):
                l1 = l - r - l3
                l2 = lp - l3 - (M + 1 - s)
                if l1 < 0 or l2 < 0:
                    continue
                if require_regular and N + l1 + l2 + r - s < 0:
                    continue
                seed = bpow(x(1), l1) * bpow(y(N), l2) * vec_theta(r) * vec_vartheta(s)
                v = apply(im_operator(l1, l2, r, s, l3, N, m=M), seed)
                if not v.is_zero():
                    out.append(v)
    return out


@pytest.mark.parametrize("label,count", [((1, 1), 5), ((2, 1), 8), ((1, 0), 2)])
def test_even_part_singular_family_matches_solver(label, count):
    sl = enumerate_slice(GL23, label)
    evens = positive_generators(GL23, even_only=True)
    svs = singular_vectors(sl, generators=evens)
    fam = formula_family(*label)
    assert svs.count() == count
    assert len(fam) == count
    assert span_rank(fam) == count
    assert all(in_span(v, svs.polys()) for v in fam)
    assert span_rank(svs.polys() + fam) == count


@pytest.mark.parametrize("label,count", [((1, 1), 4), ((2, 1), 6), ((2, 2), 16)])
def test_eta_shifted_family_independent(label, count):
    eta = named_operator("ETA", GL23)
    l, lp = label
    fam = []
    for l4 in range(0, min(l, lp) + 1):
        for v in formula_family(l - l4, lp - l4, require_regular=True):
            fam.append(apply(op_power(eta, l4), v) if l4 else v)
    assert len(fam) == count
    assert span_rank(fam) == count


# ===================================================================
# irreducibility predicates
# ===================================================================

@pytest.mark.parametrize("scheme,label,holds,clause", [
    (GL23, (3, 1), True, "l > m+1-n = 2"),
    (GL23, (1, 0), True, "l+lp <= m+1-n = 2"),
    (GL23, (2, 1), False, "l, lp <= m+1-n = 2 < l+lp"),
    (EV23, 3, False, "m+1-n = 2 < k <= 2(m+1-n) = 4"),
    (EV23, 5, True, "k > 2(m+1-n) = 4"),
    (TW4113, (0, 0), True, "l+lp <= n1+m+1-n2 = 0"),
    (TW3113, (2, 0), True, "n2 = n and l outside [-1, 0]"),
    (ODD21, 7, True, "always irreducible"),
])
def test_predicate_clauses(scheme, label, holds, clause):
    verdict = irreducibility_predicate(scheme, label)
    assert verdict.holds is holds
    assert verdict.clause == clause
    assert bool(verdict) is holds


def test_predicate_domain_errors():
    with pytest.raises(ValueError):
        irreducibility_predicate(GL23, (-1, 0))
    with pytest.raises(ValueError):
        irreducibility_predicate(EV11, 1)  # needs n > 1
    with pytest.raises(ValueError):
        irreducibility_predicate(TW3113, (0, -1))  # n2 = n forces lp >= 0
    with pytest.raises(ValueError):
        irreducibility_predicate(ODD21, -1)


# ===================================================================
# cross-checks against the computed counts
# ===================================================================

@pytest.mark.parametrize("label,count", [((1, 0), 1), ((2, 1), 2), ((3, 1), 1)])
def test_cross_check_exact(label, count):
    rep = cross_check_irreducibility(GL23, label)
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions["singular_count"] == count
    assert rep.dimensions["expected_count"] == count


def test_cross_check_capped_uniqueness():
    rep = cross_check_irreducibility(TW4113, (0, 0), 4)
    assert rep.verdict is Verdict.INCONCLUSIVE_CAP
    assert [e["vector"] for e in rep.singular_vectors] == ["y4*vt1"]
    assert rep.predicate is True


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_cross_check_gl21_grid(l, lp):
    # m+1-n = 0 here, so the two-vector window is empty and every slice
    # carries exactly one singular vector.
    rep = cross_check_irreducibility(GL21, (l, lp))
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions["singular_count"] == 1


# ===================================================================
# kappa
# ===================================================================

def test_kappa_values():
    h = harmonic_kernel(enumerate_slice(GL21, (1, 1))).vectors[0]
    eta21 = named_operator("ETA", GL21)
    assert kappa(h, GL21) == 0
    assert kappa(apply(eta21, h), GL21) == 1

    one = SuperPolynomial.one()
    eta22 = named_operator("ETA", GL22)
    assert kappa(apply(op_power(eta22, 2), one), GL22) == 1
    # at (n, m) = (2, 3) the square of eta is itself harmonic
    eta23 = named_operator("ETA", GL23)
    assert kappa(apply(op_power(eta23, 2), one), GL23) == 0


def test_kappa_zero_rejected():
    with pytest.raises(ValueError):
        kappa(SuperPolynomial.zero(), GL21)


def test_kappa_guard_trips(monkeypatch):
    raise_op = DiffOperator.word(
        Fraction(1), SuperMonomial.make([(x(1), 1)], ()), (), ())
    monkeypatch.setattr("superharm.harmonic.named_operator",
                        lambda name, scheme: raise_op)
    with pytest.raises(NonNilpotentError):
        kappa(P(x(1)), GL21)


# ===================================================================
# eta-power decompositions
# ===================================================================

def test_decomposition_small():
    rep = decomposition_report(GL21, (1, 1))
    assert rep.verdict is Verdict.PASS
    assert rep.predicate is False
    assert rep.dimensions["window"] == 9
    assert rep.dimensions["summands"] == [8, 1]
    assert rep.dimensions["direct_sum_holds"] is True
    assert rep.dimensions["harmonic_eta_overlap"] == 0
    assert rep.explanation == \
        "hypothesis fails; computationally the direct sum still holds"


def test_decomposition_with_hypothesis():
    rep = decomposition_report(GL23, (4, 1))
    assert rep.verdict is Verdict.PASS
    assert rep.predicate is True
    assert rep.clause == "|l-lp| > m+1-n = 2"
    assert rep.explanation == \
        "direct sum verified: 120 + 20 with total 140 = window 140"


def test_decomposition_failure_witness():
    rep = decomposition_report(GL23, (2, 2))
    assert rep.verdict is Verdict.PASS
    assert rep.predicate is False
    assert rep.dimensions["direct_sum_holds"] is False
    assert rep.dimensions["harmonic_eta_overlap"] == 1
    assert rep.explanation == \
        "hypothesis fails; computationally the direct sum fails (overlap dimension 1)"


def test_decomposition_even_osp():
    rep = decomposition_report(EV23, 2)
    assert rep.verdict is Verdict.PASS
    assert rep.explanation == "direct sum verified: 48 + 1 with total 49 = window 49"


def test_decomposition_odd_unconditional():
    rep = decomposition_report(ODD21, 3, 3)
    assert rep.verdict is Verdict.PASS
    assert rep.explanation == "direct sum verified: 63 + 7 with total 70 = window 70"


def test_decomposition_twisted_capped():
    rep = decomposition_report(TW4113, (0, 0), 4)
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions["window"] == 43
    assert rep.dimensions["direct_sum_holds"] is True
    assert rep.explanation == "window spanned by independent eta-power candidates"


def test_eta_square_overlap_witness():
    # the vector living in both H and the eta-image, the obstruction to
    # complete reducibility on the (2, 2) slice at (n, m) = (2, 3)
    one = SuperPolynomial.one()
    e2 = apply(op_power(named_operator("ETA", GL23), 2), one)
    assert kappa(e2, GL23) == 0
    h22 = list(harmonic_kernel(enumerate_slice(GL23, (2, 2))).vectors)
    assert in_span(e2, h22)
    eta = named_operator("ETA", GL23)
    image = [apply(eta, SuperPolynomial.monomial(u))
             for u in enumerate_slice(GL23, (1, 1)).basis]
    assert in_span(e2, [q for q in image if not q.is_zero()])
    # at (n, m) = (2, 2) the same vector is not even harmonic
    e2b = apply(op_power(named_operator("ETA", GL22), 2), one)
    assert kappa(e2b, GL22) == 1


# ===================================================================
# operator identities
# ===================================================================

EVTW4113 = GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3)
ODDTW4113 = GradingScheme(SchemeKind.OSP_ODD_TWISTED, 4, 1, 1, 3)


@pytest.mark.parametrize("scheme", [
    GL23, TW4113, EV23, EVTW4113, ODD21, ODDTW4113,
], ids=lambda s: s.kind.value)
def test_identity_report_passes(scheme):
    rep = identity_report(scheme)
    assert rep.verdict is Verdict.PASS
    assert rep.dimensions["identities"] >= 2


def test_identity_report_counts():
    rep = identity_report(GL21)
    assert rep.dimensions == {"identities": 2, "scalar_checks": 4}
    assert "2 operator identities" in rep.explanation


def test_identity_report_flags_corruption(monkeypatch):
    import superharm.harmonic as hm
    original = hm.named_operator

    def skewed(name, scheme):
        op = original(name, scheme)
        return op.scale(2) if name == "DELTA_CHECK" else op

    monkeypatch.setattr(hm, "named_operator", skewed)
    rep = identity_report(GL21)
    assert rep.verdict is Verdict.FAIL
    assert "fermionic pair" in rep.explanation


# ===================================================================
# theorem suites
# ===================================================================

def test_suite_t1_small_grid():
    rep = theorem_suite("T1", GL23, [(0, 0), (1, 0), (1, 1)])
    assert rep.verdict is Verdict.PASS
    assert len(rep.subreports) == 6
    assert rep.explanation == "6 checks over 3 labels: 0 failed, 0 window-limited"


def test_suite_id_normalization():
    rep = theorem_suite("1", GL23, [(0, 0)])
    assert rep.check == "theorem-suite-T1"


def test_suite_kind_validation():
    with pytest.raises(ValueError):
        theorem_suite("T1", EV23, [(0, 0)])
    with pytest.raises(ValueError):
        theorem_suite("T9", GL23, [(0, 0)])


def test_suite_odd_capped():
    rep = theorem_suite("T4", ODD21, [2, 3], 3)
    assert rep.verdict is Verdict.PASS
    assert rep.explanation == "4 checks over 2 labels: 0 failed, 0 window-limited"


def test_suite_twisted_window_limited():
    rep = theorem_suite("T2", TW4113, [(0, 0)], 4)
    assert rep.verdict is Verdict.INCONCLUSIVE_CAP
    assert rep.explanation == "2 checks over 1 labels: 0 failed, 1 window-limited"


def test_suite_flags_wrong_counts(monkeypatch):
    import superharm.harmonic as hm
    original = hm._expected_singular_count

    def off_by_one(scheme, label):
        expected = original(scheme, label)
        return None if expected is None else expected + 1

    monkeypatch.setattr(hm, "_expected_singular_count", off_by_one)
    rep = theorem_suite("T1", GL23, [(1, 0)])
    assert rep.verdict is Verdict.FAIL
    assert any(r.verdict is Verdict.FAIL for r in rep.subreports)
