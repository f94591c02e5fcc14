import functools
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superharm.harmonic as hm
from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    theta,
    vartheta,
    x,
    y,
)
from superharm.harmonic import (
    compare_bases,
    cross_check_irreducibility,
    decomposition_report,
    harmonic_kernel,
    identity_report,
    irreducibility_predicate,
    monomial_weight,
    singular_vectors,
    theorem_suite,
    xu_basis,
)
import superharm.linalg as la
from superharm.linalg import (
    MatrixBudgetError,
    kernel_basis_polys,
    span_rank,
)
from superharm.cli import _grid_schemes
from superharm.operators import (
    DiffOperator,
    ImageTable,
    compose,
    named_operator,
    number_operator,
)
from superharm.report import InternalError, Verdict
from superharm.representations import (
    positive_generators,
    rep_operator,
    simple_generators,
    weight_of,
)

from oracles import (
    im_operator,
    op_power,
    oracle_apply,
    oracle_eta_power_decomposition,
    oracle_in_span,
    oracle_kernel,
    oracle_singular_vectors,
    oracle_span_rank,
    oracle_window_intersection_dimension,
    parse_polynomial,
)

P = SuperPolynomial.variable
GL11 = GradingScheme(SchemeKind.GL_NATURAL, 1, 1)
GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
GL22 = GradingScheme(SchemeKind.GL_NATURAL, 2, 2)
GL23 = GradingScheme(SchemeKind.GL_NATURAL, 2, 3)
GL32 = GradingScheme(SchemeKind.GL_NATURAL, 3, 2)
TW4113 = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
TW3113 = GradingScheme(SchemeKind.GL_TWISTED, 3, 1, 1, 3)
EV11 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 1, 1)
EV21 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1)
EV23 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 3)
ODD21 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1)
ODD23 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 3)
EVTW4113 = GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3)
ODDTW4113 = GradingScheme(SchemeKind.OSP_ODD_TWISTED, 4, 1, 1, 3)


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


def test_kernel_trivial_label():
    hb = harmonic_kernel(enumerate_slice(GL23, (0, 0)))
    assert list(hb.vectors) == [SuperPolynomial.one()]


def test_kernel_vectors_annihilated():
    delta = named_operator("DELTA", GL23)
    hb = harmonic_kernel(enumerate_slice(GL23, (1, 1)))
    assert hb.dimension() > 0
    for v in hb.vectors:
        assert delta.apply(v).is_zero()


def test_kernel_vectors_are_weight_vectors():
    for v in harmonic_kernel(enumerate_slice(GL21, (1, 1))).vectors:
        assert weight_of(v, GL21) is not None


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


@pytest.mark.parametrize("scheme,label,cap", ONE_SLICE_PER_KIND)
def test_joint_kernel_of_one_operator_is_the_kernel(scheme, label, cap):
    monos = list(enumerate_slice(scheme, label, cap).basis)
    delta = named_operator("DELTA", scheme)
    key = functools.partial(monomial_weight, scheme=scheme)
    kern = kernel_basis_polys(delta, monos, key)
    assert kern
    assert kern == oracle_kernel([delta], monos, key)


def _plus_x1(op):
    """The operator plus multiplication by x1: that atom moves every weight
    by x1's step, which no atom of Delta or of a root vector does."""
    return op + DiffOperator.multiplier(P(x(1)))


def test_an_uneven_operator_is_an_internal_error(monkeypatch):
    sl = enumerate_slice(GL21, (1, 1))
    with pytest.raises(InternalError, match="unevenly"):
        hm._weight_shift(_plus_x1(named_operator("DELTA", GL21)), GL21)
    # an uneven Delta stops the kernel solve and the singular solve
    monkeypatch.setattr(hm, "named_operator",
                        lambda name, scheme: _plus_x1(named_operator(name, scheme)))
    for solve in (harmonic_kernel, singular_vectors):
        with pytest.raises(InternalError, match="unevenly"):
            solve(sl)
    monkeypatch.undo()
    # so does the last simple root vector of the singular solve alone, once
    # the n+ operators cached by the solves above are dropped
    hm._operator.cache_clear()
    last = simple_generators(GL21)[-1]

    def uneven_last(g, scheme):
        op = rep_operator(g, scheme)
        return _plus_x1(op) if g == last else op

    monkeypatch.setattr(hm, "rep_operator", uneven_last)
    with pytest.raises(InternalError, match="unevenly"):
        singular_vectors(sl)


def _weight_table_error(monkeypatch, cartan, match):
    """monomial_weight on GL11 raises `match` when its Cartan operators are
    `cartan`."""
    monkeypatch.setattr(hm, "_cartan_operators", lambda scheme: cartan)
    hm._weight_table.cache_clear()
    try:
        with pytest.raises(InternalError, match=match):
            monomial_weight(SuperMonomial.unit(), GL11)
    finally:
        hm._weight_table.cache_clear()


def test_non_integral_weight_table_is_an_internal_error(monkeypatch):
    _weight_table_error(monkeypatch, (DiffOperator.scalar(Fraction(1, 2)),),
                        "non-integral")


def test_a_variable_moving_two_cartan_entries_is_an_internal_error(monkeypatch):
    # the step table keeps one (index, step) pair per variable
    x1_euler = number_operator([x(1)])
    _weight_table_error(monkeypatch, (x1_euler, x1_euler.scale(2)),
                        "moves two Cartan entries")


def test_an_off_diagonal_cartan_atom_is_an_internal_error(monkeypatch):
    # x1 * d_y1 moves y1's weight to x1: no step of one variable describes it
    x1_d_y1 = DiffOperator.word(1, SuperMonomial.make([(x(1), 1)]), [(y(1), 1)])
    _weight_table_error(monkeypatch, (number_operator([x(1)]) + x1_d_y1,),
                        "not constant or v\\*d_v")


@pytest.mark.parametrize("scheme", _grid_schemes(), ids=lambda s: "-".join(
    map(str, [s.kind.value, *s.params().values()])))
def test_weight_table_matches_the_applied_cartan_operators(scheme):
    # the table read from the atoms equals the one derived by applying
    # every Cartan operator to 1 and to each variable
    base, steps = hm._weight_table(scheme)
    one = weight_of(SuperPolynomial.one(), scheme)
    assert base == one
    for v in scheme.variables():
        step = [a - b for a, b in zip(weight_of(P(v), scheme), one)]
        moved = [(i, s) for i, s in enumerate(step) if s] or [(0, 0)]
        assert [steps[v]] == moved


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


def test_harmonic_check_rejects_a_vector_outside_the_kernel():
    # the check reads Delta through the solve's own table: it applies Delta
    # to every vector again, from the images the solve cached, and a vector
    # that Delta does not kill is an internal error
    sl = enumerate_slice(GL21, (1, 1))
    delta = named_operator("DELTA", GL21)
    read = []

    class Counted:
        def images(self, monos):
            read.extend(monos)
            return delta.images(monos)

    table = ImageTable(Counted())
    vectors = kernel_basis_polys(
        table, sl.basis, functools.partial(monomial_weight, scheme=GL21))
    hm._check_harmonic_invariants(sl, vectors, table)
    hit = next(m for m in sl.basis if not delta.apply(SuperPolynomial.monomial(m))
               .is_zero())
    outside = vectors[0] + SuperPolynomial.monomial(hit)
    with pytest.raises(InternalError, match="not annihilated"):
        hm._check_harmonic_invariants(sl, [*vectors, outside], table)
    assert sorted(read, key=SuperMonomial.sort_key) == list(sl.basis)


@pytest.mark.parametrize("label", [(0, 0), (1, 0), (1, -1), (2, 0)])
def test_formula_window_matches_shuffled_rref_oracle(label):
    # the rank each weight block loses when the window monomials are
    # dropped, against one column-shuffled elimination of the whole family
    sl = enumerate_slice(TW4113, label, 3)
    xu = xu_basis(sl)
    rep = compare_bases(xu, harmonic_kernel(sl))
    assert rep.dimensions["formula_window"] == \
        oracle_window_intersection_dimension(xu.vectors, sl.basis)


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


@pytest.mark.parametrize("scheme,label,cap,explanation", [
    (GL21, (1, 1), None, "span mismatch"),
    (TW4113, (0, 0), 4, "kernel not contained in formula span"),
])
def test_a_formula_basis_of_the_kernel_dimension_but_another_span_fails(
        scheme, label, cap, explanation):
    # the kernel basis with its first vector swapped for a monomial that
    # Delta does not kill: as many independent vectors, all in the slice,
    # so only the containment test tells the spans apart
    sl = enumerate_slice(scheme, label, cap)
    kern = harmonic_kernel(sl)
    delta = named_operator("DELTA", scheme)
    u = next(u for u in sl.basis if not delta.apply(SuperPolynomial.monomial(u)).is_zero())
    other = hm.HarmonicBasis(sl, (SuperPolynomial.monomial(u), *kern.vectors[1:]))
    rep = compare_bases(other, kern)
    assert rep.verdict is Verdict.FAIL
    assert rep.explanation == explanation
    assert rep.dimensions["formula"] == rep.dimensions["kernel"]
    assert rep.dimensions.get("formula_window", kern.dimension()) == kern.dimension()


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
    assert eta.apply(P(x(1))) in set(svs.polys())


def test_full_slice_singular_includes_eta():
    sl = enumerate_slice(GL23, (1, 1))
    inside_h = singular_vectors(sl)
    whole = oracle_singular_vectors(sl, harmonic=False)
    assert inside_h.count() == 1
    assert len(whole) == 2
    eta_vec = named_operator("ETA", GL23).apply(SuperPolynomial.one())
    lead_coeff = eta_vec.terms()[0][1]
    assert eta_vec.scale(Fraction(1, lead_coeff)) in whole


def test_even_osp_singular():
    svs = singular_vectors(enumerate_slice(EV21, 1))
    assert [v.render() for v in svs.polys()] == ["x1"]


@pytest.mark.parametrize("scheme,label,cap", [
    (GL23, (2, 1), None),
    (TW4113, (1, 0), 3),
    (EV23, 3, None),
    (EVTW4113, 0, 3),
    (ODD21, 2, 2),
    (ODDTW4113, 0, 3),
])
def test_simple_root_solve_matches_the_all_generators_oracle(scheme, label, cap):
    sl = enumerate_slice(scheme, label, cap)
    rendered = lambda polys: sorted(p.render() for p in polys)
    assert rendered(singular_vectors(sl).polys()) == rendered(oracle_singular_vectors(sl))
    # without Delta too: on the whole slice the simple root vectors kill
    # exactly what n+ kills
    simple = simple_generators(scheme)
    assert (rendered(oracle_singular_vectors(sl, simple, harmonic=False))
            == rendered(oracle_singular_vectors(sl, harmonic=False)))


def test_a_vector_only_a_subset_of_n_plus_kills_is_an_internal_error(monkeypatch):
    import superharm.harmonic as hm

    one = positive_generators(GL23)[:1]
    sl = enumerate_slice(GL23, (1, 0))
    assert len(oracle_singular_vectors(sl, one)) > len(oracle_singular_vectors(sl))
    monkeypatch.setattr(hm, "simple_generators", lambda scheme: one)
    with pytest.raises(InternalError, match="non-singular"):
        singular_vectors(sl)


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
                v = im_operator(l1, l2, r, s, l3, N, m=M).apply(seed)
                if not v.is_zero():
                    out.append(v)
    return out


@pytest.mark.parametrize("label,count", [((1, 1), 5), ((2, 1), 8), ((1, 0), 2)])
def test_even_part_singular_family_matches_solver(label, count):
    sl = enumerate_slice(GL23, label)
    evens = [g for g in positive_generators(GL23) if g.parity() == 0]
    svs = oracle_singular_vectors(sl, evens)
    fam = formula_family(*label)
    assert len(svs) == count
    assert len(fam) == count
    assert span_rank(fam) == count
    assert all(oracle_in_span(v, svs) for v in fam)
    assert span_rank(svs + fam) == count


@pytest.mark.parametrize("label,count", [((1, 1), 4), ((2, 1), 6), ((2, 2), 16)])
def test_eta_shifted_family_independent(label, count):
    eta = named_operator("ETA", GL23)
    l, lp = label
    fam = []
    for l4 in range(0, min(l, lp) + 1):
        for v in formula_family(l - l4, lp - l4, require_regular=True):
            fam.append(op_power(eta, l4).apply(v) if l4 else v)
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
    (GL23, (1, 3), True, "lp > m+1-n = 2"),
    (EV23, 1, True, "k <= m+1-n = 2"),
    (TW4113, (1, 0), False, "l+lp > n1+m+1-n2 = 0"),
    (EVTW4113, 0, True, "k <= n1+m+1-n2 = 0"),
    (EVTW4113, 1, False, "k > n1+m+1-n2 = 0"),
])
def test_predicate_clauses(scheme, label, holds, clause):
    verdict = irreducibility_predicate(scheme, label)
    assert verdict.holds is holds
    assert verdict.clause == clause
    assert bool(verdict) is holds


@pytest.mark.parametrize("scheme,label,holds,clause", [
    (GL23, (3, 0), True, "|l-lp| > m+1-n = 2"),
    (GL23, (1, 1), True, "l+lp <= m+1-n = 2"),
    (GL23, (2, 1), False, "|l-lp| <= 2 and l+lp > 2"),
    (EV23, 2, True, "k <= m+1-n = 2"),
    (EV23, 3, False, "k > m+1-n = 2"),
    (TW4113, (1, -1), True, "l+lp <= n1+m+1-n2 = 0"),
    (TW4113, (1, 0), False, "l+lp > n1+m+1-n2 = 0"),
    (EVTW4113, 0, True, "k <= n1+m+1-n2 = 0"),
    (EVTW4113, 1, False, "k > n1+m+1-n2 = 0"),
    (ODD21, 3, True, "unconditional"),
    (ODDTW4113, 5, True, "unconditional"),
])
def test_decomposition_hypothesis_clauses(scheme, label, holds, clause):
    verdict = hm._decomposition_hypothesis(scheme, label)
    assert (verdict.holds, verdict.clause) == (holds, clause)


def test_predicate_domain_errors():
    with pytest.raises(ValueError):
        irreducibility_predicate(GL23, (-1, 0))
    with pytest.raises(ValueError):
        irreducibility_predicate(EV11, 1)  # needs n > 1
    with pytest.raises(ValueError, match="stated for n > 1"):
        irreducibility_predicate(GL11, (2, 2))  # H = 0 there: needs n > 1
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


def test_decomposition_missing_summand_fails_on_a_complete_slice(monkeypatch):
    # the explicit eta-power path, which a complete slice with an injective
    # eta reaches only as the certificates' oracle
    original = hm._eta_power_families

    def zero_eta(eta, *rest):
        # every eta^i h with i >= 1 vanishes, so it is no candidate
        return original(DiffOperator({}), *rest)

    monkeypatch.setattr(hm, "_eta_power_families", zero_eta)
    rep = hm._eta_power_decomposition(GL23, (4, 1))
    assert rep.verdict is Verdict.FAIL
    assert rep.dimensions["summands"] == [120, 0]
    assert rep.explanation == "candidates do not span the complete slice"


def test_decomposition_candidate_outside_the_slice_is_an_internal_error(monkeypatch):
    original = hm._eta_power_families
    x1 = DiffOperator.multiplier(P(x(1)))

    def times_x1(eta, *rest):
        return original(compose(x1, eta), *rest)

    monkeypatch.setattr(hm, "_eta_power_families", times_x1)
    with pytest.raises(InternalError, match="leaves the complete slice"):
        hm._eta_power_decomposition(GL23, (4, 1))


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


# the certificates of complete slices against the explicit eta powers

def grid(top):
    return [(l, lp) for l in range(top + 1) for lp in range(top + 1)]


@pytest.mark.parametrize("scheme, labels", [
    (GL21, grid(3)), (GL23, [*grid(3), (4, 1)]), (GL32, grid(2)),
    (EV23, list(range(5))), (ODD23, list(range(5))),
], ids=["gl21", "gl23", "gl32", "osp-even23", "osp-odd23"])
def test_certificates_match_the_eta_power_oracle(scheme, labels):
    # every field and the explanation, the hypothesis failing or not; the
    # certificate path solves no kernel, so it is the one compared
    fast, slow = hm._SliceTable(), hm._SliceTable()
    for label in labels:
        assert decomposition_report(scheme, label, table=fast).to_dict() == \
            hm._eta_power_decomposition(scheme, label, table=slow).to_dict()
    assert fast._kernels == {} and slow._kernels


@pytest.mark.parametrize("scheme, label, overlap", [(GL23, (2, 2), 1), (EV23, 3, 10)])
def test_certificate_overlap_of_a_failing_hypothesis(scheme, label, overlap):
    rep = decomposition_report(scheme, label)
    assert rep.predicate is False
    assert rep.dimensions["direct_sum_holds"] is False
    assert rep.dimensions["harmonic_eta_overlap"] == overlap
    assert rep.to_dict() == hm._eta_power_decomposition(scheme, label).to_dict()


def moved_operator(monkeypatch, name, moved):
    """Patch the named operator of every scheme to moved(operator)."""
    monkeypatch.setattr(hm, "named_operator", lambda n, scheme: (
        moved(named_operator(n, scheme)) if n == name else named_operator(n, scheme)))


def test_a_non_injective_eta_routes_its_label_to_the_explicit_path(monkeypatch):
    # eta after the th1 number operator keeps weights and kills every
    # monomial without th1, so it kills H_(0,0) = span{1}
    moved_operator(monkeypatch, "ETA", lambda e: compose(e, number_operator([theta(1)])))
    table = hm._SliceTable()
    cert = table.certificate(GL21, (1, 1))
    assert cert.eta_rank < cert.below
    rep = decomposition_report(GL21, (1, 1), table=table)
    assert rep.to_dict() == hm._eta_power_decomposition(GL21, (1, 1)).to_dict()
    assert rep.dimensions["summands"] == [8, 0]
    assert table._kernels


ODD_TW4113 = GradingScheme(SchemeKind.OSP_ODD_TWISTED, 4, 1, 1, 3)
EV_TW4113 = GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3)
TW_LABELS = [(l, lp) for l in range(-2, 3) for lp in range(-2, 3) if -2 <= l + lp <= 1]


def matches_the_polynomial_oracle(scheme, labels, cap):
    # every field, the verdict and the explanation; both paths read the
    # kernels of one table
    table = hm._SliceTable()
    for label in labels:
        rep = hm._eta_power_decomposition(scheme, label, cap, table=table)
        assert rep.to_dict() == \
            oracle_eta_power_decomposition(scheme, label, cap, table=table).to_dict()


@pytest.mark.parametrize("cap", range(2, 7))
def test_gl_twisted_eta_powers_match_the_polynomial_oracle(cap):
    matches_the_polynomial_oracle(TW4113, TW_LABELS, cap)
    if cap == 3:
        # its hypothesis fails and its candidates are dependent
        rep = decomposition_report(TW4113, (1, 0), 3)
        assert rep.dimensions["direct_sum_holds"] is False
        assert rep.dimensions["harmonic_eta_overlap"] == 1


@pytest.mark.parametrize("scheme", [EV_TW4113, ODD_TW4113],
                         ids=["osp-even-twisted", "osp-odd-twisted"])
@pytest.mark.parametrize("cap", range(2, 5))
def test_osp_twisted_eta_powers_match_the_polynomial_oracle(scheme, cap):
    matches_the_polynomial_oracle(scheme, range(-2, 2), cap)


def test_a_non_injective_eta_matches_the_polynomial_oracle(monkeypatch):
    # the chain of test_a_non_injective_eta_routes_its_label_to_the_explicit_path,
    # where eta^1 of H_(0,0) vanishes
    moved_operator(monkeypatch, "ETA", lambda e: compose(e, number_operator([theta(1)])))
    rep = hm._eta_power_decomposition(GL21, (1, 1))
    assert rep.dimensions["summands"] == [8, 0]
    assert rep.to_dict() == oracle_eta_power_decomposition(GL21, (1, 1)).to_dict()


@pytest.mark.parametrize("name, match", [
    ("ETA", "an eta image leaves the complete slice"),
    ("DELTA", "a delta image leaves the slice below"),
])
def test_an_image_outside_its_slice_is_an_internal_error(monkeypatch, name, match):
    # the square keeps weights but moves the label two steps
    moved_operator(monkeypatch, name, lambda op: compose(op, op))
    with pytest.raises(InternalError, match=match):
        decomposition_report(GL21, (2, 2))


def test_a_certificate_reads_the_budget_once_and_keeps_to_it(monkeypatch):
    reads, shapes = [], []
    budget, rows_of = hm._budget, la._equation_rows

    def counted_budget():
        reads.append(1)
        return budget()

    def recorded(images, ncols, limit, held=0):
        rows = rows_of(images, ncols, limit, held)
        shapes.append(len(rows) * ncols)
        return rows

    monkeypatch.setattr(hm, "_budget", counted_budget)
    monkeypatch.setattr(la, "_equation_rows", recorded)
    hm._SliceTable().certificate(GL23, (2, 2))
    assert len(reads) == 1 and len(shapes) > 1
    largest = max(shapes)
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", str(largest - 1))
    with pytest.raises(MatrixBudgetError, match=f"SUPERHARM_MAX_CELLS={largest - 1}"):
        hm._SliceTable().certificate(GL23, (2, 2))
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", str(largest))
    hm._SliceTable().certificate(GL23, (2, 2))


# the chain rule against the per-kind rules it replaced: min(l, lp) on
# gl-natural, k // 2 on the natural osp kinds, and on gl-twisted with
# n2 = n the slice probe bounded by lp

@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2)])
def test_chain_length_is_min_l_lp_on_gl_natural(n, m):
    scheme, table = GradingScheme(SchemeKind.GL_NATURAL, n, m), hm._SliceTable()
    for l in range(6):
        for lp in range(6):
            assert hm._chain_length(scheme, (l, lp), None, table) == min(l, lp)


@pytest.mark.parametrize("kind", [SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_ODD_NATURAL])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 3)])
def test_chain_length_is_half_k_on_natural_osp(kind, n, m):
    scheme, table = GradingScheme(kind, n, m), hm._SliceTable()
    for k in range(9):
        for cap in (None, k, k + 1):
            assert hm._chain_length(scheme, k, cap, table) == k // 2


@pytest.mark.parametrize("n,m,n1", [(3, 1, 1), (4, 1, 1), (4, 2, 2), (5, 1, 1)])
def test_chain_length_needs_no_lp_bound_on_gl_twisted_with_n2_n(n, m, n1):
    scheme, table = GradingScheme(SchemeKind.GL_TWISTED, n, m, n1, n), hm._SliceTable()
    for cap in range(7):
        for l in range(-3, 4):
            for lp in range(4):
                bounded = 0
                while bounded < lp and table.slice(
                        scheme, (l - bounded - 1, lp - bounded - 1), cap).dimension():
                    bounded += 1
                assert hm._chain_length(scheme, (l, lp), cap, table) == bounded


def whole_family_decomposition(scheme, label, cap):
    """summands, candidates, direct_sum_holds and the overlap dimension of
    one slice with no weight split: eta powers by `oracle_apply` and ranks
    of whole families by `oracle_span_rank`, on the engine's kernel bases
    (a count of nonzero eta powers depends on the basis)."""
    def step(i):
        return (label[0] - i, label[1] - i) if scheme.is_gl else label - 2 * i

    if not scheme.is_twisted:
        i_max = min(label) if scheme.is_gl else label // 2
    else:
        i_max = 0
        while enumerate_slice(scheme, step(i_max + 1), cap).dimension() and not (
                scheme.kind is SchemeKind.GL_TWISTED and scheme.n2 == scheme.n
                and i_max >= label[1]):
            i_max += 1
    summand_cap = None if cap is None else cap + 2 * i_max
    eta = named_operator("ETA", scheme)
    summands, candidates = [], []
    for i in range(i_max + 1):
        powers = []
        for q in harmonic_kernel(enumerate_slice(scheme, step(i), summand_cap)).vectors:
            for _ in range(i):
                q = oracle_apply(eta, q)
            if not q.is_zero():
                powers.append(q)
        summands.append(len(powers))
        candidates.extend(powers)
    window = enumerate_slice(scheme, label, cap)
    rank = oracle_span_rank(candidates)
    if window.complete:
        spanned = len(candidates) == window.dimension()
    else:
        spanned = oracle_span_rank(
            candidates + [SuperPolynomial.monomial(u) for u in window.basis]) == rank
    image = [q for q in (oracle_apply(eta, SuperPolynomial.monomial(u))
                         for u in enumerate_slice(scheme, step(1), cap).basis)
             if not q.is_zero()]
    harmonic = list(harmonic_kernel(window).vectors)
    overlap = (len(harmonic) + oracle_span_rank(image)
               - oracle_span_rank(image + harmonic))
    return summands, rank == len(candidates) and spanned, overlap


@st.composite
def decomposition_arguments(draw):
    """Small labels on natural gl(2|1), osp(2|1) and osp(2|1) with x0, and
    on twisted (4|1, 1, 3) slices of the three twisted kinds capped at 1
    or 2 (the oracle's exact ranks grow fast with the internal window)."""
    kind = draw(st.sampled_from(list(SchemeKind)))
    if not kind.value.endswith("twisted"):
        scheme = GradingScheme(kind, 2, 1)
        if scheme.is_gl:
            return scheme, (draw(st.integers(0, 2)), draw(st.integers(0, 2))), None
        return scheme, draw(st.integers(0, 3)), None
    scheme, cap = GradingScheme(kind, 4, 1, 1, 3), draw(st.integers(1, 2))
    if scheme.is_gl:
        return scheme, draw(st.sampled_from([
            (l, lp) for l in (-1, 0, 1) for lp in (-1, 0, 1) if l + lp <= 1])), cap
    return scheme, draw(st.integers(-1, 1)), cap


@given(decomposition_arguments())
@example((GL23, (2, 2), None))   # the hypothesis fails: overlap 1
@example((GL23, (1, 0), None))
@example((EV21, 2, None))
@example((TW4113, (1, -1), 3))
@example((TW4113, (1, 0), 2))    # capped, the hypothesis fails
@settings(max_examples=20, deadline=None)
def test_decomposition_matches_whole_family_oracle(args):
    rep = decomposition_report(*args)
    summands, direct_sum, overlap = whole_family_decomposition(*args)
    assert rep.dimensions["summands"] == summands
    assert rep.dimensions["candidates"] == sum(summands)
    assert rep.dimensions["direct_sum_holds"] is direct_sum
    if rep.predicate:
        assert "harmonic_eta_overlap" not in rep.dimensions
    else:
        assert rep.dimensions["harmonic_eta_overlap"] == overlap


def test_decomposition_holds_one_eta_table_at_a_time(monkeypatch):
    # a table per weight that applies eta, each gone before the next is
    # made; the capped label fails the hypothesis, so the overlap witness
    # reads the tables too
    live, made, most = [0], [0], [0]
    eta = named_operator("ETA", TW4113)

    def gone():
        live[0] -= 1

    class Counted(ImageTable):
        def __init__(self, op):
            super().__init__(op)
            if op == eta:
                live[0] += 1
                made[0] += 1
                most[0] = max(most[0], live[0])
                weakref.finalize(self, gone)

    monkeypatch.setattr(hm, "ImageTable", Counted)
    rep = decomposition_report(TW4113, (1, 0), 3)
    assert rep.predicate is False and "harmonic_eta_overlap" in rep.dimensions
    assert made[0] > 1
    assert most[0] == 1
    assert live[0] == 0


def test_decomposition_requires_an_eta_that_keeps_weights(monkeypatch):
    # an eta whose atoms all move weights by one step (x1 times eta), and
    # one whose atoms move them unevenly (eta + x1), on a complete slice
    # and on a capped window, which checks no image against its slice
    x1 = DiffOperator.multiplier(P(x(1)))
    for moved, match in ((lambda e: compose(x1, e), "eta moves weights"),
                         (lambda e: e + x1, "shift weights unevenly")):
        moved_operator(monkeypatch, "ETA", moved)
        for args in ((GL21, (1, 1)), (TW4113, (0, 0), 2)):
            with pytest.raises(InternalError, match=match):
                decomposition_report(*args)


def test_decomposition_rejects_a_mixed_weight_summand_vector(monkeypatch):
    # on the explicit path the summand kernel vectors carry the homogeneity
    # check for their eta powers, so a vector with two weights is an
    # internal error
    original = hm.harmonic_kernel

    def mixed(sl):
        hb = original(sl)
        weight = functools.partial(monomial_weight, scheme=sl.scheme)
        first, *rest = hb.vectors
        other = next(i for i, v in enumerate(rest)
                     if weight(v.terms()[0][0]) != weight(first.terms()[0][0]))
        rest[other] = rest[other] + first
        return hm.HarmonicBasis(sl, (first, *rest))

    monkeypatch.setattr(hm, "harmonic_kernel", mixed)
    with pytest.raises(InternalError, match="expected a weight-homogeneous vector"):
        hm._eta_power_decomposition(GL23, (4, 1))


def test_a_weight_only_the_window_reaches_counts_against_spanning(monkeypatch):
    # drop one window weight's vectors from every summand kernel: no
    # candidate reaches that weight, yet its window monomial must still be
    # spanned, so the capped window is no longer covered
    assert decomposition_report(TW4113, (-1, 0), 4).verdict is Verdict.PASS
    target = monomial_weight(enumerate_slice(TW4113, (-1, 0), 4).basis[0], TW4113)
    original = hm.harmonic_kernel

    def drop_target(sl):
        hb = original(sl)
        return hm.HarmonicBasis(sl, tuple(
            v for v in hb.vectors
            if monomial_weight(v.terms()[0][0], sl.scheme) != target))

    monkeypatch.setattr(hm, "harmonic_kernel", drop_target)
    rep = decomposition_report(TW4113, (-1, 0), 4)
    assert rep.verdict is Verdict.INCONCLUSIVE_CAP
    assert rep.dimensions["direct_sum_holds"] is False
    assert rep.dimensions["summands"] == [33, 8]


def test_eta_square_overlap_witness():
    # the vector living in both H and the eta-image, the obstruction to
    # complete reducibility on the (2, 2) slice at (n, m) = (2, 3)
    one = SuperPolynomial.one()
    e2 = op_power(named_operator("ETA", GL23), 2).apply(one)
    assert named_operator("DELTA", GL23).apply(e2).is_zero()
    h22 = list(harmonic_kernel(enumerate_slice(GL23, (2, 2))).vectors)
    assert oracle_in_span(e2, h22)
    eta = named_operator("ETA", GL23)
    image = [eta.apply(SuperPolynomial.monomial(u))
             for u in enumerate_slice(GL23, (1, 1)).basis]
    assert oracle_in_span(e2, [q for q in image if not q.is_zero()])
    # at (n, m) = (2, 2) the same vector is not even harmonic
    e2b = op_power(named_operator("ETA", GL22), 2).apply(one)
    delta22 = named_operator("DELTA", GL22)
    assert not delta22.apply(e2b).is_zero()
    assert delta22.apply(delta22.apply(e2b)).is_zero()


# ===================================================================
# operator identities
# ===================================================================


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


@pytest.mark.parametrize("scheme,failures", [
    (TW4113, ("twisted bosonic pair", "harmonic ladder scalar wrong")),
    (ODD21, ("bosonic pair", "ladder pair", "harmonic ladder scalar wrong")),
], ids=["gl-twisted", "osp-odd-natural"])
def test_identity_report_checks_the_criterion_constant(monkeypatch, scheme, failures):
    # the bosonic pair constant m + 1 - c and the ladder scalars read c
    original = hm.criterion_constant
    monkeypatch.setattr(hm, "criterion_constant",
                        lambda s: (original(s)[0] + 1, original(s)[1]))
    rep = identity_report(scheme)
    assert rep.verdict is Verdict.FAIL
    assert "fermionic" not in rep.explanation
    for text in failures:
        assert text in rep.explanation


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


def test_identity_report_rejects_fermionic_harmonics_without_powers(monkeypatch):
    # on gl(2|1) the bidegree (1,1) has r = s = 1, a ladder piece with no
    # powers: a harmonic there breaks the law with no power to check, so a
    # solve that claims th1*vt1 is harmonic must fail the report
    original = hm.kernel_basis_polys

    def claims_th1_vt1(op, monos, block_key=None):
        if block_key is None and [set(m.ferm) for m in monos] == [{theta(1), vartheta(1)}]:
            return [SuperPolynomial.monomial(m) for m in monos]
        return original(op, monos, block_key)

    monkeypatch.setattr(hm, "kernel_basis_polys", claims_th1_vt1)
    rep = identity_report(GL21)
    assert rep.verdict is Verdict.FAIL
    assert rep.explanation == "unexpected fermionic harmonics at bidegree (1,1)"
    assert rep.dimensions == {"identities": 2, "scalar_checks": 4}


@pytest.mark.parametrize("scheme, partner_deltas", [
    (TW4113, []),
    (GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 3), [("DELTA", EV23)]),
], ids=["gl-twisted", "osp-odd-natural"])
def test_identity_report_builds_each_operator_once(monkeypatch, scheme, partner_deltas):
    # the identities and the ladder pieces read one table: each named
    # operator is built once, and the odd scheme's ladder kernels, which
    # live on the even partner, build that scheme's Delta once
    built = []
    named = hm.named_operator

    def counted(name, s):
        built.append((name, s))
        return named(name, s)

    monkeypatch.setattr(hm, "named_operator", counted)
    assert identity_report(scheme).verdict is Verdict.PASS
    names = ["DELTA_CHECK", "ETA_CHECK", "DELTA_BAR", "ETA_BAR", "DELTA", "ETA"]
    assert Counter(built) == Counter([(name, scheme) for name in names] + partner_deltas)


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
    with pytest.raises(ValueError, match="^T1 concerns gl-natural, not osp-even-natural$"):
        theorem_suite("T1", EV23, [(0, 0)])
    with pytest.raises(ValueError, match="^T3 concerns osp-even-natural/osp-even-twisted, "):
        theorem_suite("T3", GL23, [(0, 0)])
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


# ===================================================================
# the slice table of a suite
# ===================================================================

@pytest.mark.parametrize("tid, scheme, labels, cap", [
    ("T1", GL21, [(l, lp) for l in range(4) for lp in range(4)], None),
    ("T3", EV23, [0, 1, 2, 3, 4], None),
    ("T2", TW4113, [(0, 0)], 4),
], ids=["gl21-grid", "even23-grid", "tw4113-capped"])
def test_suite_matches_label_by_label_reports(tid, scheme, labels, cap):
    # each lone report call builds its own table: its own operators, slices,
    # kernels and weight groupings, where the suite shares one
    lone = []
    for label in labels:
        lone.append(cross_check_irreducibility(scheme, label, cap).to_dict())
        lone.append(decomposition_report(scheme, label, cap).to_dict())
    suite = theorem_suite(tid, scheme, labels, cap).to_dict()
    assert suite.pop("elapsed_ms", None) is None
    assert suite["subreports"] == lone
    if scheme is GL21:
        # the grid reaches the overlap witness of a failed hypothesis
        assert any("harmonic_eta_overlap" in r["dimensions"] for r in lone)


def test_suite_builds_each_operator_once(monkeypatch):
    built = []
    named, represented = hm.named_operator, hm.rep_operator

    def counted_named(name, scheme):
        built.append(name)
        return named(name, scheme)

    def counted_rep(g, scheme):
        built.append(g)
        return represented(g, scheme)

    monkeypatch.setattr(hm, "named_operator", counted_named)
    monkeypatch.setattr(hm, "rep_operator", counted_rep)
    labels = [(l, lp) for l in range(4) for lp in range(4)]
    assert theorem_suite("T1", GL21, labels).verdict is Verdict.PASS
    assert Counter(built) == Counter(["DELTA", "ETA", *positive_generators(GL21)])


@pytest.mark.parametrize("report", [decomposition_report, cross_check_irreducibility,
                                    hm._eta_power_decomposition],
                         ids=["decomposition", "cross-check", "explicit-decomposition"])
def test_a_lone_report_builds_delta_once(monkeypatch, report):
    # a lone report's certificates, or the summand kernels of the explicit
    # path, share the scheme's one Delta, and a failing kernel solve reaches
    # the caller of the explicit path and of a capped window
    deltas = []
    named = hm.named_operator

    def counted(name, scheme):
        if name == "DELTA":
            deltas.append(scheme)
        return named(name, scheme)

    monkeypatch.setattr(hm, "named_operator", counted)
    assert report(GL23, (3, 3)).verdict is Verdict.PASS
    assert deltas == [GL23]

    def broken(sl):
        raise InternalError("kernel solve failed")

    monkeypatch.setattr(hm, "harmonic_kernel", broken)
    with pytest.raises(InternalError, match="kernel solve failed"):
        hm._eta_power_decomposition(GL23, (3, 3))
    with pytest.raises(InternalError, match="kernel solve failed"):
        decomposition_report(TW4113, (0, 0), 4)


def test_natural_suite_solves_no_delta_kernel_and_certifies_each_label_once(monkeypatch):
    bases, certified = [], []
    kernel, certify = hm.kernel_basis_polys, hm._level_certificate

    def counted_kernel(op, basis, **kwargs):
        bases.append(tuple(basis))
        return kernel(op, basis, **kwargs)

    def counted_certificate(upper, lower):
        certified.append(upper.label)
        return certify(upper, lower)

    monkeypatch.setattr(hm, "kernel_basis_polys", counted_kernel)
    monkeypatch.setattr(hm, "_level_certificate", counted_certificate)
    labels = [(l, lp) for l in range(4) for lp in range(4)]
    rep = theorem_suite("T1", GL23, labels)
    assert rep.verdict is Verdict.PASS
    assert bases == []
    # every label's chain runs through labels of the grid, each certified once
    assert sorted(certified) == labels
    # the table lives for one suite: the next one certifies every label again
    theorem_suite("T1", GL23, labels)
    assert len(certified) == 2 * len(labels)
    # a lone report certifies its chain once
    del certified[:]
    rep = decomposition_report(GL23, (2, 2))
    assert rep.dimensions["harmonic_eta_overlap"] == 1
    assert certified == [(2, 2), (1, 1), (0, 0)]
    # the explicit path reuses the kernel of its window for the overlap
    # witness, and certifies nothing
    del certified[:]
    rep = hm._eta_power_decomposition(GL23, (2, 2))
    assert rep.dimensions["harmonic_eta_overlap"] == 1
    assert len(bases) == len(set(bases)) == 3
    assert certified == []
