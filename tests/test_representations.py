from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superharm.algebra import (
    Family,
    GradingScheme,
    SchemeKind,
    SuperPolynomial,
    VariableId,
    enumerate_slice,
    theta,
    vartheta,
    x,
    x0,
    y,
)
from superharm.operators import DiffOperator, named_operator, super_commutator
from superharm.representations import (
    AlgebraElement,
    AlgebraFamily,
    AlgebraSpace,
    algebra_basis,
    algebra_space,
    bracket,
    cartan_basis,
    is_orthosymplectic,
    osp_basis,
    osp_stabilizer_check,
    positive_generators,
    rep_operator,
    simple_generators,
    verify_homomorphism,
    weight_of,
)
from superharm.report import InternalError, Verdict

import oracles
from oracles import parse_polynomial

P = SuperPolynomial.variable
GL11 = GradingScheme(SchemeKind.GL_NATURAL, 1, 1)
GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
GL23 = GradingScheme(SchemeKind.GL_NATURAL, 2, 3)
TW4113 = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
TW3113 = GradingScheme(SchemeKind.GL_TWISTED, 3, 1, 1, 3)
EV11 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 1, 1)
EV21 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1)
EV23 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 3)
EVTW4113 = GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3)
EVTW3113 = GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 3, 1, 1, 3)
ODD11 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 1, 1)
ODD21 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1)
ODD23 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 3)
ODDTW3113 = GradingScheme(SchemeKind.OSP_ODD_TWISTED, 3, 1, 1, 3)

GL_SP = AlgebraSpace(AlgebraFamily.GL, 2, 1)


def E(space, a, b):
    return AlgebraElement.unit(space, a, b)


# ===================================================================
# matrix spaces and the super-bracket
# ===================================================================

def test_space_dimensions():
    assert AlgebraSpace(AlgebraFamily.GL, 2, 3).lie_dimension() == 25
    assert AlgebraSpace(AlgebraFamily.OSP_EVEN, 2, 1).lie_dimension() == 17
    assert AlgebraSpace(AlgebraFamily.OSP_EVEN, 2, 3).lie_dimension() == 51
    assert AlgebraSpace(AlgebraFamily.OSP_ODD, 1, 1).lie_dimension() == 12


def test_space_parity():
    # E[a, b] with b even has the parity of index a
    sp = AlgebraSpace(AlgebraFamily.GL, 2, 1)
    assert sp.unit_parities([(a, 1) for a in sp.indices()]) == [0, 0, 1]
    odd = AlgebraSpace(AlgebraFamily.OSP_ODD, 1, 1)
    assert odd.unit_parities([(0, 0)]) == [0]
    assert odd.unit_parities([(a, 0) for a in odd.indices()]) == [0, 0, 0, 1, 1]


def test_bracket_even_pair():
    got = bracket(E(GL_SP, 1, 2), E(GL_SP, 2, 1))
    assert got == E(GL_SP, 1, 1) - E(GL_SP, 2, 2)
    assert got.render() == "E[1,1] - E[2,2]"


def test_bracket_odd_pair_anticommutes():
    # both units are odd, so the bracket gains a plus sign
    got = bracket(E(GL_SP, 1, 3), E(GL_SP, 3, 1))
    assert got == E(GL_SP, 1, 1) + E(GL_SP, 3, 3)


def test_bracket_cartan_action():
    assert bracket(E(GL_SP, 1, 1), E(GL_SP, 1, 2)) == E(GL_SP, 1, 2)
    assert bracket(E(GL_SP, 2, 2), E(GL_SP, 1, 2)) == -E(GL_SP, 1, 2)


def test_element_arithmetic_and_render():
    e = E(GL_SP, 1, 2).scale(2) - E(GL_SP, 2, 1)
    assert e.render() == "2*E[1,2] - E[2,1]"
    assert e.coefficient((1, 2)) == 2
    assert (e - e).is_zero()
    assert e.parity() == 0
    assert (E(GL_SP, 1, 3) + E(GL_SP, 1, 2)).parity() is None


def test_elements_of_different_spaces_do_not_combine():
    other = AlgebraSpace(AlgebraFamily.GL, 1, 2)
    u, v = E(GL_SP, 1, 2), E(other, 1, 2)
    with pytest.raises(ValueError):
        u + v
    with pytest.raises(ValueError):
        u - v
    assert u != v
    assert u == E(GL_SP, 1, 2)
    assert AlgebraElement.zero(GL_SP) != AlgebraElement.zero(other)


def test_unit_out_of_range():
    with pytest.raises(ValueError):
        E(GL_SP, 0, 1)
    with pytest.raises(ValueError):
        E(AlgebraSpace(AlgebraFamily.OSP_EVEN, 1, 1), 5, 1)


unit_idx = st.integers(min_value=1, max_value=4)


@st.composite
def gl22_units(draw):
    sp = AlgebraSpace(AlgebraFamily.GL, 2, 2)
    return E(sp, draw(unit_idx), draw(unit_idx))


@given(gl22_units(), gl22_units())
@settings(max_examples=60, deadline=None)
def test_bracket_super_antisymmetry(u, v):
    sgn = -1 if (u.parity() and v.parity()) else 1
    assert bracket(u, v) == bracket(v, u).scale(-sgn)


@given(gl22_units(), gl22_units(), gl22_units())
@settings(max_examples=60, deadline=None)
def test_bracket_super_jacobi(a, b, c):
    pa, pb, pc = a.parity(), b.parity(), c.parity()
    s1 = -1 if (pa and pc) else 1
    s2 = -1 if (pb and pa) else 1
    s3 = -1 if (pc and pb) else 1
    total = (bracket(a, bracket(b, c)).scale(s1)
             + bracket(b, bracket(c, a)).scale(s2)
             + bracket(c, bracket(a, b)).scale(s3))
    assert total.is_zero()


ORACLE_SPACES = [AlgebraSpace(AlgebraFamily.GL, 2, 2),
                 AlgebraSpace(AlgebraFamily.OSP_EVEN, 2, 1),
                 AlgebraSpace(AlgebraFamily.OSP_ODD, 1, 2)]
ODD12_SP = ORACLE_SPACES[2]


@st.composite
def unit_combination_pairs(draw):
    """Two random rational combinations of the matrix units of one ambient
    space, of either parity or mixed."""
    sp = draw(st.sampled_from(ORACLE_SPACES))
    keys = st.tuples(st.sampled_from(sp.indices()), st.sampled_from(sp.indices()))
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    u, v = (AlgebraElement(sp, draw(st.dictionaries(keys, coeffs, min_size=1,
                                                    max_size=4)))
            for _ in range(2))
    return u, v


@given(unit_combination_pairs())
# index 0, the lower bound of the odd osp table, next to the odd index 3
@example((AlgebraElement(ODD12_SP, {(0, 3): 1, (0, 1): 2, (0, 0): -1}),
          AlgebraElement(ODD12_SP, {(3, 0): 1, (1, 0): Fraction(1, 2),
                                    (2, 2): 3})))
@settings(max_examples=150, deadline=None)
def test_bracket_matches_dense_supermatrix_oracle(pair):
    u, v = pair
    assert bracket(u, v) == oracles.oracle_bracket(u, v)


@pytest.mark.parametrize("space, key", [
    (GL_SP, (0, 1)),
    (GL_SP, (1, 4)),
    (AlgebraSpace(AlgebraFamily.OSP_EVEN, 1, 1), (0, 1)),
    (AlgebraSpace(AlgebraFamily.OSP_ODD, 1, 1), (-1, 0)),
    (AlgebraSpace(AlgebraFamily.OSP_ODD, 1, 1), (2, 5)),
])
def test_a_key_out_of_range_raises(space, key):
    # the constructor does not check keys; the parity table does
    bad, good = AlgebraElement(space, {key: 1}), AlgebraElement(space, {(1, 1): 1})
    with pytest.raises(ValueError, match="out of range"):
        bad.parity()
    for u, v in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="out of range"):
            bracket(u, v)


# ===================================================================
# osp inside gl
# ===================================================================

def test_osp_basis_dimensions():
    for scheme in (EV21, EV23, ODD11, ODD21):
        sp = algebra_space(scheme)
        basis = osp_basis(sp)
        assert len(basis) == sp.lie_dimension()


def test_osp_basis_is_independent():
    sp = algebra_space(EV21)
    basis = osp_basis(sp)
    keys = sorted({k for e in basis for k, _ in e.terms()})
    rows = [[e.coefficient(k) for k in keys] for e in basis]
    from superharm.linalg import rank

    assert rank(rows) == len(basis)


def test_osp_membership():
    sp = algebra_space(EV21)
    for e in osp_basis(sp):
        assert is_orthosymplectic(e)
    assert not is_orthosymplectic(E(sp, 1, 1))  # E[1,1] alone is not in osp
    assert is_orthosymplectic(E(sp, 1, 1) - E(sp, 3, 3))


OSP_SPACES = [algebra_space(EV21), algebra_space(ODD21)]

osp_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def osp_combinations(draw):
    """(random rational combination of the osp basis elements of one space,
    one random matrix unit of the same ambient space)."""
    sp = draw(st.sampled_from(OSP_SPACES))
    basis = osp_basis(sp)
    coeffs = draw(st.lists(osp_rationals, min_size=len(basis), max_size=len(basis)))
    comb = AlgebraElement.zero(sp)
    for e, c in zip(basis, coeffs):
        comb = comb + e.scale(c)
    a = draw(st.sampled_from(list(sp.indices())))
    b = draw(st.sampled_from(list(sp.indices())))
    return comb, E(sp, a, b)


@given(osp_combinations())
@settings(max_examples=120, deadline=None)
def test_osp_membership_matches_dense_oracle(data):
    comb, unit = data
    assert is_orthosymplectic(comb)
    assert oracles.oracle_is_orthosymplectic(comb)
    off = comb + unit
    assert is_orthosymplectic(off) == oracles.oracle_is_orthosymplectic(off)


ETA_SCHEMES = [GradingScheme(kind, n, m)
               for kind in (SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_ODD_NATURAL)
               for n, m in ((1, 2), (2, 3), (3, 2))]

# the partner of each variable under the invariant form eta
FORM_PARTNER = {Family.X0: Family.X0, Family.X: Family.Y, Family.Y: Family.X,
                Family.THETA: Family.VARTHETA, Family.VARTHETA: Family.THETA}


@st.composite
def ambient_elements(draw, scheme):
    """An element of the scheme's ambient gl: a rational combination of osp
    basis elements, a matrix unit E[a,b], or E[a,b] +- E[b*,a*] with b*
    the index of b's partner variable; the last two plus, sometimes, such
    a combination."""
    sp = algebra_space(scheme)
    var_of = dict(zip(sp.indices(), scheme.variables()))
    index_of = {v: a for a, v in var_of.items()}
    partner = lambda a: index_of[VariableId(FORM_PARTNER[var_of[a].family],
                                            var_of[a].index)]
    basis = osp_basis(sp)
    picked = draw(st.lists(st.sampled_from(range(len(basis))), max_size=4))
    comb = AlgebraElement.zero(sp)
    for i in picked:
        comb = comb + basis[i].scale(draw(osp_rationals))
    case = draw(st.sampled_from(["combination", "unit", "mirrored pair"]))
    if case == "combination":
        return comb
    a = draw(st.sampled_from(list(sp.indices())))
    b = draw(st.sampled_from(list(sp.indices())))
    elem = E(sp, a, b)
    if case == "mirrored pair":
        sign = draw(st.sampled_from([1, -1]))
        elem = elem + E(sp, partner(b), partner(a)).scale(sign)
    return elem + comb if draw(st.booleans()) else elem


@pytest.mark.parametrize("scheme", ETA_SCHEMES,
                         ids=lambda s: f"{s.kind.value}-{s.n}-{s.m}")
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_osp_membership_matches_eta_stabilizer(scheme, data):
    """On a natural scheme rep_operator is a bijection from the ambient gl
    onto the first-order atoms, and osp is exactly the stabilizer of the
    eta polynomial there: an oracle that shares nothing with the sign rule
    behind `osp_basis` and `is_orthosymplectic`."""
    elem = data.draw(ambient_elements(scheme))
    eta = named_operator("ETA", scheme).apply(SuperPolynomial.one())
    stabilizes = rep_operator(elem, scheme).apply(eta).is_zero()
    assert is_orthosymplectic(elem) == stabilizes, elem.render()


def test_osp_bracket_closure_sample():
    sp = algebra_space(ODD11)
    basis = osp_basis(sp)
    for u in basis:
        for v in basis:
            br = bracket(u, v)
            assert br.is_zero() or is_orthosymplectic(br)


# ===================================================================
# representing operators: spot values from every variant
# ===================================================================

def w(coeff, mult="", dbos=(), dferm=()):
    p = parse_polynomial(mult) if mult else SuperPolynomial.one()
    (mono, c), = p.terms()
    assert c == 1
    return DiffOperator.word(coeff, mono, dbos, dferm)


def test_gl_natural_units():
    assert rep_operator(E(algebra_space(GL23), 1, 3), GL23) == (
        w(1, "x1", dferm=(theta(1),)) + w(-1, "vt1", dbos=((y(1), 1),)))
    assert rep_operator(E(algebra_space(GL23), 3, 1), GL23) == (
        w(1, "th1", dbos=((x(1), 1),)) + w(1, "y1", dferm=(vartheta(1),)))
    assert rep_operator(E(algebra_space(GL23), 1, 2), GL23) == (
        w(1, "x1", dbos=((x(2), 1),)) + w(-1, "y2", dbos=((y(1), 1),)))
    assert rep_operator(E(algebra_space(GL23), 3, 4), GL23) == (
        w(1, "th1", dferm=(theta(2),)) + w(-1, "vt2", dferm=(vartheta(1),)))
    assert rep_operator(E(algebra_space(GL23), 2, 5), GL23) == (
        w(1, "x2", dferm=(theta(3),)) + w(-1, "vt3", dbos=((y(2), 1),)))
    assert rep_operator(E(algebra_space(GL23), 5, 2), GL23) == (
        w(1, "th3", dbos=((x(2), 1),)) + w(1, "y2", dferm=(vartheta(3),)))
    assert rep_operator(E(algebra_space(GL23), 5, 3), GL23) == (
        w(1, "th3", dferm=(theta(1),)) + w(-1, "vt1", dferm=(vartheta(3),)))
    assert rep_operator(E(algebra_space(GL23), 4, 4), GL23) == (
        w(1, "th2", dferm=(theta(2),)) + w(-1, "vt2", dferm=(vartheta(2),)))


def test_gl_twisted_units():
    sp = algebra_space(TW4113)
    # lowering unit across the first twisted wall: two multipliers
    assert rep_operator(E(sp, 2, 1), TW4113) == (
        w(-1, "x1*x2") + w(-1, "y1", dbos=((y(2), 1),)))
    # raising unit inside the twisted wall: two derivatives
    assert rep_operator(E(sp, 1, 2), TW4113) == (
        w(1, dbos=((x(1), 1), (x(2), 1))) + w(-1, "y2", dbos=((y(1), 1),)))
    # diagonal unit picks up the constant shifts
    assert rep_operator(E(sp, 1, 1), TW4113) == (
        w(-1, "x1", dbos=((x(1), 1),)) + DiffOperator.scalar(-1)
        + w(-1, "y1", dbos=((y(1), 1),)))
    assert rep_operator(E(sp, 4, 4), TW4113) == (
        w(1, "x4", dbos=((x(4), 1),)) + w(1, "y4", dbos=((y(4), 1),))
        + DiffOperator.scalar(1))
    # odd units in the three column regimes
    assert rep_operator(E(sp, 1, 5), TW4113) == (
        w(1, dbos=((x(1), 1),), dferm=(theta(1),)) + w(-1, "vt1", dbos=((y(1), 1),)))
    assert rep_operator(E(sp, 2, 5), TW4113) == (
        w(1, "x2", dferm=(theta(1),)) + w(-1, "vt1", dbos=((y(2), 1),)))
    assert rep_operator(E(sp, 4, 5), TW4113) == (
        w(1, "x4", dferm=(theta(1),)) + w(1, "y4*vt1"))
    assert rep_operator(E(sp, 5, 1), TW4113) == (
        w(-1, "x1*th1") + w(1, "y1", dferm=(vartheta(1),)))
    assert rep_operator(E(sp, 5, 4), TW4113) == (
        w(1, "th1", dbos=((x(4), 1),)) + w(1, dbos=((y(4), 1),), dferm=(vartheta(1),)))


def test_osp_natural_units():
    sp = algebra_space(EV21)
    assert rep_operator(E(sp, 1, 3), EV21) == w(1, "x1", dbos=((y(1), 1),))
    assert rep_operator(E(sp, 5, 2), EV21) == w(1, "th1", dbos=((x(2), 1),))
    sp0 = algebra_space(ODD21)
    assert rep_operator(E(sp0, 0, 1), ODD21) == w(1, "x0", dbos=((x(1), 1),))
    combo = E(sp0, 0, 1) - E(sp0, 3, 0)
    assert rep_operator(combo, ODD21) == (
        w(1, "x0", dbos=((x(1), 1),)) + w(-1, "y1", dbos=((x0(), 1),)))


def test_osp_even_twisted_units():
    sp = algebra_space(EVTW4113)
    n = 4
    # antisymmetric even combination straddling both twisted walls
    got = rep_operator(E(sp, n + 4, 1) - E(sp, n + 1, 4), EVTW4113)
    assert got == w(-1, "x1", dbos=((y(4), 1),)) + w(-1, "y1", dbos=((x(4), 1),))
    # odd symmetric combination away from the walls
    got = rep_operator(E(sp, 2, 2 * n + 2) + E(sp, 2 * n + 1, n + 2), EVTW4113)
    assert got == (w(1, "x2", dferm=(vartheta(1),)) + w(1, "th1", dbos=((y(2), 1),)))
    # gl(n)-type combination with a two-derivative atom
    got = rep_operator(E(sp, 1, 2) - E(sp, n + 2, n + 1), EVTW4113)
    assert got == w(1, dbos=((x(1), 1), (x(2), 1))) + w(-1, "y2", dbos=((y(1), 1),))


def test_osp_odd_twisted_units():
    sp = algebra_space(ODDTW3113)
    assert rep_operator(E(sp, 0, 1), ODDTW3113) == w(-1, "x0*x1")
    assert rep_operator(E(sp, 0, 2), ODDTW3113) == w(1, "x0", dbos=((x(2), 1),))
    assert rep_operator(E(sp, 1, 0), ODDTW3113) == w(1, dbos=((x(1), 1), (x0(), 1)))
    assert rep_operator(E(sp, 0, 0), ODDTW3113) == w(1, "x0", dbos=((x0(), 1),))
    assert rep_operator(E(sp, 4, 0), ODDTW3113) == w(1, "y1", dbos=((x0(), 1),))
    assert rep_operator(E(sp, 0, 7), ODDTW3113) == w(1, "x0", dferm=(theta(1),))
    assert rep_operator(E(sp, 8, 0), ODDTW3113) == w(1, "vt1", dbos=((x0(), 1),))


def test_rep_operator_space_mismatch():
    with pytest.raises(ValueError):
        rep_operator(E(GL_SP, 1, 1), GL23)


# ===================================================================
# homomorphism checks
# ===================================================================

@pytest.mark.parametrize("scheme", [
    GL11, GL21, TW3113, EV11, EVTW3113, ODD11, ODDTW3113,
])
def test_homomorphism_all_variants(scheme):
    report = verify_homomorphism(scheme)
    assert report.verdict is Verdict.PASS, report.explanation
    assert report.dimensions["pairs_checked"] == len(algebra_basis(scheme)) ** 2


MISMATCH = ("normal-form mismatch at a=%s, b=%s: rho([a,b]) - "
            "(rho(a)rho(b) -+ rho(b)rho(a)) = %s")
RHO_E11 = "x1*d_x1 - y1*d_y1"


def _wrong_brackets(reps, monkeypatch, pairs):
    """Make `bracket` return [e_a, e_b] + E[1,1] for each ordered pair
    (a, b) of GL11 basis indices in pairs."""
    basis = algebra_basis(GL11)
    original = reps.bracket

    def wrong(u, v):
        got = original(u, v)
        if (basis.index(u), basis.index(v)) in pairs:
            return got + E(u.space, 1, 1)
        return got

    monkeypatch.setattr(reps, "bracket", wrong)


def _negated_unit_e12(reps, monkeypatch):
    original = reps._gl_natural_unit

    def corrupted(scheme, a, b):
        got = original(scheme, a, b)
        return got.scale(-1) if (a, b) == (1, 2) else got

    monkeypatch.setattr(reps, "_gl_natural_unit", corrupted)


# GL11 basis: 0 = E[1,1], 1 = E[1,2], 2 = E[2,1], 3 = E[2,2].  Each
# expected report is the one a loop over ordered pairs in row-major order
# gives when it stops at the first failing pair: that pair is named, and
# pairs_checked is its row-major index + 1.
@pytest.mark.parametrize("corrupt, pairs_checked, explanation", [
    pytest.param(lambda r, mp: _wrong_brackets(r, mp, {(2, 0)}), 9,
                 MISMATCH % ("E[2,1]", "E[1,1]", RHO_E11), id="lower-2-0"),
    pytest.param(lambda r, mp: _wrong_brackets(r, mp, {(2, 0), (1, 3)}), 8,
                 MISMATCH % ("E[1,2]", "E[2,2]", RHO_E11),
                 id="lower-2-0-upper-1-3"),
    pytest.param(lambda r, mp: _wrong_brackets(r, mp, {(3, 0), (1, 2)}), 7,
                 MISMATCH % ("E[1,2]", "E[2,1]", RHO_E11),
                 id="lower-3-0-upper-1-2"),
    pytest.param(lambda r, mp: _wrong_brackets(r, mp, {(3, 0), (2, 1)}), 10,
                 MISMATCH % ("E[2,1]", "E[1,2]", RHO_E11),
                 id="lower-3-0-lower-2-1"),
    pytest.param(lambda r, mp: _wrong_brackets(r, mp, {(3, 2), (3, 1)}), 14,
                 MISMATCH % ("E[2,2]", "E[1,2]", RHO_E11),
                 id="lower-3-2-lower-3-1"),
    pytest.param(_negated_unit_e12, 7,
                 MISMATCH % ("E[1,2]", "E[2,1]", "2*x1*d_x1 - 2*y1*d_y1 + "
                             "2*th1*d_th1 - 2*vt1*d_vt1"),
                 id="unit-e12-negated"),
])
def test_homomorphism_failure_report(monkeypatch, corrupt, pairs_checked,
                                     explanation):
    import superharm.representations as reps

    reps._unit_operator.cache_clear()
    corrupt(reps, monkeypatch)
    try:
        report = verify_homomorphism(GL11)
    finally:
        reps._unit_operator.cache_clear()
    assert report.verdict is Verdict.FAIL
    assert report.explanation == explanation
    assert report.dimensions == {"algebra_dimension": 4,
                                 "pairs_checked": pairs_checked,
                                 "sample_dimension": 0}


@pytest.mark.parametrize("scheme", [GL11, ODD11], ids=["gl11", "odd11"])
def test_homomorphism_builds_each_product_once(monkeypatch, scheme):
    import superharm.operators as ops
    import superharm.representations as reps

    calls = {"super_commutator": 0, "compose": 0, "bracket": 0,
             "rep_operator": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(ops, "compose")
    for name in ("super_commutator", "bracket", "rep_operator"):
        counted(reps, name)
    n = len(algebra_basis(scheme))
    report = verify_homomorphism(scheme)
    assert report.verdict is Verdict.PASS
    assert report.dimensions["pairs_checked"] == n * n
    assert calls["super_commutator"] == n * (n + 1) // 2
    assert calls["compose"] == 0
    assert calls["bracket"] == n * n
    # one represented bracket per unordered pair: [b, a] = -s [a, b]
    assert calls["rep_operator"] == n + n * (n + 1) // 2


# ===================================================================
# positive generators, Cartan, weights
# ===================================================================

def even_positive_generators(scheme):
    return [g for g in positive_generators(scheme) if g.parity() == 0]


def test_positive_generator_counts():
    assert len(positive_generators(GL23)) == 1 + 3 + 6
    assert len(even_positive_generators(GL23)) == 1 + 3
    assert len(positive_generators(EV21)) == 1 + 1 + 0 + 1 + 2 * 2
    assert len(even_positive_generators(EV21)) == 3
    # odd variant appends one family per row/column-0 pair
    assert len(positive_generators(ODD21)) == len(positive_generators(EV21)) + 2 + 1
    # the column-0 family E[0, y_i] - E[x_i, 0] is even
    odd_space = algebra_space(ODD21)
    evens = even_positive_generators(ODD21)
    assert len(evens) == 5
    assert E(odd_space, 0, 3) - E(odd_space, 1, 0) in evens
    # every kind: positive and negative roots pair up around the Cartan part
    natural = (SchemeKind.GL_NATURAL, SchemeKind.OSP_EVEN_NATURAL,
               SchemeKind.OSP_ODD_NATURAL)
    schemes = [GradingScheme(kind, n, m) for kind in natural
               for n, m in ((1, 1), (2, 1), (2, 3), (4, 2))]
    schemes += [GradingScheme(kind, 4, 2, 1, 3) for kind in SchemeKind
                if kind not in natural]
    for scheme in schemes:
        assert (2 * len(positive_generators(scheme)) + len(cartan_basis(scheme))
                == algebra_space(scheme).lie_dimension())


@pytest.mark.parametrize("scheme", [GL23, EV23, ODD23, TW4113])
def test_dropping_a_simple_root_vector_fails_the_span_check(scheme):
    import superharm.representations as reps

    simple = simple_generators(scheme)
    positive = positive_generators(scheme)
    reps._require_generates(simple, positive)
    for i in range(len(simple)):
        with pytest.raises(InternalError, match="do not generate"):
            reps._require_generates(simple[:i] + simple[i + 1:], positive)


def test_simple_generators_raise_when_the_span_check_loses_one(monkeypatch):
    import superharm.representations as reps

    original = reps._require_generates
    monkeypatch.setattr(reps, "_require_generates",
                        lambda simple, positive: original(simple[1:], positive))
    reps.simple_generators.cache_clear()
    try:
        with pytest.raises(InternalError, match="do not generate"):
            reps.simple_generators(EV23)
    finally:
        reps.simple_generators.cache_clear()


def test_cartan_weights_natural():
    assert weight_of(P(x(1)) * P(x(1)), GL23) == (2, 0, 0, 0, 0)
    vec = P(theta(1)) * (P(vartheta(2)) * P(vartheta(3)))
    assert weight_of(vec, GL23) == (0, 0, 1, -1, -1)
    assert weight_of(P(x(1)) + P(theta(1)), GL23) is None
    with pytest.raises(ValueError):
        weight_of(SuperPolynomial.zero(), GL23)


def test_cartan_weights_twisted_shift():
    # the twisted diagonal operators carry constant shifts, so the vacuum
    # already has a nonzero weight
    wt = weight_of(SuperPolynomial.one(), TW4113)
    assert wt == (-1, 0, 0, 1, 0)


def test_cartan_weights_osp():
    assert weight_of(P(x(1)), EV23) == (1, 0, 0, 0, 0)
    assert weight_of(P(theta(2)), EV23) == (0, 0, 0, 1, 0)
    assert weight_of(P(y(1)), EV23) == (-1, 0, 0, 0, 0)
    assert weight_of(P(x0()), ODD21) == (0, 0, 0)


def test_singular_vector_shape_example():
    # x1 in the (1,0) slice is annihilated by every positive generator
    v = P(x(1))
    for g in positive_generators(GL23):
        assert rep_operator(g, GL23).apply(v).is_zero()
    assert weight_of(v, GL23) == (1, 0, 0, 0, 0)


# ===================================================================
# structural invariants of the representations
# ===================================================================

@pytest.mark.parametrize("scheme", [
    GL21, TW3113, EV21, EVTW3113, ODD11, ODD21, ODDTW3113,
])
def test_rep_commutes_with_delta(scheme):
    dl = named_operator("DELTA", scheme)
    for e in algebra_basis(scheme):
        got = super_commutator(rep_operator(e, scheme), dl)
        assert got.is_zero(), (e.render(), got.render())


def test_eta_invariance_natural():
    for scheme in (GL21, EV21, EV23, ODD11, ODD21):
        eta = named_operator("ETA", scheme).apply(SuperPolynomial.one())
        for e in algebra_basis(scheme):
            assert rep_operator(e, scheme).apply(eta).is_zero(), e.render()


def test_eta_invariance_twisted():
    for scheme in (TW3113, EVTW3113, ODDTW3113):
        eta = named_operator("ETA", scheme)
        for e in algebra_basis(scheme):
            assert super_commutator(rep_operator(e, scheme), eta).is_zero(), e.render()


def test_local_nilpotency_of_positive_generators():
    for scheme in (GL21, EV21, ODD11, TW3113):
        cap = 2 if (scheme.is_twisted or scheme.has_x0) else None
        label = (1, 1) if scheme.is_gl else 2
        sl = enumerate_slice(scheme, label, cap)
        bound = max(u.degree() for u in sl.basis) + 2 * scheme.m + 2
        for g in positive_generators(scheme):
            op = rep_operator(g, scheme)
            for mono in sl.basis:
                p = SuperPolynomial.monomial(mono)
                for _ in range(bound):
                    p = op.apply(p)
                assert p.is_zero(), (g.render(), mono.render())


# ===================================================================
# stabilizer characterization
# ===================================================================

def test_stabilizer_osp_even():
    report = osp_stabilizer_check(EV21)
    assert report.verdict is Verdict.PASS
    assert report.dimensions["kernel_dimension"] == 17
    assert report.dimensions["atom_count"] == 36


def test_stabilizer_osp_odd():
    report = osp_stabilizer_check(ODD11)
    assert report.verdict is Verdict.PASS
    assert report.dimensions["kernel_dimension"] == 12
    assert report.dimensions["atom_count"] == 25


def test_stabilizer_rejects_other_schemes():
    with pytest.raises(ValueError):
        osp_stabilizer_check(EVTW3113)
    with pytest.raises(ValueError):
        osp_stabilizer_check(GL21)
