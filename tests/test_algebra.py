import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import parse_polynomial
from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    integrate_bosonic,
    theta,
    vartheta,
    x,
    y,
)
from superharm.operators import DiffOperator


def P(v):
    return SuperPolynomial.variable(v)


def poly(text):
    return parse_polynomial(text)


def derive(p, v):
    """The engine's partial derivative d_v."""
    return DiffOperator.partial(v).apply(p)


# ===================================================================
# strategies
# ===================================================================

VARS_22 = [x(1), x(2), y(1), y(2), theta(1), theta(2), vartheta(1), vartheta(2)]

monomials = st.builds(
    lambda seq: oracles.mono_from_sequence(seq),
    st.lists(st.sampled_from(VARS_22), max_size=5),
).filter(lambda r: r is not None).map(lambda r: r[1])

coeffs = st.builds(
    Fraction, st.integers(-4, 4), st.integers(1, 3)
).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, max_terms=4):
    terms = draw(st.lists(st.tuples(monomials, coeffs), max_size=max_terms))
    acc = {}
    for m, c in terms:
        acc[m] = acc.get(m, Fraction(0)) + c
    return SuperPolynomial(acc)


variables = st.sampled_from(VARS_22)


def homogeneous_part(p, par):
    return SuperPolynomial({m: c for m, c in p.terms() if m.parity() == par})


# ===================================================================
# multiplication
# ===================================================================

def test_mul_anticommute():
    t1, t2 = P(theta(1)), P(theta(2))
    assert (t1 * t2).render() == "th1*th2"
    assert (t2 * t1).render() == "-th1*th2"
    assert t2 * t1 == -(t1 * t2)


def test_mul_nilpotent():
    t1 = P(theta(1))
    assert (t1 * t1).is_zero()


def test_mul_boson_commutes():
    f = P(x(1)) + P(theta(1)) * P(vartheta(1))
    g = P(x(1))
    assert (f * g).render() == "x1^2 + x1*th1*vt1"
    assert f * g == g * f


@given(polynomials(), polynomials(), st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=80)
def test_mul_supercommutative(p, q, pp, pq):
    f, g = homogeneous_part(p, pp), homogeneous_part(q, pq)
    sign = -1 if pp and pq else 1
    assert f * g == (g * f).scale(sign)


@given(polynomials(), polynomials())
@settings(max_examples=60)
def test_mul_matches_oracle(p, q):
    assert p * q == oracles.oracle_mul(p, q)


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=40)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


# ===================================================================
# derivatives
# ===================================================================

def test_derive_examples():
    assert derive(poly("x1^2*y1"), x(1)).render() == "2*x1*y1"
    assert derive(poly("th1*vt1"), vartheta(1)).render() == "-th1"
    assert derive(poly("th1*vt1"), theta(1)).render() == "vt1"


def test_derive_second_fermionic_zero():
    p = poly("x1*th1*th2*vt1")
    assert derive(derive(p, theta(2)), theta(2)).is_zero()


@given(polynomials(), variables)
@settings(max_examples=80)
def test_derive_matches_oracle(p, v):
    assert derive(p, v) == oracles.oracle_derive(p, v)


@given(polynomials(), polynomials(), variables, st.integers(0, 1))
@settings(max_examples=80)
def test_signed_leibniz(p, q, v, par):
    f = homogeneous_part(p, par)
    sign = -1 if (v.parity and par) else 1
    lhs = derive(f * q, v)
    rhs = derive(f, v) * q + (f * derive(q, v)).scale(sign)
    assert lhs == rhs


def test_integrate_examples():
    assert integrate_bosonic(poly("x1"), x(1)).render() == "1/2*x1^2"
    assert integrate_bosonic(poly("1"), x(1)).render() == "x1"
    f = poly("x1*y2*th1")
    assert derive(integrate_bosonic(f, x(1)), x(1)) == f


def test_integrate_rejects_fermionic():
    with pytest.raises(ValueError):
        integrate_bosonic(poly("th1"), theta(1))


@given(polynomials(), st.sampled_from([x(1), x(2), y(1), y(2)]))
@settings(max_examples=50)
def test_integrate_right_inverse(p, v):
    assert derive(integrate_bosonic(p, v), v) == p


# ===================================================================
# grading
# ===================================================================

GL23 = GradingScheme(SchemeKind.GL_NATURAL, 2, 3)
GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
TW4113 = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
OSP23 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 3)


def mono(text):
    terms = parse_polynomial(text).terms()
    assert len(terms) == 1 and terms[0][1] == 1
    return terms[0][0]


def test_grade_examples():
    assert oracles.oracle_grade(mono("x1*th2"), GL23) == (2, 0)
    assert oracles.oracle_grade(mono("x1*y2"), TW4113) == (-1, 1)
    assert oracles.oracle_grade(mono("th1*vt1"), OSP23) == 2


def test_scheme_validation():
    with pytest.raises(ValueError):
        GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 3, 4)  # n1+2 > n2
    with pytest.raises(ValueError):
        GradingScheme(SchemeKind.GL_TWISTED, 3, 1, 1, 4)  # n2 > n
    with pytest.raises(ValueError):
        GradingScheme(SchemeKind.GL_NATURAL, 2, 1, 1, 3)  # stray n1/n2


@given(monomials, monomials)
@settings(max_examples=60)
def test_grading_additive(m1, m2):
    prod = m1.mul(m2)
    if prod is None:
        return
    _, m = prod
    for sch in (GradingScheme(SchemeKind.GL_NATURAL, 2, 2),
                GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 2)):
        g1, g2, g = (oracles.oracle_grade(u, sch) for u in (m1, m2, m))
        if isinstance(g, tuple):
            assert g == (g1[0] + g2[0], g1[1] + g2[1])
        else:
            assert g == g1 + g2


# ===================================================================
# slice enumeration
# ===================================================================

def test_slice_gl_natural_11():
    sl = enumerate_slice(GL21, (1, 1))
    names = {m.render() for m in sl.basis}
    assert names == {
        "x1*y1", "x1*y2", "x2*y1", "x2*y2",
        "x1*vt1", "x2*vt1", "y1*th1", "y2*th1", "th1*vt1",
    }
    assert sl.complete


def test_slice_gl_natural_00():
    sl = enumerate_slice(GL21, (0, 0))
    assert [m.render() for m in sl.basis] == ["1"]


def test_slice_twisted_00_cap2():
    sl = enumerate_slice(TW4113, (0, 0), 2)
    names = {m.render() for m in sl.basis}
    assert {"1", "x1*x2", "x1*x3", "x1*x4", "y1*y4", "y2*y4", "y3*y4"} <= names
    assert "x1*th1" in names and "y4*vt1" in names
    assert "th1*vt1" not in names  # bidegree (1,1), not (0,0)
    assert not sl.complete


def test_slice_requires_cap_when_infinite():
    with pytest.raises(ValueError):
        enumerate_slice(TW4113, (0, 0))


def test_slice_odd_natural_complete_when_cap_reaches_label():
    sch = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 1, 1)
    sl = enumerate_slice(sch, 2, 4)
    assert sl.complete
    assert {m.render() for m in sl.basis} == {
        "x0^2", "x0*x1", "x0*y1", "x0*th1", "x0*vt1",
        "x1^2", "x1*y1", "x1*th1", "x1*vt1",
        "y1^2", "y1*th1", "y1*vt1", "th1*vt1",
    }
    # x0 counts in the degree: the uncapped slice is the same finite basis
    assert enumerate_slice(sch, 2).basis == sl.basis
    assert not enumerate_slice(sch, 2, 1).complete


SLICE_GRID = [
    (GL21, (1, 1), None),
    (GL21, (2, 1), None),
    (GL23, (1, 2), None),
    (GL23, (0, 3), None),
    (TW4113, (0, 0), 3),
    (TW4113, (1, -1), 3),
    (TW4113, (-1, 0), 2),
    (GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1), 3, None),
    (GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3), 0, 3),
    (GradingScheme(SchemeKind.OSP_ODD_NATURAL, 1, 2), 3, 3),
    (GradingScheme(SchemeKind.OSP_ODD_TWISTED, 3, 1, 1, 3), 1, 3),
    # a swapped y (n2 < n) on the x0 scheme
    (GradingScheme(SchemeKind.OSP_ODD_TWISTED, 4, 1, 1, 3), 1, 3),
    (GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3), -1, 3),
    (GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 2), 2, 4),
    (GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1), 3, None),
    # a cap below l + lp leaves nothing of a natural slice
    (GL21, (2, 1), 2),
]


@pytest.mark.parametrize("scheme,label,cap", SLICE_GRID)
def test_slice_matches_filter_oracle(scheme, label, cap):
    bound = cap
    if bound is None:
        bound = label if isinstance(label, int) else sum(label)
    got = enumerate_slice(scheme, label, cap).basis
    want = oracles.oracle_slice(scheme, label, bound)
    assert list(got) == want
    assert len(set(got)) == len(got)


@st.composite
def slice_arguments(draw):
    """(scheme, label, cap) over all six kinds; a twisted slice is capped."""
    kind = draw(st.sampled_from(list(SchemeKind)))
    if kind.value.endswith("twisted"):
        n = draw(st.integers(3, 4))
        n1 = draw(st.integers(1, n - 2))
        scheme = GradingScheme(kind, n, draw(st.integers(1, 2)), n1,
                               draw(st.integers(n1 + 2, n)))
        cap = draw(st.integers(0, 4))
    else:
        scheme = GradingScheme(kind, draw(st.integers(2, 3)), draw(st.integers(1, 2)))
        cap = draw(st.none() | st.integers(0, 5))
    if scheme.is_gl:
        label = (draw(st.integers(-2, 3)), draw(st.integers(-2, 3)))
    else:
        label = draw(st.integers(-2, 4))
    return scheme, label, cap


@given(slice_arguments())
@settings(max_examples=150, deadline=None)
def test_slice_basis_is_in_sort_key_order(args):
    # the enumerator sorts by its own integer key; it must give the order
    # SuperMonomial.sort_key defines, with no monomial twice
    basis = enumerate_slice(*args).basis
    assert basis == tuple(sorted(basis, key=SuperMonomial.sort_key))
    assert len(set(basis)) == len(basis)


def test_slice_empty_for_negative_labels():
    assert enumerate_slice(GL21, (-1, 0)).dimension() == 0
    assert enumerate_slice(GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1), -2).dimension() == 0


def natural_count(bosons, fermions, k):
    """d(k): the number of monomials of degree k in the given numbers of
    bosonic and fermionic variables."""
    return sum(math.comb(fermions, j) * math.comb(k - j + bosons - 1, bosons - 1)
               for j in range(min(fermions, k) + 1))


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 1), (1, 2)])
def test_gl_natural_slice_sizes_match_closed_form(n, m):
    # (l, lp) splits into degree l in the x's and thetas, lp in the y's and
    # varthetas
    sch = GradingScheme(SchemeKind.GL_NATURAL, n, m)
    for l in range(4):
        for lp in range(4):
            assert enumerate_slice(sch, (l, lp)).dimension() == (
                natural_count(n, m, l) * natural_count(n, m, lp))


@pytest.mark.parametrize("kind", [SchemeKind.OSP_EVEN_NATURAL,
                                  SchemeKind.OSP_ODD_NATURAL])
@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (1, 2)])
def test_osp_natural_slice_sizes_match_closed_form(kind, n, m):
    sch = GradingScheme(kind, n, m)
    bosons = 2 * n + (1 if sch.has_x0 else 0)
    for k in range(5):
        assert enumerate_slice(sch, k).dimension() == natural_count(bosons, 2 * m, k)


# ===================================================================
# text round trip
# ===================================================================

def test_render_style():
    p = poly("x1*y1") - poly("th1*vt1").scale(Fraction(3, 2))
    assert p.render() == "x1*y1 - 3/2*th1*vt1"
    assert parse_polynomial(p.render()) == p


def test_zero_renders():
    assert SuperPolynomial.zero().render() == "0"
    assert parse_polynomial("0").is_zero()


@given(polynomials())
@settings(max_examples=80)
def test_render_parse_roundtrip(p):
    assert parse_polynomial(p.render()) == p
