from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperPolynomial,
    enumerate_slice,
    parse_polynomial,
)
from superharm.algebra import x as algx, y as algy
from superharm.harmonic import _window_intersection_dimension
from superharm.linalg import (
    MatrixBudgetError,
    in_span,
    independent_subset,
    kernel_basis_polys,
    nullspace,
    rank,
    rref,
    span_rank,
)
from superharm.operators import named_operator
from superharm.report import InternalError

from oracles import (
    oracle_independent_subset,
    oracle_rref,
    oracle_window_intersection_dimension,
)

F = Fraction


def test_rref_simple():
    red, pivots = rref([[F(2), F(4)], [F(1), F(2)]])
    assert red == [[F(1), F(2)]]
    assert pivots == [0]


def test_rank_and_nullspace():
    mat = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert rank(mat) == 2
    null = nullspace(mat, 3)
    assert len(null) == 1
    for v in null:
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0


matrices = st.lists(
    st.lists(st.integers(-4, 4).map(F), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@given(matrices)
@settings(max_examples=60)
def test_rank_nullity(mat):
    assert rank(mat) + len(nullspace(mat, 3)) == 3


@given(matrices)
@settings(max_examples=60)
def test_nullspace_annihilates(mat):
    for v in nullspace(mat, 3):
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0


rationals = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def rational_matrices(draw):
    """Up to 6x7 rational matrices; some rows are zero or combinations of
    earlier rows, so rank-deficient cases are common."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "zero":
            rows.append([F(0)] * ncols)
        elif kind == "combination" and rows:
            coeffs = draw(st.lists(rationals, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), F(0))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(rationals, min_size=ncols,
                                      max_size=ncols)))
    return rows


@given(rational_matrices())
@settings(max_examples=300)
def test_rref_matches_fraction_oracle(mat):
    red, pivots = rref(mat)
    want_red, want_pivots = oracle_rref(mat)
    assert pivots == want_pivots
    assert red == want_red
    assert all(isinstance(v, Fraction) for row in red for v in row)


@given(rational_matrices())
@settings(max_examples=200)
def test_nullspace_matches_fraction_oracle(mat):
    ncols = len(mat[0])
    red, pivots = oracle_rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    want_null = []
    for fc in free:
        v = [F(0)] * ncols
        v[fc] = F(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        want_null.append(v)
    assert nullspace(mat, ncols) == want_null


def polys(*texts):
    return [parse_polynomial(t) for t in texts]


def test_span_helpers():
    a = polys("x1 + y1", "x1 - y1")
    b = polys("x1", "y1")
    assert span_rank(a) == 2
    assert in_span(parse_polynomial("x1"), a)
    assert not in_span(parse_polynomial("x2"), a)
    assert span_rank(a) == span_rank(b) == span_rank(a + b)
    assert span_rank(polys("x1")) != span_rank(a)


def test_independent_subset_stable():
    fam = polys("x1", "2*x1", "y1", "x1 + y1")
    assert independent_subset(fam) == [0, 2]


MONOMIALS = [parse_polynomial(t).monomials()[0] for t in (
    "1", "x1", "x2", "y1", "x1^2", "x1*y1", "th1", "vt1", "th1*vt1", "x2*th1")]


@st.composite
def poly_families(draw):
    """Up to 7 polynomials over a fixed pool of monomials; some members are
    zero, scalar multiples of an earlier one, or combinations of earlier
    ones, so dependent families are common."""
    family: list[SuperPolynomial] = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("free", "zero", "multiple", "combination")))
        if kind == "zero":
            family.append(SuperPolynomial.zero())
        elif kind == "multiple" and family:
            base = draw(st.sampled_from(family))
            family.append(base.scale(draw(rationals)))
        elif kind == "combination" and family:
            acc = SuperPolynomial.zero()
            for p in family:
                acc = acc + p.scale(draw(rationals))
            family.append(acc)
        else:
            support = draw(st.lists(st.sampled_from(MONOMIALS), min_size=1,
                                    max_size=4, unique=True))
            family.append(SuperPolynomial(
                {m: draw(rationals) for m in support}))
    return family


@given(poly_families())
@settings(max_examples=300)
def test_independent_subset_matches_greedy_oracle(family):
    assert independent_subset(family) == oracle_independent_subset(family)


@given(poly_families(),
       st.lists(st.sampled_from(MONOMIALS), max_size=len(MONOMIALS),
                unique=True))
@settings(max_examples=300)
def test_window_intersection_matches_shuffled_rref_oracle(family, window):
    assert _window_intersection_dimension(family, window) == \
        oracle_window_intersection_dimension(family, window)


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "4")
    with pytest.raises(MatrixBudgetError):
        rref([[F(1)] * 3, [F(2)] * 3])
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "huge")
    with pytest.raises(MatrixBudgetError):
        rref([[F(1)]])


def test_blocked_kernel_matches_unblocked():
    sch = GradingScheme(SchemeKind.GL_NATURAL, 2, 2)
    delta = named_operator("DELTA", sch)
    sl = enumerate_slice(sch, (2, 1))
    plain = kernel_basis_polys(delta, list(sl.basis))
    # deg(x_i) - deg(y_i) is conserved by every d_x_i d_y_i term
    blocked = kernel_basis_polys(
        delta,
        list(sl.basis),
        block_key=lambda m: tuple(
            m.exponent(algx(i)) - m.exponent(algy(i)) for i in (1, 2)
        ),
    )
    assert span_rank(plain) == span_rank(blocked) == span_rank(plain + blocked)


def test_blocked_kernel_rejects_bad_key():
    sch = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
    delta = named_operator("DELTA", sch)
    sl = enumerate_slice(sch, (1, 1))
    with pytest.raises(InternalError):
        kernel_basis_polys(delta, list(sl.basis), block_key=lambda m: m.degree())
