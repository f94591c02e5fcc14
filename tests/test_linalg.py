import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    theta,
    vartheta,
)
from superharm.algebra import x as algx, y as algy
from superharm.harmonic import _weight_shift, monomial_weight
from superharm.linalg import (
    MatrixBudgetError,
    each_owns_a_monomial,
    independent_subset,
    joint_kernel_basis_polys,
    kernel_basis_polys,
    nullspace,
    rank,
    rref,
    span_rank,
    span_ranks,
)
from superharm.operators import DiffOperator, ImageTable, OpWord, named_operator
from superharm.report import InternalError
from superharm.representations import rep_operator, simple_generators

from oracles import (
    oracle_apply,
    oracle_in_span,
    oracle_independent_subset,
    oracle_kernel,
    oracle_rref,
    oracle_span_rank,
    parse_polynomial,
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
    want_red, want_pivots = oracle_rref(mat)
    assert rank(mat) == len(want_pivots)
    red, pivots = rref(mat)
    assert pivots == want_pivots
    assert all(type(u) is int for row in red for u in row)
    # coprime integer rows: each one divided by its pivot entry is the
    # reduced row the plain Fraction elimination gives
    assert [[F(u, row[c]) for u in row] for row, c in zip(red, pivots)] == want_red


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
    assert oracle_in_span(parse_polynomial("x1"), a)
    assert not oracle_in_span(parse_polynomial("x2"), a)
    assert span_rank(a) == span_rank(b) == span_rank(a + b)
    assert span_rank(polys("x1")) != span_rank(a)


def test_independent_subset_stable():
    fam = polys("x1", "2*x1", "y1", "x1 + y1")
    assert independent_subset(fam) == [0, 2]


MONOMIALS = [parse_polynomial(t).terms()[0][0] for t in (
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


@given(st.lists(poly_families(), max_size=4))
@settings(max_examples=300)
def test_span_ranks_match_oracle_prefix_ranks(families):
    # families may be empty or hold zero members; later families often
    # depend on earlier ones, since all draw from one pool of monomials
    prefix: list[SuperPolynomial] = []
    want = []
    for family in families:
        prefix += family
        want.append(oracle_span_rank(prefix))
    assert span_ranks(*families) == want


def test_span_ranks_edge_cases():
    zero = SuperPolynomial.zero()
    assert span_ranks() == []
    assert span_ranks([], [zero], []) == [0, 0, 0]
    a = polys("x1 + y1", "x1 - y1")
    assert span_ranks(a, polys("x1", "y1"), polys("x2")) == [2, 2, 3]


def _owns_one(family, i):
    """Whether member i has a monomial no other member has (by definition)."""
    return any(all(q.coefficient(m) == 0 for j, q in enumerate(family) if j != i)
               for m, _ in family[i].items())


# members over a pool of five monomials: supports nest and overlap often,
# so families whose members own a monomial only against later members are
# common (the witness must refuse them)
overlapping_families = st.lists(
    st.lists(st.sampled_from(MONOMIALS[:5]), min_size=1, max_size=3, unique=True)
    .flatmap(lambda support: st.lists(
        st.integers(-9, 9).filter(bool), min_size=len(support),
        max_size=len(support))
        .map(lambda cs: SuperPolynomial(dict(zip(support, cs))))),
    max_size=5)


@given(st.one_of(poly_families(), overlapping_families))
@example([parse_polynomial("x1 + y1"), parse_polynomial("y1")])
@settings(max_examples=300)
def test_own_monomial_witness_proves_independence(family):
    passed = each_owns_a_monomial(family)
    assert passed == all(_owns_one(family, i) for i in range(len(family)))
    if passed:
        assert oracle_span_rank(family) == len(family)


@given(rational_matrices())
@settings(max_examples=100)
def test_nullspace_basis_passes_the_own_monomial_witness(mat):
    basis = [SuperPolynomial(dict(zip(MONOMIALS, v)))
             for v in nullspace(mat, len(mat[0]))]
    assert each_owns_a_monomial(basis)


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "4")
    with pytest.raises(MatrixBudgetError):
        rref([[F(1)] * 3, [F(2)] * 3])
    with pytest.raises(MatrixBudgetError):
        rank([[F(1)] * 3, [F(2)] * 3])
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "huge")
    with pytest.raises(MatrixBudgetError):
        rref([[F(1)]])
    # the kernel counts its equation rows and checks the budget before it
    # builds any row: each image is read once, by that count, and never
    # scattered into a row
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "4")
    reads = []
    gl21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
    delta = CountedDelta(named_operator("DELTA", gl21), reads)
    basis = list(enumerate_slice(gl21, (1, 1)).basis)  # Delta sends each to 1 or 0
    with pytest.raises(MatrixBudgetError, match=f"matrix 1x{len(basis)} "):
        kernel_basis_polys(delta, basis)
    assert len(reads) == len(basis) > 4
    assert delta.calls == len(basis)


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


def op_word(mult, dbos, dferm):
    return OpWord(parse_polynomial(mult).terms()[0][0], dbos, dferm)


X1, X2, Y1, TH1, VT1 = algx(1), algx(2), algy(1), theta(1), vartheta(1)
# words whose multiplier degree equals their derivative degree, so that the
# total degree is a block key every sum of them conserves; and words that
# change it, for the joint kernel, whose blocks need no conservation
DEGREE_WORDS = [
    op_word("x1", ((X2, 1),), ()), op_word("x2", ((X1, 1),), ()),
    op_word("x1", ((Y1, 1),), ()), op_word("y1", ((X2, 1),), ()),
    op_word("th1", (), (VT1,)), op_word("vt1", (), (TH1,)),
    op_word("x1", (), (TH1,)), op_word("th1", ((X2, 1),), ()),
    op_word("x1*th1", ((Y1, 1),), (VT1,)), op_word("x2^2", ((X1, 2),), ())]
OTHER_WORDS = [
    op_word("1", ((X1, 1), (Y1, 1)), ()), op_word("1", (), (TH1, VT1)),
    op_word("x1*y1", (), ()), op_word("1", ((X2, 1),), ()), op_word("th1", (), ())]


def operators_over(words):
    """Sums of one to three of the words with nonzero rational coefficients;
    so few words make images overlap, within an operator and across them."""
    return st.lists(
        st.tuples(st.sampled_from(words), st.integers(-9, 9).filter(bool),
                  st.integers(1, 4)),
        min_size=1, max_size=3,
    ).map(lambda ts: sum((DiffOperator({w: F(a, b)}) for w, a, b in ts),
                         DiffOperator.zero()))


KERNEL_MONOMIALS = [parse_polynomial(t).terms()[0][0] for t in (
    "1", "x1", "x2", "y1", "th1", "vt1", "x1^2", "x1*y1", "x2*y1", "x1*th1",
    "y1*vt1", "th1*vt1", "x1*x2*y1", "x1*y1*th1", "x2*th1*vt1", "x1^2*y1^2")]


@given(operators_over(DEGREE_WORDS),
       st.lists(st.sampled_from(KERNEL_MONOMIALS), unique=True, max_size=12),
       st.sampled_from([None, SuperMonomial.degree]))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_transposed_matrix_oracle(op, monos, key):
    assert kernel_basis_polys(op, monos, block_key=key) == \
        oracle_kernel([op], monos, key)


@given(st.lists(operators_over(DEGREE_WORDS + OTHER_WORDS), min_size=1, max_size=3),
       st.lists(st.sampled_from(KERNEL_MONOMIALS), unique=True, max_size=12),
       st.sampled_from([None, SuperMonomial.degree, SuperMonomial.parity]))
@settings(max_examples=300, deadline=None)
def test_joint_kernel_matches_transposed_matrix_oracle(ops, monos, key):
    assert joint_kernel_basis_polys(ops, monos, block_key=key) == \
        oracle_kernel(ops, monos, key)


GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)


@given(st.lists(operators_over(DEGREE_WORDS + OTHER_WORDS), min_size=1, max_size=3),
       st.lists(st.sampled_from(KERNEL_MONOMIALS), unique=True, max_size=12))
@settings(max_examples=300, deadline=None)
def test_weight_shift_proves_the_weight_block_rule(ops, monos):
    # whenever _weight_shift accepts an operator, each image monomial sits at
    # the input's weight plus that shift, so the solve blocked by weight
    # spans the joint kernel the unblocked oracle finds
    weight = functools.partial(monomial_weight, scheme=GL21)
    even = []
    for op in ops:
        try:
            shift = _weight_shift(op, GL21)
        except InternalError:
            continue
        even.append(op)
        for m in monos:
            target = tuple(a + b for a, b in zip(weight(m), shift))
            image = oracle_apply(op, SuperPolynomial.monomial(m))
            assert all(weight(u) == target for u, _ in image.items())
    if even:
        blocked = joint_kernel_basis_polys(even, monos, block_key=weight)
        plain = oracle_kernel(even, monos)
        assert oracle_span_rank(blocked) == len(blocked) == len(plain) == \
            oracle_span_rank(blocked + plain)


class CountedOp:
    """An operator that counts the monomials passed to its `images`."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def images(self, monos):
        self.calls += len(monos)
        return self.op.images(monos)


class ReadImage(dict):
    """An image dict that records each walk over its monomials or its
    items into `reads`."""

    def __init__(self, q, reads):
        super().__init__(q)
        self.reads = reads

    def __iter__(self):
        self.reads.append(self)
        return super().__iter__()

    def items(self):
        self.reads.append(self)
        return super().items()


class CountedDelta(CountedOp):
    """A counted operator whose images record their reads into `reads`."""

    def __init__(self, op, reads):
        super().__init__(op)
        self.reads = reads

    def images(self, monos):
        return [ReadImage(q, self.reads) for q in super().images(monos)]


def test_joint_kernel_stops_a_block_at_full_column_rank():
    d = DiffOperator({op_word("1", ((X1, 1), (Y1, 1)), ()): 1})
    first, later = CountedOp(d), CountedOp(d)
    # d sends x1*y1 to 1 (full column rank at once) and kills x2*y1, whose
    # block goes on to the later operator and keeps its kernel
    monos = [parse_polynomial(t).terms()[0][0] for t in ("x1*y1", "x2*y1")]
    got = joint_kernel_basis_polys([first, later], monos, block_key=lambda m: m)
    assert got == [parse_polynomial("x2*y1")]
    assert (first.calls, later.calls) == (2, 1)
    # one block: its first operator's equations already give full rank
    first, later = CountedOp(d), CountedOp(d)
    assert joint_kernel_basis_polys([first, later], monos[:1]) == []
    assert (first.calls, later.calls) == (1, 0)


@given(operators_over(DEGREE_WORDS + OTHER_WORDS),
       st.lists(st.sampled_from(KERNEL_MONOMIALS), max_size=12))
@example(DiffOperator({op_word("1", ((X1, 1),), ()): 3}),
         [parse_polynomial(t).terms()[0][0] for t in ("x1^2", "x2", "x1^2", "x2")])
@settings(max_examples=200, deadline=None)
def test_images_match_oracle_apply_per_monomial(op, monos):
    # repeated monomials each get their own image; an image that is 0 is
    # the empty dict, and no image holds a zero coefficient
    images = op.images(monos)
    assert len(images) == len(monos)
    for m, q in zip(monos, images):
        assert q == dict(oracle_apply(op, SuperPolynomial.monomial(m)).items())
        assert all(q.values())


@given(operators_over(DEGREE_WORDS + OTHER_WORDS), poly_families())
@settings(max_examples=200, deadline=None)
def test_eta_image_table_matches_oracle_apply(op, family):
    # members share monomials (multiples, combinations) and every input is
    # applied twice, so most images come from the table
    counted = CountedOp(op)
    table = ImageTable(counted)
    for p in family + family:
        assert table.apply(p) == oracle_apply(op, p)
    assert counted.calls == len({m for p in family for m, _ in p.items()})


@pytest.mark.parametrize("scheme,label", [
    (GradingScheme(SchemeKind.GL_NATURAL, 2, 1), (2, 1)),
    (GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1), 2),
])
def test_joint_kernel_on_a_slice_stops_some_blocks_early(scheme, label):
    sl = enumerate_slice(scheme, label)
    ops = [CountedOp(rep_operator(g, scheme)) for g in simple_generators(scheme)]
    ops.append(CountedOp(named_operator("DELTA", scheme)))
    # some weight blocks keep a nonzero joint kernel, so they meet every
    # operator; the others stop before the last one
    key = functools.partial(monomial_weight, scheme=scheme)
    assert joint_kernel_basis_polys(ops, sl.basis, block_key=key)
    assert ops[0].calls == len(sl.basis) > ops[-1].calls > 0


def test_joint_kernel_checks_the_budget_before_each_operator(monkeypatch):
    reads = []
    gl21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
    delta = named_operator("DELTA", gl21)
    basis = list(enumerate_slice(gl21, (1, 1)).basis)  # Delta sends each to 1 or 0
    # the first operator's single row is already over the budget: each
    # image is read once, by the count, and never scattered into a row
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", "4")
    ops = [CountedDelta(delta, reads), CountedDelta(delta, reads)]
    with pytest.raises(MatrixBudgetError, match=f"matrix 1x{len(basis)} "):
        joint_kernel_basis_polys(ops, basis)
    assert len(reads) == len(basis) > 4
    assert [op.calls for op in ops] == [len(basis), 0]
    # the first operator fits (rank 1 of 9 columns); the second one's row
    # plus the echelon row held over is not, and is never allocated
    reads.clear()
    monkeypatch.setenv("SUPERHARM_MAX_CELLS", str(len(basis)))
    ops = [CountedDelta(delta, reads), CountedDelta(delta, reads)]
    with pytest.raises(MatrixBudgetError, match=f"matrix 2x{len(basis)} "):
        joint_kernel_basis_polys(ops, basis)
    assert len(reads) == 3 * len(basis)
    assert [op.calls for op in ops] == [len(basis), len(basis)]
