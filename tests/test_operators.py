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
    theta,
    vartheta,
    x,
    x0,
    y,
)
from superharm import operators as operators_module
from superharm.operators import (
    DiffOperator,
    FiltrationError,
    OpWord,
    SeriesTerminationError,
    compose,
    named_operator,
    super_commutator,
    twist,
    xu_solve,
)
from superharm.representations import AlgebraElement, algebra_space, rep_operator

import oracles
from oracles import im_operator, op_power, parse_polynomial

P = SuperPolynomial.variable
GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
GL22 = GradingScheme(SchemeKind.GL_NATURAL, 2, 2)
GL23 = GradingScheme(SchemeKind.GL_NATURAL, 2, 3)
TW4113 = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
ODD11 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 1, 1)
ODD21 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1)
ODDTW311 = GradingScheme(SchemeKind.OSP_ODD_TWISTED, 3, 1, 1, 3)


def number_operator(scheme, weights=None):
    """sum_v c_v * v d_v over the scheme's variables (default all c_v = 1)."""
    out = DiffOperator.zero()
    for v in scheme.variables():
        c = 1 if weights is None else weights(v)
        if c == 0:
            continue
        if v.fermionic:
            t = DiffOperator.word(c, SuperMonomial((), (v,)), (), (v,))
        else:
            t = DiffOperator.word(c, SuperMonomial(((v, 1),), ()), ((v, 1),), ())
        out = out + t
    return out


# ===================================================================
# composition basics
# ===================================================================

def test_compose_weyl_pair():
    got = compose(DiffOperator.partial(x(1)), DiffOperator.multiplier(P(x(1))))
    assert got.render() == "1 + x1*d_x1"


def test_compose_clifford_pair():
    got = compose(DiffOperator.partial(theta(1)), DiffOperator.multiplier(P(theta(1))))
    assert got.render() == "1 - th1*d_th1"
    # cross-check by application on the full theta1 module
    for p in (SuperPolynomial.one(), P(theta(1))):
        direct = DiffOperator.partial(theta(1)).apply(P(theta(1)) * p)
        assert got.apply(p) == direct


def test_compose_disjoint_variables():
    got = compose(DiffOperator.multiplier(P(x(1))), DiffOperator.partial(x(2)))
    assert got.render() == "x1*d_x2"


def test_apply_examples():
    delta = named_operator("DELTA", GL21)
    assert delta.apply(P(x(1)) * P(y(1))) == SuperPolynomial.one()
    eta23 = named_operator("ETA", GL23)
    assert eta23.apply(SuperPolynomial.one()) == parse_polynomial(
        "x1*y1 + x2*y2 + th1*vt1 + th2*vt2 + th3*vt3"
    )


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 3), (3, 2)])
def test_delta_eta_constant(n, m):
    sch = GradingScheme(SchemeKind.GL_NATURAL, n, m)
    delta, eta = named_operator("DELTA", sch), named_operator("ETA", sch)
    got = delta.apply(eta.apply(SuperPolynomial.one()))
    assert got == SuperPolynomial.monomial(SuperMonomial.unit(), n - m)


# ===================================================================
# random-operator properties
# ===================================================================

VARS = [x(1), x(2), y(1), y(2), theta(1), theta(2), vartheta(1), vartheta(2)]

monomials = st.builds(
    lambda seq: oracles.mono_from_sequence(seq),
    st.lists(st.sampled_from(VARS), max_size=4),
).filter(lambda r: r is not None).map(lambda r: r[1])

dbos_words = st.dictionaries(
    st.sampled_from([x(1), x(2), y(1), y(2)]), st.integers(1, 2), max_size=2
).map(lambda d: tuple(sorted(d.items())))

dferm_words = st.lists(
    st.sampled_from([theta(1), theta(2), vartheta(1), vartheta(2)]),
    unique=True,
    max_size=2,
).map(lambda l: tuple(sorted(l)))

small_coeffs = st.integers(-3, 3).filter(lambda c: c != 0)

atoms = st.builds(
    lambda m, db, df, c: DiffOperator({OpWord(m, db, df): Fraction(c)}),
    monomials,
    dbos_words,
    dferm_words,
    small_coeffs,
)

operators = st.lists(atoms, min_size=1, max_size=2).map(
    lambda ops: sum(ops, DiffOperator.zero())
)


@given(operators, operators, monomials)
@settings(max_examples=100, deadline=None)
def test_compose_consistent_with_apply(a, b, m):
    p = SuperPolynomial.monomial(m)
    assert compose(a, b).apply(p) == a.apply(b.apply(p))


@given(operators, operators, operators, monomials)
@settings(max_examples=40, deadline=None)
def test_compose_associative_on_vectors(a, b, c, m):
    p = SuperPolynomial.monomial(m)
    assert compose(compose(a, b), c).apply(p) == compose(a, compose(b, c)).apply(p)


@given(operators, operators, operators, st.integers(0, 1), st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_super_jacobi(a, b, c, pa, pb):
    ah, bh = oracles.parity_part(a, pa), oracles.parity_part(b, pb)
    lhs = super_commutator(ah, super_commutator(bh, c))
    rhs = super_commutator(super_commutator(ah, bh), c)
    sign = -1 if pa and pb else 1
    rhs = rhs + super_commutator(bh, super_commutator(ah, c)).scale(sign)
    assert lhs == rhs


# ===================================================================
# the per-monomial action against the derive oracle
# ===================================================================

ORACLE_BOS = [x0(), x(1), x(2), y(1), y(2)]
ORACLE_FERM = [theta(1), theta(2), vartheta(1), vartheta(2)]

oracle_monomials = st.builds(
    lambda bos, ferm: SuperMonomial.make(bos.items(), ferm),
    st.dictionaries(st.sampled_from(ORACLE_BOS), st.integers(1, 3), max_size=3),
    st.sets(st.sampled_from(ORACLE_FERM), max_size=3),
)

# non-integer rationals, so that a coefficient product cannot hide in ints
rationals = st.builds(
    Fraction, st.integers(-7, 7).filter(bool), st.sampled_from([2, 3, 5, 7])
).filter(lambda c: c.denominator != 1)

multi_term_polys = st.dictionaries(
    oracle_monomials, rationals, min_size=2, max_size=4
).map(SuperPolynomial)

# powers up to 4 exceed the input exponents (at most 3) and must give zero;
# words of length 2 over four generators hit and miss an input word of up
# to three; multipliers with fermions repeat one of the result's at times
oracle_atoms = st.builds(
    lambda m, db, df, c: DiffOperator({OpWord(m, db, df): c}),
    oracle_monomials,
    st.dictionaries(st.sampled_from(ORACLE_BOS), st.integers(1, 4), max_size=2)
    .map(lambda d: tuple(sorted(d.items()))),
    st.lists(st.sampled_from(ORACLE_FERM), unique=True, min_size=0, max_size=2)
    .map(lambda l: tuple(sorted(l))),
    rationals,
)

oracle_operators = st.lists(oracle_atoms, min_size=1, max_size=3).map(
    lambda ops: sum(ops, DiffOperator.zero())
)


@st.composite
def operators_and_polys(draw):
    """An oracle operator and a polynomial; in half of the draws the operator
    gets one more atom v^r d_v^a with a the exponent of v in a term of p, as
    in the x_i d_x_i atoms of FLAT and the twisted units: on that term v's
    exponent drops to 0 and comes back, so the image must be re-sorted."""
    op, p = draw(oracle_operators), draw(multi_term_polys)
    fed = [m for m, _ in p.terms() if m.bos]
    if fed and draw(st.booleans()):
        v, a = draw(st.sampled_from(draw(st.sampled_from(fed)).bos))
        raised = SuperMonomial(((v, draw(st.integers(1, 2))),), ())
        op = op + DiffOperator({OpWord(raised, ((v, a),), ()): draw(rationals)})
    return op, p


@given(operators_and_polys())
@settings(max_examples=300, deadline=None)
def test_apply_matches_derive_oracle(op_and_p):
    op, p = op_and_p
    assert op.apply(p) == oracles.oracle_apply(op, p)


@given(oracle_operators, st.lists(multi_term_polys, min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_one_operator_applied_to_a_sequence_matches_oracle(op, ps):
    # the compiled atoms are built by the first apply and reused after
    for p in ps:
        assert op.apply(p) == oracles.oracle_apply(op, p)


def word_of(atom):
    """The word a compiled atom was compiled from."""
    return OpWord(SuperMonomial(atom.mbos, atom.mferm), atom.dbos, atom.rdferm[::-1])


def test_apply_acts_only_on_atoms_the_monomial_feeds(monkeypatch):
    delta = named_operator("DELTA", GL21)  # d_x1 d_y1 + d_x2 d_y2 + d_th1 d_vt1
    acted = []
    real_act = operators_module._act
    monkeypatch.setattr(
        operators_module, "_act",
        lambda atom, *term: acted.append(word_of(atom)) or real_act(atom, *term))
    # x1^2*th1 carries no atom's full set of derivative variables
    p = parse_polynomial("x1^2*th1")
    assert delta.apply(p).is_zero()
    assert acted == []
    p = parse_polynomial("x1*y1*x2*th1*vt1")
    want = {OpWord(SuperMonomial.unit(), ((x(1), 1), (y(1), 1)), ()),
            OpWord(SuperMonomial.unit(), (), (theta(1), vartheta(1)))}
    assert delta.apply(p) == oracles.oracle_apply(delta, p)
    assert len(acted) == 2 and set(acted) == want


@given(oracle_operators, oracle_operators, multi_term_polys)
@settings(max_examples=100, deadline=None)
def test_derived_operators_carry_no_stale_supports(op, other, p):
    op.apply(p)  # compiles op's atoms
    derived = [op + other, op - other, op.scale(3), compose(op, other),
               compose(other, op), twist(op, TWIST_SCHEME)]
    for d in derived:
        assert d.apply(p) == oracles.oracle_apply(d, p)
        assert [(word_of(a), a.coeff) for a in d._compiled_atoms()] == \
            list(d._terms.items())


@pytest.mark.parametrize("atom,p,want", [
    # bosonic power above the exponent: zero
    (DiffOperator.partial(x(1), 3), "x1^2*y1", "0"),
    # falling factorial, not a power: d_x0^2 x0^3 = 6 x0
    (DiffOperator.partial(x0(), 2), "x0^3", "6*x0"),
    # length-2 word that hits: d_th1 d_vt1 (th1 th2 vt1) = d_th1 (th1 th2) = th2
    (DiffOperator.word(1, SuperMonomial.unit(), (), (theta(1), vartheta(1))),
     "th1*th2*vt1", "th2"),
    # the Koszul sign of the second pop: d_th2 d_vt1 (th1 th2 vt1) = -th1
    (DiffOperator.word(1, SuperMonomial.unit(), (), (theta(2), vartheta(1))),
     "th1*th2*vt1", "-th1"),
    # length-2 word that misses
    (DiffOperator.word(1, SuperMonomial.unit(), (), (theta(1), vartheta(2))),
     "th1*vt1", "0"),
    # multiplier repeating a fermion of the result: zero product
    (DiffOperator.word(1, SuperMonomial((), (theta(1),)), ((y(1), 1),), ()),
     "y1*th1", "0"),
])
def test_apply_edge_cases(atom, p, want):
    q = parse_polynomial(p)
    assert atom.apply(q) == parse_polynomial(want)
    assert oracles.oracle_apply(atom, q) == parse_polynomial(want)


ORACLE_SLICES = [
    (GL23, (1, 2), None),
    (TW4113, (1, -1), 3),
    (GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1), 3, None),
    (GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 4, 1, 1, 3), 0, 3),
    (ODD21, 3, 3),
    (ODDTW311, 1, 3),
]

NAMES = ["DELTA", "ETA", "DELTA_BAR", "ETA_BAR", "DELTA_CHECK", "ETA_CHECK",
         "FLAT", "FLAT_PRIME"]


@pytest.mark.parametrize("scheme,label,cap", ORACLE_SLICES)
def test_named_and_unit_operators_match_derive_oracle(scheme, label, cap):
    ops = [named_operator(name, scheme) for name in NAMES
           if scheme.is_twisted or not name.startswith("FLAT")]
    space = algebra_space(scheme)
    ops += [rep_operator(AlgebraElement.unit(space, a, b), scheme)
            for a in space.indices() for b in space.indices()]
    basis = enumerate_slice(scheme, label, cap).basis
    assert basis
    mixed = sum((SuperPolynomial.monomial(m, Fraction(1, i + 2))
                 for i, m in enumerate(basis)), SuperPolynomial.zero())
    for op in ops:
        for m in basis:
            p = SuperPolynomial.monomial(m)
            assert op.apply(p) == oracles.oracle_apply(op, p)
        assert op.apply(mixed) == oracles.oracle_apply(op, mixed)


@st.composite
def meeting_operator_pairs(draw):
    """(a, b) with b's multipliers meeting a's derivatives: in half of the
    draws a gets an atom with bosonic and fermionic derivatives and b one
    whose multiplier repeats all of them, each boson with exponent 2 or 3,
    so compose has shared variables on both sides to expand.  The random
    atoms of the other half share a variable now and then, or not at all."""
    a, b = draw(oracle_operators), draw(oracle_operators)
    if draw(st.booleans()):
        dbos = draw(st.dictionaries(st.sampled_from(ORACLE_BOS),
                                    st.integers(1, 3), min_size=1, max_size=2))
        dferm = draw(st.lists(st.sampled_from(ORACLE_FERM), unique=True,
                              min_size=1, max_size=2))
        a = a + DiffOperator({OpWord(draw(oracle_monomials),
                                     tuple(sorted(dbos.items())),
                                     tuple(sorted(dferm))): draw(rationals)})
        extra = draw(st.lists(st.sampled_from(ORACLE_FERM), unique=True,
                              max_size=2))
        mult = SuperMonomial.make(
            [(v, draw(st.integers(2, 3))) for v in dbos], set(dferm) | set(extra))
        b = b + DiffOperator({OpWord(mult, draw(dbos_words), draw(dferm_words)):
                              draw(rationals)})
    return a, b


@given(meeting_operator_pairs())
@settings(max_examples=300, deadline=None)
def test_compose_matches_full_expansion_oracle(pair):
    a, b = pair
    assert compose(a, b) == oracles.oracle_compose(a, b)


@given(meeting_operator_pairs())
@settings(max_examples=300, deadline=None)
def test_commutator_matches_full_products(pair):
    a, b = pair
    assert super_commutator(a, b) == oracles.oracle_super_commutator(a, b)


@given(meeting_operator_pairs(), multi_term_polys, st.booleans())
@settings(max_examples=100, deadline=None)
def test_one_compile_serves_action_and_products(pair, p, act_first):
    # the same operators act, then compose and super-commute, then do both
    # again in the reverse order (or start with the products): whichever
    # use compiles their atoms, every result matches the oracles, and the
    # second call of each gives what the first gave
    a, b = pair

    def actions():
        return {"a(p)": a.apply(p), "b(p)": b.apply(p)}

    def products():
        return {"ab": compose(a, b), "ba": compose(b, a),
                "[a,b]": super_commutator(a, b)}

    want = {"a(p)": oracles.oracle_apply(a, p), "b(p)": oracles.oracle_apply(b, p),
            "ab": oracles.oracle_compose(a, b), "ba": oracles.oracle_compose(b, a),
            "[a,b]": oracles.oracle_super_commutator(a, b)}
    first, second = (actions, products) if act_first else (products, actions)
    got = {**first(), **second()}
    again = {**second(), **first()}
    assert got == want
    assert again == got


def test_compose_reorders_factors():
    # derivative written before its own multiplier: composition must reorder
    one = DiffOperator.identity()
    x1_dx1 = DiffOperator.word(1, SuperMonomial.make([(x(1), 1)]), [(x(1), 1)])
    th1_dth1 = DiffOperator.word(1, SuperMonomial.make([], [theta(1)]), (), [theta(1)])
    assert compose(DiffOperator.partial(x(1)),
                   DiffOperator.multiplier(P(x(1)))) == one + x1_dx1
    assert compose(DiffOperator.partial(theta(1)),
                   DiffOperator.multiplier(P(theta(1)))) == one - th1_dth1


# ===================================================================
# the twist automorphism
# ===================================================================

# x1 and y4 are swapped; x0, x2, y1 and the fermions are fixed
TWIST_SCHEME = GradingScheme(SchemeKind.OSP_ODD_TWISTED, 4, 1, 1, 3)
TWIST_FIXED = [x0(), x(2), y(1), theta(1), vartheta(1)]
TWIST_ALL = [x(1), y(4)] + TWIST_FIXED


def _at_most_once_fermionic(vs):
    ferm = [v for v in vs if v.fermionic]
    return len(set(ferm)) == len(ferm)


def order2_operators(variables):
    """Sums of up to three atoms with at most two multiplier factors and at
    most two derivatives, over `variables`, with non-integer coefficients."""
    words = st.lists(st.sampled_from(variables), max_size=2).filter(
        _at_most_once_fermionic)

    def atom(mult, der, c):
        bos = lambda vs: [(v, vs.count(v)) for v in set(vs) if not v.fermionic]
        ferm = lambda vs: sorted(v for v in vs if v.fermionic)
        return DiffOperator.word(c, SuperMonomial.make(bos(mult), ferm(mult)),
                                 bos(der), ferm(der))

    return st.lists(st.builds(atom, words, words, rationals),
                    min_size=1, max_size=3).map(
        lambda ops: sum(ops, DiffOperator.zero()))


@given(order2_operators(TWIST_ALL), order2_operators(TWIST_ALL))
@settings(max_examples=150, deadline=None)
def test_twist_is_an_algebra_automorphism(a, b):
    s = TWIST_SCHEME
    assert twist(compose(a, b), s) == compose(twist(a, s), twist(b, s))


@given(order2_operators(TWIST_FIXED))
@settings(max_examples=50, deadline=None)
def test_twist_fixes_unswapped_variables(op):
    assert twist(op, TWIST_SCHEME) == op


def test_twist_examples():
    assert twist(DiffOperator.multiplier(P(x(1))), TWIST_SCHEME) == \
        DiffOperator.partial(x(1))
    assert twist(DiffOperator.partial(y(4)), TWIST_SCHEME) == \
        DiffOperator.multiplier(P(y(4))).scale(-1)


# ===================================================================
# named operators
# ===================================================================

def test_twisted_delta_shape():
    got = named_operator("DELTA", TW4113)
    assert got.render() == "d_th1*d_vt1 + d_x2*d_y2 + d_x3*d_y3 - x1*d_y1 - y4*d_x4"


def test_twisted_eta_shape():
    got = named_operator("ETA", TW4113)
    assert got.render() == "x4*d_y4 + y1*d_x1 + x2*y2 + x3*y3 + th1*vt1"


def test_odd_natural_eta():
    got = named_operator("ETA", ODD11)
    assert got.render() == "x0^2 + 2*x1*y1 + 2*th1*vt1"


def test_flat_action():
    flat = named_operator("FLAT", TW4113)
    assert flat.apply(P(x(2))) == P(x(2))
    assert flat.apply(P(x(1))) == -P(x(1))
    with pytest.raises(ValueError):
        named_operator("FLAT", GL21)


@pytest.mark.parametrize("scheme", [GL21, TW4113, ODDTW311],
                         ids=lambda s: s.kind.value)
def test_signed_number_operator_matches_the_weighted_sum(scheme):
    plus = [v for v in scheme.variables() if v.index % 2]
    minus = [v for v in scheme.variables() if not v.index % 2]
    got = operators_module.number_operator(plus, minus)
    assert got == number_operator(scheme, lambda v: 1 if v.index % 2 else -1)


def test_unknown_name():
    with pytest.raises(ValueError):
        named_operator("NABLA", GL21)


# ===================================================================
# operator identities
# ===================================================================

@pytest.mark.parametrize("m", [1, 2, 3])
def test_check_commutator_identity(m):
    sch = GradingScheme(SchemeKind.GL_NATURAL, 2, m)
    lhs = super_commutator(
        named_operator("DELTA_CHECK", sch), named_operator("ETA_CHECK", sch)
    )
    ferm_number = number_operator(sch, lambda v: 1 if v.fermionic else 0)
    assert lhs == DiffOperator.scalar(-m) + ferm_number


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bar_commutator_identity(n):
    sch = GradingScheme(SchemeKind.GL_NATURAL, n, 1)
    lhs = super_commutator(
        named_operator("DELTA_BAR", sch), named_operator("ETA_BAR", sch)
    )
    bos_number = number_operator(sch, lambda v: 0 if v.fermionic else 1)
    assert lhs == DiffOperator.scalar(n) + bos_number


@pytest.mark.parametrize(
    "scheme",
    [TW4113, GradingScheme(SchemeKind.GL_TWISTED, 3, 2, 1, 3)],
)
def test_twisted_bar_commutator_identity(scheme):
    lhs = super_commutator(
        named_operator("DELTA_BAR", scheme), named_operator("ETA_BAR", scheme)
    )
    rhs = (
        DiffOperator.scalar(scheme.n2 - scheme.n1)
        + named_operator("FLAT", scheme)
        + named_operator("FLAT_PRIME", scheme)
    )
    assert lhs == rhs


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
def test_odd_ladder_commutator_identity(n, m):
    sch = GradingScheme(SchemeKind.OSP_ODD_NATURAL, n, m)
    lhs = super_commutator(named_operator("DELTA", sch), named_operator("ETA", sch))
    rhs = DiffOperator.scalar(2 + 4 * (n - m)) + number_operator(sch).scale(4)
    assert lhs == rhs


def test_odd_twisted_ladder_commutator_identity():
    # twisted analogue: constant uses n2-n1-m and the flat operators replace
    # the plain bosonic degree
    sch = ODDTW311
    lhs = super_commutator(named_operator("DELTA", sch), named_operator("ETA", sch))
    x0_number = DiffOperator.word(1, SuperMonomial(((x0(), 1),), ()), ((x0(), 1),), ())
    ferm_number = number_operator(sch, lambda v: 1 if v.fermionic else 0)
    rhs = DiffOperator.scalar(2 + 4 * (sch.n2 - sch.n1 - sch.m)) + (
        x0_number
        + named_operator("FLAT", sch)
        + named_operator("FLAT_PRIME", sch)
        + ferm_number
    ).scale(4)
    assert lhs == rhs


# ===================================================================
# scalar-action laws
# ===================================================================

def vec_theta(r):
    out = SuperPolynomial.one()
    for t in range(1, r + 1):
        out = out * P(theta(t))
    return out


def vec_vartheta(s, m):
    out = SuperPolynomial.one()
    for t in range(m, s - 1, -1):  # descending product order
        out = out * P(vartheta(t))
    return out


@pytest.mark.parametrize("m", [2, 3])
def test_check_scalar_action(m):
    sch = GradingScheme(SchemeKind.GL_NATURAL, 2, m)
    dc, ec = named_operator("DELTA_CHECK", sch), named_operator("ETA_CHECK", sch)
    for r in range(0, m + 1):
        for s in range(r + 1, m + 2):
            f = vec_theta(r) * vec_vartheta(s, m)
            for l in range(1, s - r):
                lhs = dc.apply(op_power(ec, l).apply(f))
                rhs = op_power(ec, l - 1).apply(f).scale(l * (l + r - s))
                assert lhs == rhs, (r, s, l)


@pytest.mark.parametrize("l,lp,l1", [(0, 0, 1), (1, 0, 2), (-1, 2, 1), (0, -2, 3)])
def test_twisted_scalar_action(l, lp, l1):
    # Delta eta^l1 f = l1(n2-n1-m+l+lp+l1-1) eta^(l1-1) f on twisted harmonic f
    from superharm.algebra import enumerate_slice
    from superharm.linalg import kernel_basis_polys

    sch = TW4113
    delta, eta = named_operator("DELTA", sch), named_operator("ETA", sch)
    sl = enumerate_slice(sch, (l, lp), 3)
    for f in kernel_basis_polys(delta, list(sl.basis))[:3]:
        lhs = delta.apply(op_power(eta, l1).apply(f))
        c = l1 * (sch.n2 - sch.n1 - sch.m + l + lp + l1 - 1)
        rhs = op_power(eta, l1 - 1).apply(f).scale(c)
        assert lhs == rhs


# ===================================================================
# interpolation operator
# ===================================================================

def test_im_scalar_case():
    assert im_operator(1, 2, 0, 3, 0, 2) == DiffOperator.scalar(5)
    assert im_operator(0, 0, 1, 2, 0, 3) == DiffOperator.scalar(3)


def test_im_collapse_case():
    # n + l + l1 + l2 + r - s = 0 forces the operator onto a pure eta power
    got = im_operator(0, 0, 0, 3, 1, 2, m=3)
    want = named_operator("ETA", GL23).scale(12)
    assert got == want


def test_im_annihilation_example():
    g = vec_vartheta(3, 3)
    delta = named_operator("DELTA", GL23)
    out = im_operator(0, 0, 0, 3, 1, 2, m=3).apply(g)
    assert not out.is_zero()
    assert delta.apply(out).is_zero()


def test_im_parameter_validation():
    with pytest.raises(ValueError):
        im_operator(0, 0, 2, 1, 0, 2)  # r >= s
    with pytest.raises(ValueError):
        im_operator(0, 0, 0, 2, 3, 2)  # l > s-r-1
    with pytest.raises(ValueError):
        im_operator(-1, 0, 0, 2, 1, 2)


# ===================================================================
# the formula-basis series: t1 a derivative product, t2 = Delta - t1
# ===================================================================

X0_LADDER = [(x0(), 2)]
TWISTED_COLUMN = [(x(2), 1), (y(2), 1)]  # the n1+1 column of TW4113
XY1 = [(x(1), 1), (y(1), 1)]
ONE = SuperPolynomial.one()


def t1_plus(steps, t2):
    """A Delta equal to t1 + t2, so that the solver's Delta - t1 is t2."""
    return DiffOperator.word(1, SuperMonomial.unit(), steps) + t2


def solve(scheme, steps, seeds):
    """xu_solve on the scheme's own Delta."""
    return xu_solve(scheme, named_operator("DELTA", scheme), steps, seeds)


def test_t_iota_on_harmonic_input():
    assert solve(ODD21, X0_LADDER, [P(x(1))]) == [P(x(1))]


def test_t_iota_example_values():
    # T1(1) = x0; T0(x1 y1) = x1 y1 - x0^2 (Delta(x1y1) = 1, next step 0)
    got = solve(ODD21, X0_LADDER, [P(x0()), P(x(1)) * P(y(1))])
    assert got == [P(x0()), parse_polynomial("x1*y1 - x0^2")]
    delta = named_operator("DELTA", ODD21)
    assert delta.apply(got[1]).is_zero()


def test_t_k1k2_trivial():
    assert solve(TW4113, TWISTED_COLUMN, [ONE]) == [ONE]


def test_t_k1k2_annihilates():
    # -x1 d_y1 keeps the degree: the step x2*y1*th1 -> x1*x2^2*y2*th1/2
    # lowers the scheme measure only through its extra count on y1
    seed = P(x(2)) * P(y(1)) * P(theta(1))  # in ker d_x2 d_y2: no y2
    out, = solve(TW4113, TWISTED_COLUMN, [seed])
    assert out.coefficient(SuperMonomial.make([(x(2), 1), (y(1), 1)], [theta(1)])) == 1
    assert named_operator("DELTA", TW4113).apply(out).is_zero()


def test_t_k1k2_rejects_a_raising_t2():
    # y1 d_x1 runs the twisted atom x1 d_y1 backwards: degree kept, the
    # scheme measure raised
    delta = t1_plus(TWISTED_COLUMN,
                    DiffOperator.word(1, SuperMonomial.make([(y(1), 1)]), [(x(1), 1)]))
    with pytest.raises(FiltrationError, match="measure"):
        xu_solve(TW4113, delta, TWISTED_COLUMN, [P(x(2)) * P(x(1))])


def test_xu_series_annihilates():
    seed = P(x(1)) * P(theta(1)) * P(vartheta(1))
    out, = solve(GL21, XY1, [seed])
    assert out.coefficient(seed.terms()[0][0]) == 1
    assert named_operator("DELTA", GL21).apply(out).is_zero()


def test_xu_solve_example():
    sols = solve(GL21, XY1, [P(theta(1)) * P(vartheta(1))])
    assert sols == [parse_polynomial("x1*y1 + th1*vt1")]


def test_xu_solve_harmonic_seed_fixed():
    g = P(x(2))  # already harmonic, t2(g) = 0
    assert solve(GL21, XY1, [g]) == [g]


def test_xu_solve_zero_seed_is_zero():
    assert solve(GL21, XY1, [SuperPolynomial.zero()]) == [SuperPolynomial.zero()]


def test_xu_solve_outputs_annihilated():
    seeds = [parse_polynomial(text) for text in
             ("th1*vt1", "x2*y2", "x1*x2*vt2", "y2^2*th2", "x2^2*y2*th1*vt2")]
    delta = named_operator("DELTA", GL22)
    for sol in solve(GL22, XY1, seeds):
        assert delta.apply(sol).is_zero()


def test_xu_solve_filtration_violation():
    delta = t1_plus(XY1, DiffOperator.multiplier(P(x(2)) * P(y(2))))
    with pytest.raises(FiltrationError, match="measure"):
        xu_solve(GL21, delta, XY1, [P(theta(1)) * P(vartheta(1))])


def test_xu_solve_checks_the_integration(monkeypatch):
    original = operators_module.integrate_bosonic
    monkeypatch.setattr(operators_module, "integrate_bosonic",
                        lambda p, v: original(p, v).scale(2))
    with pytest.raises(FiltrationError, match="right inverse"):
        solve(GL21, XY1, [P(theta(1)) * P(vartheta(1))])


def test_xu_solve_termination_bound():
    # x4 -> x1, y1 -> x1 and x1 -> x2 each lower the TW4113 measure, so the
    # degree-2 seed x4*y1 takes four nonzero steps, one past its bound
    mover = DiffOperator.zero()
    for new, old in ((x(1), x(4)), (x(1), y(1)), (x(2), x(1))):
        mover = mover + DiffOperator.word(1, SuperMonomial.make([(new, 1)]), [(old, 1)])
    with pytest.raises(SeriesTerminationError):
        xu_solve(TW4113, t1_plus(TWISTED_COLUMN, mover), TWISTED_COLUMN,
                 [P(x(4)) * P(y(1))])


def test_xu_solve_rejects_non_kernel_seed():
    with pytest.raises(FiltrationError, match="not annihilated"):
        solve(GL21, XY1, [P(x(1)) * P(y(1))])
