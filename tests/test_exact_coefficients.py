"""No coefficient is ever a float, and every coefficient is canonical.

One small shape per scheme kind (twisted slices capped): every named
operator, every represented basis element, the bracket of every pair of
basis elements, and the harmonic kernel, the singular vectors and, where
the scheme has one, the formula basis of one slice.  Every coefficient
must be an int or a Fraction, and an integral one must be held as an int:
a stray integral Fraction would quietly bring back Fraction arithmetic
where ints do.
"""

from fractions import Fraction

import pytest

from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    integrate_bosonic,
    x,
)
from superharm.harmonic import (
    harmonic_kernel,
    has_formula_basis,
    singular_vectors,
    xu_basis,
)
from superharm.operators import DiffOperator, named_operator
from superharm.representations import algebra_basis, bracket, rep_operator

NAMES = ("DELTA", "ETA", "DELTA_BAR", "ETA_BAR", "DELTA_CHECK", "ETA_CHECK")

# (scheme, slice label, degree cap)
CASES = [
    (GradingScheme(SchemeKind.GL_NATURAL, 2, 1), (1, 1), None),
    (GradingScheme(SchemeKind.GL_TWISTED, 3, 1, 1, 3), (0, 0), 2),
    (GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1), 2, None),
    (GradingScheme(SchemeKind.OSP_EVEN_TWISTED, 3, 1, 1, 3), 0, 2),
    (GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1), 2, 2),
    (GradingScheme(SchemeKind.OSP_ODD_TWISTED, 3, 1, 1, 3), 0, 2),
]


def assert_exact(combination):
    for key, c in combination.items():
        assert isinstance(c, (int, Fraction)), (key, c)
        assert type(c) is int or c.denominator != 1, (key, c)


@pytest.mark.parametrize("scheme,label,cap", CASES,
                         ids=[s.kind.value for s, _, _ in CASES])
def test_no_float_coefficients(scheme, label, cap):
    names = NAMES + (("FLAT", "FLAT_PRIME") if scheme.is_twisted else ())
    for name in names:
        assert_exact(named_operator(name, scheme))
    basis = algebra_basis(scheme)
    for u in basis:
        assert_exact(rep_operator(u, scheme))
        for v in basis:
            assert_exact(bracket(u, v))
    sl = enumerate_slice(scheme, label, cap)
    assert sl.dimension() > 0
    polys = list(harmonic_kernel(sl).vectors)
    sv = singular_vectors(sl)
    polys += sv.polys()
    for weight, _ in sv.entries:
        assert all(isinstance(c, (int, Fraction)) for c in weight), weight
    if has_formula_basis(scheme):
        polys += xu_basis(sl).vectors
    assert polys
    for p in polys:
        assert_exact(p)


X1 = SuperMonomial.make([(x(1), 1)])


def test_integral_fraction_is_stored_as_int():
    p = SuperPolynomial({X1: Fraction(2)})
    assert p == SuperPolynomial({X1: 2})
    assert hash(p) == hash(SuperPolynomial({X1: 2}))
    assert type(p.coefficient(X1)) is int
    assert SuperPolynomial({X1: Fraction(0)}).is_zero()


def test_integration_divides_exactly():
    q = integrate_bosonic(SuperPolynomial.monomial(SuperMonomial.make([(x(1), 2)])), x(1))
    c = q.coefficient(SuperMonomial.make([(x(1), 3)]))
    assert type(c) is Fraction and c == Fraction(1, 3)
    assert_exact(q)


@pytest.mark.parametrize("make", [
    lambda c: SuperPolynomial.monomial(X1).scale(c),
    lambda c: SuperPolynomial.monomial(X1, c),
    DiffOperator.scalar,
    lambda c: DiffOperator.word(c, X1),
], ids=["scale", "monomial", "scalar", "word"])
def test_float_scalar_is_refused(make):
    with pytest.raises(TypeError):
        make(0.5)
    with pytest.raises(TypeError):
        make(2.0)
    assert_exact(make(Fraction(4, 2)))
