"""No coefficient is ever a float.

One small shape per scheme kind (twisted slices capped): every named
operator, every represented basis element, the bracket of every pair of
basis elements, and the harmonic kernel, the singular vectors and, where
the scheme has one, the formula basis of one slice.  Every coefficient
must be an int or a Fraction.
"""

from fractions import Fraction

import pytest

from superharm.algebra import GradingScheme, SchemeKind, enumerate_slice
from superharm.harmonic import (
    harmonic_kernel,
    has_formula_basis,
    singular_vectors,
    xu_basis,
)
from superharm.operators import named_operator
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
