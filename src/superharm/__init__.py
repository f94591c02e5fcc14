"""superharm: exact verification engine for supersymmetric harmonic analysis."""

from superharm.algebra import (
    Family,
    GradedSlice,
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    VariableId,
    enumerate_slice,
    integrate_bosonic,
    theta,
    vartheta,
    x,
    x0,
    y,
)
from superharm.harmonic import (
    compare_bases,
    cross_check_irreducibility,
    decomposition_report,
    harmonic_kernel,
    identity_report,
    irreducibility_predicate,
    singular_vectors,
    theorem_suite,
    xu_basis,
)
from superharm.operators import (
    DiffOperator,
    compose,
    named_operator,
    super_commutator,
)
from superharm.report import Verdict, VerificationReport
from superharm.representations import (
    algebra_basis,
    osp_stabilizer_check,
    positive_generators,
    rep_operator,
    verify_homomorphism,
)

__version__ = "0.1.0"
