"""Acceptance suite: one test per criterion, exact assertions throughout.

Run `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail lines.  Criteria 1-3 sweep every representation variant over a
fixed parameter grid; 4-8 verify the classification theorems (counts,
decompositions, bases) at desk scale; 9-10 are the structural witnesses.
"""

import json
import sys
from pathlib import Path

from superharm.algebra import (
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    enumerate_slice,
    vartheta,
    x,
    y,
)
from superharm.cli import main
from superharm.harmonic import (
    _group_polys_by_weight,
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
from superharm.linalg import span_rank
from superharm.operators import named_operator, super_commutator
from superharm.report import Verdict
from superharm.representations import (
    algebra_basis,
    osp_stabilizer_check,
    rep_operator,
)

from oracles import op_power, oracle_in_span

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import run_verification  # noqa: E402

TABLE_DIGESTS = json.loads((SCRIPTS / "table_digests.json").read_text())

P = SuperPolynomial.variable
GL21 = GradingScheme(SchemeKind.GL_NATURAL, 2, 1)
GL23 = GradingScheme(SchemeKind.GL_NATURAL, 2, 3)
TW4113 = GradingScheme(SchemeKind.GL_TWISTED, 4, 1, 1, 3)
EV21 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 1)
EV23 = GradingScheme(SchemeKind.OSP_EVEN_NATURAL, 2, 3)
ODD21 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 1)
ODD23 = GradingScheme(SchemeKind.OSP_ODD_NATURAL, 2, 3)


def compare(sl):
    return compare_bases(xu_basis(sl), harmonic_kernel(sl))


def variant_grid():
    """All six variants: natural kinds over (n,m) in {(1,1),(2,1),(2,2),
    (2,3)}, twisted kinds at (n,n1,n2) = (4,1,3) with m in {1,2}."""
    out = []
    for kind in (SchemeKind.GL_NATURAL, SchemeKind.OSP_EVEN_NATURAL,
                 SchemeKind.OSP_ODD_NATURAL):
        out.extend(GradingScheme(kind, n, m)
                   for n, m in ((1, 1), (2, 1), (2, 2), (2, 3)))
    for kind in (SchemeKind.GL_TWISTED, SchemeKind.OSP_EVEN_TWISTED,
                 SchemeKind.OSP_ODD_TWISTED):
        out.extend(GradingScheme(kind, 4, m, 1, 3) for m in (1, 2))
    return out


def bpow(v, e):
    return SuperPolynomial.monomial(SuperMonomial.make([(v, e)], ())) if e \
        else SuperPolynomial.one()


def test_criterion_01_bracket_homomorphism(tmp_path):
    # one run of the CLI grid (the same schemes as variant_grid), checked
    # per scheme and, byte for byte, against the verification table's pin
    out = tmp_path / "brackets.json"
    assert main(["check-brackets", "--format", "json", "--out", str(out)]) == 0
    text = out.read_text()
    subreports = json.loads(text)["subreports"]
    schemes = variant_grid()
    assert [(r["scheme"], r["params"]) for r in subreports] == \
        [(s.kind.value, s.params()) for s in schemes]
    for scheme, report in zip(schemes, subreports):
        dims = report["dimensions"]
        assert report["verdict"] == "PASS", scheme.describe()
        assert dims["algebra_dimension"] == len(algebra_basis(scheme))
        assert dims["pairs_checked"] == dims["algebra_dimension"] ** 2
    assert run_verification.report_digest(text) == \
        TABLE_DIGESTS["brackets-all-variants"]


def test_criterion_02_operator_identities():
    for scheme in variant_grid():
        report = identity_report(scheme)
        assert report.verdict is Verdict.PASS, scheme.describe()
        assert report.dimensions["scalar_checks"] > 0, scheme.describe()


def test_criterion_03_eta_invariance():
    for scheme in variant_grid():
        basis = algebra_basis(scheme)
        if scheme.is_twisted:
            eta_op = named_operator("ETA", scheme)
            for xi in basis:
                rep = rep_operator(xi, scheme)
                assert super_commutator(rep, eta_op).is_zero(), \
                    (scheme.describe(), xi.render())
        else:
            eta_poly = named_operator("ETA", scheme).apply(SuperPolynomial.one())
            for xi in basis:
                rep = rep_operator(xi, scheme)
                assert rep.apply(eta_poly).is_zero(), \
                    (scheme.describe(), xi.render())


def test_criterion_04_gl_natural_counts_and_decompositions():
    # (2,3): counts must follow the two-region classification
    for l in range(5):
        for lp in range(5):
            report = cross_check_irreducibility(GL23, (l, lp))
            expected = 2 if (l <= 2 and lp <= 2 and l + lp > 2) else 1
            assert report.dimensions["singular_count"] == expected, (l, lp)
            assert report.verdict is Verdict.PASS, (l, lp)
    # decomposition region: exact direct-sum ranks
    for l in range(5):
        for lp in range(5):
            if not (abs(l - lp) > 2 or l + lp <= 2):
                continue
            report = decomposition_report(GL23, (l, lp))
            assert report.verdict is Verdict.PASS, (l, lp)
            assert report.dimensions["direct_sum_holds"] is True, (l, lp)
            assert report.dimensions["window"] == \
                sum(report.dimensions["summands"]), (l, lp)
    # (2,1): every slice irreducible, and every slice decomposes
    for l in range(5):
        for lp in range(5):
            cross = cross_check_irreducibility(GL21, (l, lp))
            assert cross.dimensions["singular_count"] == 1, (l, lp)
            assert cross.verdict is Verdict.PASS, (l, lp)
            decomp = decomposition_report(GL21, (l, lp))
            assert decomp.dimensions["direct_sum_holds"] is True, (l, lp)
            assert decomp.dimensions["window"] == \
                sum(decomp.dimensions["summands"]), (l, lp)


def test_criterion_05_formula_basis_equals_kernel():
    for scheme in (GL23, GL21):
        for l in range(5):
            for lp in range(5):
                report = compare(enumerate_slice(scheme, (l, lp)))
                assert report.verdict is Verdict.PASS, (scheme.describe(), l, lp)
    region = [(l, lp) for l in range(-2, 3) for lp in range(-2, 3)
              if l + lp <= 0]
    for label in region:
        report = compare(enumerate_slice(TW4113, label, 6))
        assert report.verdict is Verdict.PASS, label
    for k in range(5):
        report = compare(enumerate_slice(ODD21, k, k))
        assert report.verdict is Verdict.PASS, k


def test_criterion_06_even_osp_counts_and_decompositions():
    for k in range(7):
        predicate = irreducibility_predicate(EV23, k)
        assert predicate.holds is (k <= 2 or k > 4), k
        report = cross_check_irreducibility(EV23, k)
        expected = 2 if k in (3, 4) else 1
        assert report.dimensions["singular_count"] == expected, k
        assert report.verdict is Verdict.PASS, k
    for k in range(3):
        report = decomposition_report(EV23, k)
        assert report.verdict is Verdict.PASS, k
        assert report.dimensions["window"] == \
            sum(report.dimensions["summands"]), k


def test_criterion_07_odd_osp_unique_singular_and_ladder_independence():
    for k in range(6):
        svs = singular_vectors(enumerate_slice(ODD23, k, k))
        assert svs.count() == 1, k
        assert svs.polys()[0] == bpow(x(1), k), k
    # eta-ladder images of the harmonic bases stay independent
    eta = named_operator("ETA", ODD23)
    family = []
    for k in range(5):
        basis = harmonic_kernel(enumerate_slice(ODD23, k, k)).vectors
        for power in range(0, 4 - k + 1):
            ladder = op_power(eta, power)
            family.extend(ladder.apply(g) for g in basis)
    assert all(not v.is_zero() for v in family)
    groups = _group_polys_by_weight(ODD23, family)
    assert all(span_rank(block) == len(block) for block, in groups.values())


def _twisted_singular_family(label, cap):
    """All closed-form twisted singular vectors inside the window:
    eta-powers of x_i^a y_j^b vt1 over the four admissible (i, j)."""
    l, lp = label
    eta = named_operator("ETA", TW4113)
    out = []
    for l1 in range(0, cap // 2 + 1):
        ladder = op_power(eta, l1)
        for a in range(0, cap + 1):
            for b in range(0, cap + 1):
                if a + b + 1 + 2 * l1 > cap:
                    continue
                for i, j in ((1, 3), (1, 4), (2, 3), (2, 4)):
                    seed_l = a if i == 2 else -a
                    seed_lp = (b if j == 3 else -b) + 1
                    if (seed_l + l1, seed_lp + l1) != (l, lp):
                        continue
                    seed = bpow(x(i), a) * bpow(y(j), b) * P(vartheta(1))
                    v = ladder.apply(seed)
                    if not v.is_zero():
                        out.append(v)
    return out


def test_criterion_08_twisted_capped_suite():
    labels = [(l, lp) for l in range(-2, 3) for lp in range(-2, 3)
              if l + lp <= 0]
    suite = theorem_suite("T2", TW4113, labels, 6)
    assert suite.verdict in (Verdict.PASS, Verdict.INCONCLUSIVE_CAP)
    for sub in suite.subreports:
        assert sub.verdict is not Verdict.FAIL, (sub.label, sub.explanation)
        if sub.check == "irreducibility-cross-check":
            assert sub.dimensions["singular_count"] == 1, sub.label
    # the window vectors realize the closed classification form
    for label in labels:
        found = singular_vectors(enumerate_slice(TW4113, label, 6))
        family = _twisted_singular_family(label, 6)
        for v in found.polys():
            assert oracle_in_span(v, family), (label, v.render())


def test_criterion_09_stabilizer_characterization():
    report = osp_stabilizer_check(EV21)
    assert report.verdict is Verdict.PASS
    assert report.dimensions["kernel_dimension"] == 17
    assert report.dimensions["expected_dimension"] == 17
    assert report.dimensions["representation_rank"] == 17


def test_criterion_10_eta_square_witness():
    eta = named_operator("ETA", GL23)
    delta = named_operator("DELTA", GL23)
    eta_sq = op_power(eta, 2).apply(SuperPolynomial.one())
    assert delta.apply(eta_sq).is_zero()
    harmonics = list(harmonic_kernel(enumerate_slice(GL23, (2, 2))).vectors)
    assert oracle_in_span(eta_sq, harmonics)
    eta_image = [eta.apply(SuperPolynomial.monomial(u))
                 for u in enumerate_slice(GL23, (1, 1)).basis]
    assert oracle_in_span(eta_sq, [q for q in eta_image if not q.is_zero()])
    report = cross_check_irreducibility(GL23, (2, 2))
    assert report.dimensions["singular_count"] == 2
    assert report.verdict is Verdict.PASS
