"""Golden reports for paths the benchmark never runs.

Each case is one CLI argument vector; its JSON report, with the
run-dependent `elapsed_ms` field removed, must match tests/golden/<name>.json
byte for byte.  The capped gl-twisted and osp-odd cases are the only tier-1
runs of the capped branch of `compare_bases` (the window intersection), and
the two osp singular-vectors cases the only tier-1 pins of osp singular
vectors.  The theorem-3 case is the twisted osp suite at k = 2, cap 4: its
eta-power decomposition checks 8343 candidates in four summands, drawn
from an internal cap of 10, which no benchmark or table job reaches.  The
theorem-2 case is gl-twisted (1, 0) at cap 3: its hypothesis fails and its
eta-power candidates are dependent (`direct_sum_holds` false, overlap 1),
the one tier-1 run that ends the independence test early.

tests/golden/twisted_operators.txt pins the normal form of every twisted
operator: one rendered line per matrix unit and per named operator, for the
three twisted kinds on three shapes.  The (5|1, n1=2, n2=5) shape has
n1 > 1 and n2 = n, which the CLI grids never reach.

tests/golden/root_data.txt pins the root data of gl, osp-even and osp-odd on
four shapes: the Cartan basis in order, then the sorted positive generators.
tests/golden/simple_generators.txt pins the simple root vectors that the
singular-vector solve uses, on the same shapes and on the three twisted kinds
at (4|1, n1=1, n2=3).

Regenerate the files from a checkout whose reports are trusted with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import re
from pathlib import Path

import pytest

from superharm.algebra import GradingScheme, SchemeKind
from superharm.cli import main
from superharm.operators import named_operator
from superharm.representations import (
    AlgebraElement,
    algebra_space,
    cartan_basis,
    positive_generators,
    rep_operator,
    simple_generators,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

TWISTED_41 = ["--n", "4", "--m", "1", "--n1", "1", "--n2", "3"]

CASES = {
    "basis-gl-natural-21-l1-lp1": [
        "harmonic-basis", "--scheme", "gl-natural", "--n", "2", "--m", "1",
        "--l", "1", "--lp", "1"],
    "basis-gl-natural-23-l2-lp1": [
        "harmonic-basis", "--scheme", "gl-natural", "--n", "2", "--m", "3",
        "--l", "2", "--lp", "1"],
    "basis-gl-twisted-41-l0-lp0-cap4": [
        "harmonic-basis", "--scheme", "gl-twisted", *TWISTED_41,
        "--l", "0", "--lp", "0", "--cap", "4"],
    "basis-gl-twisted-41-l1-lpm1-cap4": [
        "harmonic-basis", "--scheme", "gl-twisted", *TWISTED_41,
        "--l", "1", "--lp", "-1", "--cap", "4"],
    "basis-osp-odd-natural-21-k2-cap2": [
        "harmonic-basis", "--scheme", "osp-odd-natural", "--n", "2", "--m", "1",
        "--k", "2", "--cap", "2"],
    "basis-osp-odd-twisted-41-k0-cap3": [
        "harmonic-basis", "--scheme", "osp-odd-twisted", *TWISTED_41,
        "--k", "0", "--cap", "3"],
    "basis-osp-even-natural-21-k2": [
        "harmonic-basis", "--scheme", "osp-even-natural", "--n", "2",
        "--m", "1", "--k", "2"],
    "stabilizer-osp-odd-natural-21": [
        "stabilizer", "--scheme", "osp-odd-natural", "--n", "2", "--m", "1"],
    "stabilizer-osp-even-natural-23": [
        "stabilizer", "--scheme", "osp-even-natural", "--n", "2", "--m", "3"],
    "singular-osp-even-natural-23-k3": [
        "singular-vectors", "--scheme", "osp-even-natural", "--n", "2",
        "--m", "3", "--k", "3"],
    "singular-osp-odd-natural-21-k2-cap2": [
        "singular-vectors", "--scheme", "osp-odd-natural", "--n", "2",
        "--m", "1", "--k", "2", "--cap", "2"],
    "theorem3-osp-even-twisted-41-k2-cap4": [
        "verify-theorem", "3", *TWISTED_41, "--k", "2", "--cap", "4"],
    "theorem2-gl-twisted-41-l1-lp0-cap3": [
        "verify-theorem", "2", *TWISTED_41, "--l", "1", "--lp", "0", "--cap", "3"],
}


def report_json(argv, path: Path) -> str:
    """The JSON report of `argv`, without its `elapsed_ms` line."""
    code = main([*argv, "--format", "json", "--out", str(path)])
    assert code in (0, 3), f"exit {code}"
    return re.sub(r',\n  "elapsed_ms": \d+', "", path.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    want = (GOLDEN_DIR / f"{name}.json").read_text()
    assert report_json(CASES[name], tmp_path / "report.json") == want


TWISTED_OPERATORS = GOLDEN_DIR / "twisted_operators.txt"
TWISTED_SHAPES = [(4, 1, 1, 3), (4, 2, 1, 3), (5, 1, 2, 5)]  # (n, m, n1, n2)
NAMED = ["DELTA", "ETA", "DELTA_BAR", "ETA_BAR", "DELTA_CHECK", "ETA_CHECK",
         "FLAT", "FLAT_PRIME"]


def twisted_operators_text() -> str:
    """One `<scheme> <unit or name> = <normal form>` line per operator."""
    lines = []
    for kind in (SchemeKind.GL_TWISTED, SchemeKind.OSP_EVEN_TWISTED,
                 SchemeKind.OSP_ODD_TWISTED):
        for shape in TWISTED_SHAPES:
            scheme = GradingScheme(kind, *shape)
            space = algebra_space(scheme)
            for a in space.indices():
                for b in space.indices():
                    op = rep_operator(AlgebraElement.unit(space, a, b), scheme)
                    lines.append(f"{scheme.describe()} E[{a},{b}] = {op.render()}")
            for name in NAMED:
                op = named_operator(name, scheme)
                lines.append(f"{scheme.describe()} {name} = {op.render()}")
    return "\n".join(lines) + "\n"


def test_twisted_operators_match_golden():
    assert twisted_operators_text() == TWISTED_OPERATORS.read_text()


ROOT_DATA = GOLDEN_DIR / "root_data.txt"
ROOT_DATA_SHAPES = [(1, 1), (2, 1), (2, 3), (4, 2)]  # (n, m)


def root_data_text() -> str:
    """`<family>(n|m) cartan <element>` lines in basis order, then one
    `<family>(n|m) positive <element>` line per generator, sorted."""
    lines = []
    for kind in (SchemeKind.GL_NATURAL, SchemeKind.OSP_EVEN_NATURAL,
                 SchemeKind.OSP_ODD_NATURAL):
        for n, m in ROOT_DATA_SHAPES:
            scheme = GradingScheme(kind, n, m)
            tag = f"{algebra_space(scheme).family.value}({n}|{m})"
            lines.extend(f"{tag} cartan {h.render()}" for h in cartan_basis(scheme))
            lines.extend(sorted(f"{tag} positive {g.render()}"
                                for g in positive_generators(scheme)))
    return "\n".join(lines) + "\n"


def test_root_data_matches_golden():
    assert root_data_text() == ROOT_DATA.read_text()


SIMPLE_GENERATORS = GOLDEN_DIR / "simple_generators.txt"


def simple_generators_text() -> str:
    """`<scheme> <simple count> of <positive count>: <element>; ...` lines."""
    schemes = [GradingScheme(kind, n, m)
               for kind in (SchemeKind.GL_NATURAL, SchemeKind.OSP_EVEN_NATURAL,
                            SchemeKind.OSP_ODD_NATURAL)
               for n, m in ROOT_DATA_SHAPES]
    schemes += [GradingScheme(kind, 4, 1, 1, 3)
                for kind in (SchemeKind.GL_TWISTED, SchemeKind.OSP_EVEN_TWISTED,
                             SchemeKind.OSP_ODD_TWISTED)]
    lines = []
    for scheme in schemes:
        simple = simple_generators(scheme)
        lines.append(f"{scheme.describe()} {len(simple)} of "
                     f"{len(positive_generators(scheme))}: "
                     + "; ".join(g.render() for g in simple))
    return "\n".join(lines) + "\n"


def test_simple_generators_match_golden():
    assert simple_generators_text() == SIMPLE_GENERATORS.read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            text = report_json(argv, Path(tmp) / "report.json")
            (GOLDEN_DIR / f"{name}.json").write_text(text)
            print(name)
    TWISTED_OPERATORS.write_text(twisted_operators_text())
    print(TWISTED_OPERATORS.stem)
    ROOT_DATA.write_text(root_data_text())
    print(ROOT_DATA.stem)
    SIMPLE_GENERATORS.write_text(simple_generators_text())
    print(SIMPLE_GENERATORS.stem)
