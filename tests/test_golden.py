"""Golden reports for paths the benchmark never runs.

Each case is one CLI argument vector; its JSON report, with the
run-dependent `elapsed_ms` field removed, must match tests/golden/<name>.json
byte for byte.  The capped gl-twisted and osp-odd cases are the only tier-1
runs of the capped branch of `compare_bases` (the window intersection).

Regenerate the files from a checkout whose reports are trusted with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import re
from pathlib import Path

import pytest

from superharm.cli import main

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


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CASES.items():
            text = report_json(argv, Path(tmp) / "report.json")
            (GOLDEN_DIR / f"{name}.json").write_text(text)
            print(name)
