"""Six jobs of the verification table, checked against their pinned digests.

`scripts/run_verification.py` compares all 26 table reports with
`scripts/table_digests.json`; it takes several seconds, so it is not part
of the default test run.  These six cheap jobs (a harmonic basis, a
singular-vector slice, a stabilizer check, the identity checks, one capped
twisted theorem-2 window, which runs the twisted Delta and eta, and the
capped twisted osp theorem-3 suite, which reads the twisted criterion
clauses) cover the report paths a refactor of the arithmetic or of the
criteria most easily moves, in about a second.
"""

import json
import sys
from pathlib import Path

import pytest

from superharm.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import run_verification  # noqa: E402

JOBS = {job.name: job for job in run_verification.job_table()}
PINNED = json.loads((SCRIPTS / "table_digests.json").read_text())


# the capped twisted windows are INCONCLUSIVE_CAP (exit 3); the others pass
EXIT_CODE = {"theorem2-tw4113-l-2-lp1-cap6": 3, "theorem3-tw4113-k0-k1-cap3": 3}


@pytest.mark.parametrize("name", [
    "basis-gl21-l1-lp1",
    "singular-gl23-l2-lp2",
    "stabilizer-even21",
    "identities-all-variants",
    "theorem2-tw4113-l-2-lp1-cap6",
    "theorem3-tw4113-k0-k1-cap3",
])
def test_table_report_matches_pinned_digest(name, tmp_path):
    out = tmp_path / f"{name}.json"
    code = main(JOBS[name].argv + ["--format", "json", "--out", str(out)])
    assert code == EXIT_CODE.get(name, 0)
    assert run_verification.report_digest(out.read_text()) == PINNED[name]
