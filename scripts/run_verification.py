"""Replay the acceptance-grade verification runs through the CLI and
collect the JSON reports in one directory.

Each job below is a plain `superharm` argument vector; running this
script is equivalent to invoking the CLI by hand for every row.  Exit
code is 0 when every job passes (window-limited twisted runs count as
acceptable and are flagged CAPPED), 1 otherwise; an internal error
(exit 4) prints as INTERNAL, and a CLI exit code outside the documented
0-4 counts as FAILED.

Every report is also compared with the SHA-256 pinned for its job in
scripts/table_digests.json (computed with elapsed_ms removed, the only
field that changes between runs).  A report that differs, or a job with
no pin, prints DIGEST-MISMATCH and makes the exit code 1.
scripts/pin_table_digests.py writes the pins.

The last line gives the jobs' summed elapsed_ms and the peak resident set
of this process, which runs all jobs, so memory the jobs keep from one to
the next shows there.

Usage:
    python3 scripts/run_verification.py [--out-dir reports]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from dataclasses import dataclass
from pathlib import Path

from superharm.cli import main as cli_main

DIGESTS = Path(__file__).resolve().with_name("table_digests.json")


@dataclass(frozen=True)
class Job:
    name: str
    argv: list


def job_table() -> list:
    rows = [
        Job("brackets-all-variants", ["check-brackets"]),
        Job("identities-all-variants", ["check-identities"]),
        Job("theorem1-gl23-grid", ["verify-theorem", "1", "--n", "2", "--m", "3",
                                   "--lmax", "4"]),
        Job("theorem1-gl21-grid", ["verify-theorem", "1", "--n", "2", "--m", "1",
                                   "--lmax", "4"]),
        Job("theorem3-even23-grid", ["verify-theorem", "3", "--n", "2", "--m", "3",
                                     "--kmax", "6"]),
        Job("theorem4-odd23-grid", ["verify-theorem", "4", "--n", "2", "--m", "3",
                                    "--kmax", "5", "--cap", "5"]),
        Job("basis-gl21-l1-lp1", ["harmonic-basis", "--scheme", "gl-natural",
                                  "--n", "2", "--m", "1", "--l", "1", "--lp", "1"]),
        Job("singular-gl23-l2-lp2", ["singular-vectors", "--scheme", "gl-natural",
                                     "--n", "2", "--m", "3", "--l", "2", "--lp", "2"]),
        Job("stabilizer-even21", ["stabilizer", "--scheme", "osp-even-natural",
                                  "--n", "2", "--m", "1"]),
    ]
    # twisted capped suite: the l + lp <= 0 corner of [-2, 2]^2, cap 6
    for l in range(-2, 3):
        for lp in range(-2, 3):
            if l + lp > 0:
                continue
            rows.append(Job(
                f"theorem2-tw4113-l{l}-lp{lp}-cap6",
                ["verify-theorem", "2", "--n", "4", "--m", "1",
                 "--n1", "1", "--n2", "3",
                 "--l", str(l), "--lp", str(lp), "--cap", "6"]))
    # twisted osp theorem suites, cap 3
    twisted = ["--n", "4", "--m", "1", "--n1", "1", "--n2", "3", "--cap", "3"]
    rows.append(Job("theorem3-tw4113-k0-k1-cap3",
                    ["verify-theorem", "3", *twisted, "--kmin", "0", "--kmax", "1"]))
    rows.append(Job("theorem4-tw4113-k0-cap3",
                    ["verify-theorem", "4", *twisted, "--k", "0"]))
    return rows


_STATUS = {0: "PASS", 1: "FAIL", 2: "CONFIG-ERROR", 3: "CAPPED", 4: "INTERNAL"}


def report_digest(text: str) -> str:
    """SHA-256 of a JSON report with elapsed_ms removed."""
    payload = json.loads(text)
    payload.pop("elapsed_ms", None)
    return hashlib.sha256((json.dumps(payload, indent=2) + "\n").encode()).hexdigest()


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    worst = 0
    elapsed_ms = 0
    for job in job_table():
        path = out_dir / f"{job.name}.json"
        path.unlink(missing_ok=True)  # a failed job must not leave an old report
        code = cli_main(job.argv + ["--format", "json", "--out", str(path)])
        status = _STATUS.get(code, f"FAILED({code})")
        print(f"{status:<12} {job.name:<34} -> {path}")
        if code not in (0, 3):
            worst = 1
        if path.exists():
            text = path.read_text()
            elapsed_ms += json.loads(text)["elapsed_ms"]
            digest = report_digest(text)
            if digest != pinned.get(job.name):
                print(f"DIGEST-MISMATCH {job.name}: {digest} != pinned "
                      f"{pinned.get(job.name)}")
                worst = 1
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"total elapsed_ms={elapsed_ms} peak_rss_mb={peak_mb:.1f}")
    return worst


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("reports"))
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args().out_dir))
