"""Record the report digests that scripts/run_verification.py compares.

Usage (from the repository root, with the package importable):

    python3 scripts/pin_table_digests.py

Runs every job of the verification table once, in table order, and writes
scripts/table_digests.json: job name -> SHA-256 of its JSON report with
elapsed_ms removed.  It refuses to write when a job exits with anything
but PASS (0) or CAPPED (3).  Re-pin only for a change that is meant to
alter reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run_verification as table


def main() -> int:
    digests = {}
    for job in table.job_table():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = table.cli_main(job.argv + ["--format", "json"])
        if code not in (0, 3):
            print(f"{job.name}: exit {code}", file=sys.stderr)
            return 1
        digests[job.name] = table.report_digest(out.getvalue())
        print(f"{job.name} {digests[job.name]}")
    table.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
