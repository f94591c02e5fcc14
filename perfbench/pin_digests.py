"""Record the report digests that perfbench/run.py compares on every pass.

Usage (from the repository root):

    python3 perfbench/pin_digests.py

Runs every benchmark job once, in table order, and writes
perfbench/digests.json: job name -> SHA-256 of its JSON report with
elapsed_ms removed.  It refuses to write when a job misses its known answer.
Re-pin only for a change that is meant to alter reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main() -> int:
    cli = run.import_cli()
    known = json.loads((run.HERE / "known_answers.json").read_text())
    digests = {}
    for name, argv in run.JOBS.items():
        run.clear_package_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + run.jobs_flag(cli) + ["--format", "json"])
        misses = run.known_answer_misses(known[name], code, json.loads(out.getvalue()))
        if misses:
            print(f"{name}: {'; '.join(misses)}", file=sys.stderr)
            return 1
        digests[name] = run.report_digest(out.getvalue())
        print(f"{name} {digests[name]}")
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
