"""Benchmark: time to verdict for superharm verification jobs.

Usage (from the repository root):

    python3 perfbench/run.py --workload natural-grids --seed 1 --seconds 30 --trace 0

One process drives ``superharm.cli.main(argv)`` in-process, the way
``scripts/run_verification.py`` does, one job at a time (closed loop, one
client), always single-threaded (``--jobs 1``).  A pass runs every job of the
workload once, in an order drawn from ``--seed``; the seed changes nothing
else.  Passes repeat while the next one is expected to end within
``--seconds`` (at least one pass), and each metric is the median over passes.
Each pass starts with every ``functools`` cache of the package cleared, so a
pass costs what a fresh process pays, while the order in which jobs warm the
caches for each other is still the seed's.

Times are CPU seconds (user + system, children included), scaled to a
reference host speed.  On a shared host the CPU time of the same work drifts
by up to 1.6x within minutes, as other tenants contend for caches and memory
bandwidth; wall time drifts more.  So a fixed reference kernel (see
`Reference`) is timed before the first job of a pass and after every job, and
each job's CPU time is multiplied by ``REFERENCE_S`` over the mean of the two
readings around it: the result is the CPU time on a host where the kernel
takes ``REFERENCE_S``.  ``setup_s`` drifts with the host's process start-up
cost instead, which that kernel does not track, so it is scaled by the start
of a bare interpreter (see `measure_setup`).  Raw CPU and wall times are
printed per pass and per job for reference.

Every job is checked on every pass, traced or not: its exit code and the
dimensions in ``known_answers.json`` (written by hand from the acceptance
criteria), and the SHA-256 of its JSON report without ``elapsed_ms`` against
``digests.json`` (``pin_digests.py`` records it).  A miss, or a job that
raises, counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes with every layer function wrapped (see ``spans.py``), prints the
per-layer metrics instead and writes the spans to ``perfbench/traces/``.  The
last line of stdout is the JSON result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the lines before it give the environment, every job's times and every
metric with its sample count.

Exit codes: 0 with a result line; 1 when a traced workload records no call to
a layer its jobs must reach; 2 when the run cannot start (no superharm sources
next to this directory, or SUPERHARM_MAX_CELLS set).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Jobs are superharm argument vectors from the job table of
# scripts/run_verification.py, cut down so that a pass takes 8-13 s on a
# 2-core host with Python 3.11: a 30-second run then holds two or three
# passes, and one pass still fits when the host runs at half speed.
JOBS = {
    "theorem1-gl23-grid-l3": ["verify-theorem", "1", "--n", "2", "--m", "3",
                              "--lmax", "3"],
    "theorem1-gl21-grid": ["verify-theorem", "1", "--n", "2", "--m", "1",
                           "--lmax", "4"],
    "theorem3-even23-grid-k4": ["verify-theorem", "3", "--n", "2", "--m", "3",
                                "--kmax", "4"],
    "theorem4-odd23-grid-k4": ["verify-theorem", "4", "--n", "2", "--m", "3",
                               "--kmax", "4", "--cap", "5"],
    "basis-gl21-l1-lp1": ["harmonic-basis", "--scheme", "gl-natural",
                          "--n", "2", "--m", "1", "--l", "1", "--lp", "1"],
    "singular-gl23-l2-lp2": ["singular-vectors", "--scheme", "gl-natural",
                             "--n", "2", "--m", "3", "--l", "2", "--lp", "2"],
    "stabilizer-even21": ["stabilizer", "--scheme", "osp-even-natural",
                          "--n", "2", "--m", "1"],
    "identities-all-variants": ["check-identities"],
}
# check-brackets on one scheme of each kind, at the largest natural size of
# the grid, (2|3), and at the twisted (4|1) size.
for _kind in ("gl-natural", "osp-even-natural", "osp-odd-natural"):
    JOBS[f"brackets-{_kind}-2-3"] = ["check-brackets", "--scheme", _kind,
                                     "--n", "2", "--m", "3"]
for _kind in ("gl-twisted", "osp-even-twisted", "osp-odd-twisted"):
    JOBS[f"brackets-{_kind}-4-1"] = ["check-brackets", "--scheme", _kind, "--n", "4",
                                     "--m", "1", "--n1", "1", "--n2", "3"]
# The twisted gl(4|1) suite at cap 6: the l + lp = -1 row of [-2, 2]^2 and
# (1, -1), the cheapest of the heavy windows on the l + lp = 0 diagonal.
for _l, _lp in [(-2, 1), (-1, 0), (0, -1), (1, -2), (1, -1)]:
    JOBS[f"theorem2-tw4113-l{_l}-lp{_lp}-cap6"] = [
        "verify-theorem", "2", "--n", "4", "--m", "1", "--n1", "1", "--n2", "3",
        "--l", str(_l), "--lp", str(_lp), "--cap", "6"]

# Why each workload: see BENCHMARK.json.
WORKLOADS = {
    "natural-grids": ["theorem1-gl23-grid-l3", "theorem1-gl21-grid",
                      "theorem3-even23-grid-k4", "theorem4-odd23-grid-k4",
                      "basis-gl21-l1-lp1", "singular-gl23-l2-lp2",
                      "stabilizer-even21"],
    "twisted-capped": [name for name in JOBS if name.startswith("theorem2-")],
    "brackets-identities": [name for name in JOBS
                            if name.startswith(("brackets-", "identities-"))],
}

# Spans each subcommand must reach; a traced run that records no call to one
# of them fails, so a changed import path cannot blind the tracer silently.
REQUIRED_SPANS = {
    "verify-theorem": ("algebra.enumerate_slice", "linalg.rref", "linalg.rank",
                       "linalg.span_rank", "linalg.kernel",
                       "harmonic.monomial_weight", "harmonic.harmonic_kernel",
                       "harmonic.singular_vectors", "harmonic.decomposition_report",
                       "harmonic.theorem_suite", "operators.apply",
                       "representations.rep_operator", "representations.weight_of"),
    "harmonic-basis": ("algebra.enumerate_slice", "linalg.kernel",
                       "harmonic.harmonic_kernel", "harmonic.compare_bases"),
    "singular-vectors": ("linalg.kernel", "harmonic.singular_vectors",
                         "harmonic.monomial_weight", "operators.apply"),
    "stabilizer": ("linalg.rref", "representations.rep_operator"),
    "check-brackets": ("operators.compose", "representations.verify_homomorphism",
                       "representations.is_orthosymplectic",
                       "representations.rep_operator"),
    "check-identities": ("operators.compose", "operators.apply",
                         "harmonic.identity_report"),
}

SETUP_REPEATS = 7

# CPU seconds of one `Reference.kernel` call, and of a bare interpreter's
# start, on a quiet 2-core host with Python 3.11; only the scale of the
# reported times depends on them.
REFERENCE_S = 0.012
BARE_START_S = 0.045


def jobs_flag(cli) -> list:
    """``--jobs 1`` when the CLI still has the flag, else nothing: the
    benchmark pins single-threaded runs without depending on the option."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(["check-brackets", "--jobs", "1"])
        except SystemExit:
            return []
    return ["--jobs", "1"]


# ----------------------------------------------------------------------------
# set-up and environment
# ----------------------------------------------------------------------------

_BARE_PROBE = "import time; print(repr(time.process_time()))"
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "import superharm.cli; print(repr(time.process_time()))")


def _probe(code: str, *args: str) -> float:
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip())


def measure_setup(repeats: int) -> list:
    """CPU seconds a fresh interpreter spends from its start until
    superharm.cli is imported, `repeats` times after one untimed warm-up
    (which writes the bytecode caches, unless PYTHONDONTWRITEBYTECODE is
    set, in which case every sample also compiles the sources).

    Each sample is taken right after a bare interpreter's start and scaled
    by ``BARE_START_S`` over it: the start-up cost of a process doubles
    within seconds on a shared host, and the pair drifts together (10-run
    spread of the median 0.03 scaled, 0.2 raw)."""
    _probe(_IMPORT_PROBE, str(SRC))
    samples = []
    for _ in range(repeats):
        bare = _probe(_BARE_PROBE)
        samples.append(_probe(_IMPORT_PROBE, str(SRC)) * BARE_START_S / bare)
    return samples


class Reference:
    """A fixed kernel whose CPU time stands for the host's current speed.

    It does what the package spends its time on -- products and sums of
    exact fractions kept in dicts keyed by exponent tuples -- over a table of
    60000 entries, larger than a core's private caches, so that it slows
    down under cache and memory contention as the package does.  A kernel
    whose data fit in the private caches tracked the package's drift less
    well.
    """

    def __init__(self):
        self.table = {(i, i % 13, i % 17): Fraction(i + 1, i % 29 + 2)
                      for i in range(60000)}
        self.keys = list(self.table)

    def kernel(self) -> dict:
        table, keys, n = self.table, self.keys, len(self.keys)
        out = {}
        j = 0
        for _ in range(1500):
            j = (j + 7919) % n
            key = keys[j]
            short = key[1:]
            out[short] = out.get(short, 0) + table[key] * table[keys[(j * 31) % n]]
        return out

    def seconds(self) -> float:
        """Median CPU seconds of five kernel calls, with the cyclic garbage
        collector off so that the size of the package's heap does not enter
        the reading."""
        samples = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(5):
                c0 = time.process_time()
                self.kernel()
                samples.append(time.process_time() - c0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(samples)

    def scale(self, before: float, after: float) -> float:
        return REFERENCE_S / ((before + after) / 2)


def import_cli():
    sys.path.insert(0, str(SRC))
    import superharm.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"superharm imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((SRC / "superharm").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": source.hexdigest()}


def clear_package_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "superharm" or name.startswith("superharm."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ----------------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------------

def report_digest(text: str) -> str:
    payload = json.loads(text)
    payload.pop("elapsed_ms", None)
    return hashlib.sha256((json.dumps(payload, indent=2) + "\n").encode()).hexdigest()


def known_answer_misses(want: dict, code: int, report: dict) -> list:
    misses = []
    if code != want["exit"]:
        misses.append(f"exit {code} != {want['exit']}")
    for key, value in want.get("dimensions", {}).items():
        if report["dimensions"].get(key) != value:
            misses.append(f"{key} {report['dimensions'].get(key)!r} != {value!r}")
    if "singular_count" in want:
        got = {json.dumps(sub["label"]): sub["dimensions"]["singular_count"]
               for sub in report.get("subreports", [])
               if sub["check"] == "irreducibility-cross-check"}
        if got != want["singular_count"]:
            misses.append(f"singular counts {got} != {want['singular_count']}")
    return misses


@dataclass
class Pass:
    reading: float  # the latest reference reading, in seconds
    wall_s: float = 0.0
    cpu_s: float = 0.0
    scaled_cpu_s: float = 0.0
    scaled_max_job_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    jobs: list = field(default_factory=list)


def run_pass(cli, order, extra_argv, known, digests, reference,
             tracer=None) -> Pass:
    clear_package_caches()
    gc.collect()
    if tracer is not None:
        tracer.start_pass()
    result = Pass(reading=reference.seconds())
    for name in order:
        run_job(cli, name, extra_argv, known, digests, reference, result)
    return result


def cpu_seconds() -> float:
    """User + system time of this process and of every child it has reaped,
    so work moved into worker processes still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_job(cli, name, extra_argv, known, digests, reference,
            result: Pass) -> None:
    """Run, time and check one job; add it to `result`."""
    argv = JOBS[name] + extra_argv + ["--format", "json"]
    out = io.StringIO()
    result.attempted += 1
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit):
        # SystemExit too: argparse exits on an argument vector the CLI no
        # longer accepts, and that is a failed job, not a failed run.
        code = None
        problem = ["raised " + traceback.format_exc()]
    t1, c1 = time.perf_counter(), cpu_seconds()
    reading = reference.seconds()
    scaled = (c1 - c0) * reference.scale(result.reading, reading)
    result.reading = reading
    result.wall_s += t1 - t0
    result.cpu_s += c1 - c0
    result.scaled_cpu_s += scaled
    result.scaled_max_job_s = max(result.scaled_max_job_s, scaled)
    if code is not None:
        try:
            report = json.loads(out.getvalue())
            problem = known_answer_misses(known[name], code, report)
            if report_digest(out.getvalue()) != digests[name]:
                problem.append("report digest drifted")
        except (ValueError, KeyError) as err:
            problem = [f"unreadable report: {err!r}"]
    if problem:
        result.failed += 1
        print(f"FAILED {name}: {'; '.join(problem)}", file=sys.stderr)
    result.jobs.append((name, code, t1 - t0, c1 - c0, scaled))


def run_passes(cli, order, seconds, known, digests, reference,
               tracer=None) -> list:
    extra = jobs_flag(cli)
    started = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(cli, order, extra, known, digests, reference,
                               tracer))
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall_s > seconds:
            return passes


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def end_to_end_metrics(passes, setup) -> dict:
    """name -> (value, unit, samples).  peak_rss_mb is the peak resident
    memory of the whole process, the reference table's 13 MiB included: the
    passes reuse memory freed before they start, so what they add on top
    reads only about 1 MiB on natural-grids."""
    n = len(passes)
    return {
        "scaled_cpu_s": (statistics.median(p.scaled_cpu_s for p in passes), "s", n),
        "scaled_max_job_s": (statistics.median(p.scaled_max_job_s for p in passes),
                             "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MiB", 1),
    }


def _ratio(part, whole):
    return part / whole if whole else 0.0


# One rule for every per-layer metric: a count may read 0, a time may not.
# A layer that a workload does not reach has 0 calls there, and that is a
# prediction worth checking (no compose call on twisted-capped, say); but a
# time that reads 0.0 on every run of a workload is no measurement.  So
# calls are reported for every layer, and a self time per
# function only where every workload calls it.  The self time of the others
# (compose, the bracket checks, the report builders) is reported inside the
# self time of their module or stage, which every workload reaches; the span
# files keep the per-function times.
CALLS = ("linalg.rref", "linalg.span_rank", "linalg.kernel",
         "harmonic.monomial_weight", "harmonic.harmonic_kernel",
         "harmonic.singular_vectors", "harmonic.decomposition_report",
         "harmonic.compare_bases", "harmonic.theorem_suite",
         "operators.apply", "operators.compose",
         "representations.verify_homomorphism", "representations.is_orthosymplectic",
         "representations.rep_operator", "representations.weight_of",
         "algebra.enumerate_slice")
SELF = ("linalg.rref", "linalg.span_rank", "linalg.kernel",
        "harmonic.monomial_weight", "harmonic.harmonic_kernel", "operators.apply",
        "representations.rep_operator", "representations.weight_of",
        "algebra.enumerate_slice", "cli.main")
GROUPS = {
    "harmonic.reports": ("harmonic.singular_vectors",
                         "harmonic.cross_check_irreducibility",
                         "harmonic.decomposition_report", "harmonic.compare_bases",
                         "harmonic.xu_basis", "harmonic.identity_report",
                         "harmonic.theorem_suite"),
    "operators": ("operators.apply", "operators.compose"),
    "representations": ("representations.verify_homomorphism",
                        "representations.is_orthosymplectic",
                        "representations.rep_operator", "representations.weight_of",
                        "representations.osp_stabilizer_check"),
}


def per_layer_metrics(summary, passes) -> dict:
    """name -> (value, unit, samples); counts and times are per pass, and a
    ratio's samples are its base."""
    n = len(passes)
    traced_wall = sum(p.wall_s for p in passes)

    def span(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0})

    out = {}
    for name in CALLS:
        out[f"{name}.calls"] = (span(name)["calls"] / n, "count", span(name)["calls"])
    for name in SELF:
        out[f"{name}.self_s"] = (span(name)["self_s"] / n, "s", span(name)["calls"])
    for group, members in GROUPS.items():
        out[f"{group}.self_s"] = (sum(span(m)["self_s"] for m in members) / n, "s",
                                  sum(span(m)["calls"] for m in members))
    rref = span("linalg.rref")
    out["linalg.rref.cells_total"] = (rref.get("cells_total", 0) / n, "count",
                                      rref["calls"])
    out["linalg.rref.cells_max"] = (rref.get("cells_max", 0), "count", rref["calls"])
    rank = span("linalg.rank")
    out["linalg.rank_full_ratio"] = (_ratio(rank.get("full", 0), rank["calls"]),
                                     "ratio", rank["calls"])
    kern = span("linalg.kernel")
    out["linalg.kernel.dim_ratio"] = (
        _ratio(kern.get("kernel_dim", 0), kern.get("domain_dim", 0)),
        "ratio", kern.get("domain_dim", 0))
    for name in ("harmonic.monomial_weight", "operators.apply"):
        out[f"{name}.repeat_ratio"] = (_ratio(span(name).get("repeats", 0),
                                              span(name)["calls"]),
                                       "ratio", span(name)["calls"])
    compose = span("operators.compose")
    out["operators.compose.atom_pairs"] = (compose.get("atom_pairs", 0) / n, "count",
                                           compose["calls"])
    enum = span("algebra.enumerate_slice")
    out["algebra.enumerate_slice.monomials"] = (enum.get("monomials", 0) / n, "count",
                                                enum["calls"])
    jobs = span("cli.main")["calls"]
    covered = sum(s["self_s"] for name, s in summary.items()
                  if name not in ("cli.main", "trace.overhead_s"))
    out["trace.coverage_ratio"] = (_ratio(covered, traced_wall), "ratio", jobs)
    out["trace.overhead_ratio"] = (_ratio(summary["trace.overhead_s"], traced_wall),
                                   "ratio", jobs)
    return out


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if "SUPERHARM_MAX_CELLS" in os.environ:
        print("perfbench: SUPERHARM_MAX_CELLS is set; it changes which jobs "
              "fail, so the benchmark refuses to run", file=sys.stderr)
        return 2
    if not (SRC / "superharm" / "cli.py").is_file():
        print(f"perfbench: no superharm sources under {SRC}", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    order = list(jobs)
    random.Random(args.seed).shuffle(order)
    known = json.loads((HERE / "known_answers.json").read_text())
    digests = json.loads((HERE / "digests.json").read_text())

    setup = [] if args.trace else measure_setup(SETUP_REPEATS)
    reference = Reference()
    try:
        cli = import_cli()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            passes = run_passes(cli, order, args.seconds, known, digests,
                                reference, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        tracer.write(HERE / "traces" / f"{args.workload}.tsv")
        required = {span for name in jobs for span in REQUIRED_SPANS[JOBS[name][0]]}
        blind = sorted(s for s in required if summary.get(s, {}).get("calls", 0) == 0)
        if blind:
            print(f"perfbench: traced run recorded no call to {blind}; a layer "
                  "is reached by a path the tracer does not patch", file=sys.stderr)
            return 1
        metrics = per_layer_metrics(summary, passes)
    else:
        passes = run_passes(cli, order, args.seconds, known, digests, reference)
        metrics = end_to_end_metrics(passes, setup)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} order={','.join(order)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for p in passes:
        print(f"pass wall_s={p.wall_s!r} cpu_s={p.cpu_s!r} "
              f"scaled_cpu_s={p.scaled_cpu_s!r}")
        for name, code, wall, cpu, scaled in p.jobs:
            print(f"job {name} exit={code} wall_s={wall:.4f} cpu_s={cpu:.4f} "
                  f"scaled_cpu_s={scaled:.4f}")
    for name, (value, unit, samples) in metrics.items():
        print(f"metric {name} {value!r} {unit} samples={samples}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
