"""Command-line front end.

Subcommands map one-to-one onto the verification entry points; one table,
`_SUBCOMMANDS`, gives each its help, its flags and its runner:

  harmonic-basis    kernel basis of one slice + formula-basis comparison
  singular-vectors  enumerate the singular vectors of one slice
  verify-theorem    irreducibility + decomposition suite over a label grid
  check-brackets    bracket homomorphism for one scheme or the whole grid
  check-identities  operator-pair identities and scalar-action laws
  stabilizer        the eta-stabilizer characterization of osp

Exit codes: 0 all PASS, 1 any FAIL, 2 configuration error,
3 INCONCLUSIVE_CAP (every check inside the window passed but a cap was
the binding constraint — kept distinct so CI can treat it separately),
4 internal error (an engine invariant broke, or any other exception
escaped the engine; never a verdict).

Reports are emitted as text or as JSON with a versioned top-level
"schema" key; identical configurations produce byte-identical JSON up
to the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from .algebra import GradingScheme, Label, SchemeKind, enumerate_slice, label_degree
from .harmonic import (
    THEOREM_KINDS,
    compare_bases,
    harmonic_kernel,
    has_formula_basis,
    identity_report,
    singular_vectors,
    theorem_suite,
    xu_basis,
)
from .linalg import MatrixBudgetError
from .report import InternalError, Verdict, VerificationReport
from .representations import osp_stabilizer_check, verify_homomorphism

SCHEMA = "superharm-report/1"

_NATURAL_GRID = [(1, 1), (2, 1), (2, 2), (2, 3)]
_TWISTED_GRID = [(4, 1, 1, 3), (4, 2, 1, 3)]  # (n, m, n1, n2)


class ConfigError(ValueError):
    """Bad or missing command-line parameters (exit code 2)."""


@dataclass
class JobConfig:
    command: str
    scheme: Optional[str] = None
    n: Optional[int] = None
    m: Optional[int] = None
    n1: Optional[int] = None
    n2: Optional[int] = None
    l: Optional[int] = None
    lp: Optional[int] = None
    k: Optional[int] = None
    lmax: Optional[int] = None
    lpmax: Optional[int] = None
    kmin: Optional[int] = None
    kmax: Optional[int] = None
    cap: Optional[int] = None
    theorem: Optional[str] = None
    fmt: str = "text"
    out: Optional[str] = None

    # ---- validation (all before any computation) ----

    def resolve_scheme(self, default_kind: Optional[SchemeKind] = None
                       ) -> GradingScheme:
        if self.scheme is not None:
            kind = SchemeKind(self.scheme)
        elif default_kind is not None:
            kind = default_kind
        else:
            raise ConfigError("--scheme is required for this command")
        if self.n is None or self.m is None:
            raise ConfigError("--n and --m are required")
        try:
            return GradingScheme(kind, self.n, self.m, self.n1, self.n2)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def resolve_labels(self, scheme: GradingScheme) -> List[Label]:
        def nonnegative(flags: str, *values: int) -> None:
            # a natural slice of negative label is empty: checks pass vacuously
            if not scheme.is_twisted and min(values) < 0:
                raise ConfigError(f"{flags} must be >= 0 on {scheme.kind.value}")

        # the hints name only flags the command takes: the grid flags
        # belong to verify-theorem alone (see _SUBCOMMANDS)
        if self.command == "verify-theorem":
            gl_flags, gl_need = "--l/--lp/--lmax/--lpmax apply", "--l/--lp or --lmax"
            osp_flags, osp_need = "--k/--kmin/--kmax apply", "--k or --kmax"
        else:
            gl_flags, gl_need = "--l/--lp apply", "--l and --lp"
            osp_flags, osp_need = "--k applies", "--k"
        if scheme.is_gl:
            if self.k is not None or self.kmin is not None or self.kmax is not None:
                raise ConfigError(f"{osp_flags} only to osp schemes")
            if self.l is not None or self.lp is not None:
                if self.l is None or self.lp is None:
                    raise ConfigError("--l and --lp go together")
                if self.lmax is not None or self.lpmax is not None:
                    raise ConfigError("give either --l/--lp or --lmax/--lpmax")
                nonnegative("--l and --lp", self.l, self.lp)
                return [(self.l, self.lp)]
            if self.lmax is not None:
                lpmax = self.lmax if self.lpmax is None else self.lpmax
                if min(self.lmax, lpmax) < 0:
                    raise ConfigError("empty label grid: --lmax/--lpmax < 0")
                return [(a, b) for a in range(self.lmax + 1)
                        for b in range(lpmax + 1)]
            raise ConfigError(f"gl schemes need {gl_need}")
        if self.l is not None or self.lp is not None or self.lmax is not None \
                or self.lpmax is not None:
            raise ConfigError(f"{gl_flags} only to gl schemes")
        if self.k is not None:
            if self.kmin is not None or self.kmax is not None:
                raise ConfigError("give either --k or --kmin/--kmax")
            nonnegative("--k", self.k)
            return [self.k]
        if self.kmax is not None:
            nonnegative("--kmin", self.kmin or 0)
            if (self.kmin or 0) > self.kmax:
                raise ConfigError("empty label grid: --kmin > --kmax")
            return list(range(self.kmin or 0, self.kmax + 1))
        raise ConfigError(f"osp schemes need {osp_need}")

    def resolve_cap(self, scheme: GradingScheme,
                    labels: Sequence[Label]) -> Optional[int]:
        if scheme.is_twisted and self.cap is None:
            raise ConfigError(
                f"--cap is required for {scheme.kind.value} (infinite slices)")
        if self.cap is not None and not scheme.is_twisted:
            # a natural slice lies in the label's degree: a lower cap empties it
            degree = max(label_degree(k) for k in labels)
            if self.cap < degree:
                raise ConfigError(f"--cap {self.cap} is below the label degree "
                                  f"{degree} on {scheme.kind.value}")
        return self.cap


def _config_from_args(args: argparse.Namespace) -> JobConfig:
    return JobConfig(**{f.name: getattr(args, f.name, None)
                        for f in fields(JobConfig)})


# ===================================================================
# subcommand runners (each returns one VerificationReport)
# ===================================================================

def _run_harmonic_basis(cfg: JobConfig) -> VerificationReport:
    scheme = cfg.resolve_scheme()
    label = cfg.resolve_labels(scheme)[0]
    cap = cfg.resolve_cap(scheme, [label])
    sl = enumerate_slice(scheme, label, cap)
    kern = harmonic_kernel(sl)
    report = VerificationReport.of(
        "harmonic-basis", scheme,
        label=label,
        cap=cap,
        dimensions={"slice": sl.dimension(), "kernel": kern.dimension()},
        vectors={"kernel": [v.render() for v in kern.vectors]},
    )
    if not has_formula_basis(scheme):
        report.explanation = ("no formula basis for this scheme; "
                              "kernel basis reported")
        return report
    formula = xu_basis(sl)
    report.vectors["formula"] = [v.render() for v in formula.vectors]
    report.subreports.append(compare_bases(formula, kern))
    report.consolidate_subreports()
    report.explanation = "kernel and formula bases computed and compared"
    return report


def _run_singular_vectors(cfg: JobConfig) -> VerificationReport:
    scheme = cfg.resolve_scheme()
    label = cfg.resolve_labels(scheme)[0]
    cap = cfg.resolve_cap(scheme, [label])
    sl = enumerate_slice(scheme, label, cap)
    svs = singular_vectors(sl)
    report = VerificationReport.of(
        "singular-vectors", scheme,
        label=label,
        cap=cap,
        dimensions={"slice": sl.dimension(), "count": svs.count()},
        singular_vectors=svs.report_entries(),
    )
    report.explanation = (
        f"{svs.count()} singular vectors in the harmonic slice"
        + ("" if svs.complete else " (within the degree window)"))
    return report


def _run_verify_theorem(cfg: JobConfig) -> VerificationReport:
    tid = cfg.theorem
    twisted = tid == "2" or cfg.n1 is not None or cfg.n2 is not None
    kind = THEOREM_KINDS["T" + tid][twisted]
    if kind is None:
        raise ConfigError(f"theorem {tid} has no "
                          f"{'twisted' if twisted else 'natural'} variant")
    scheme = cfg.resolve_scheme(default_kind=kind)
    labels = cfg.resolve_labels(scheme)
    cap = cfg.resolve_cap(scheme, labels)
    return theorem_suite(tid, scheme, labels, cap)


def _grid_schemes() -> List[GradingScheme]:
    out = []
    for kind in (SchemeKind.GL_NATURAL, SchemeKind.OSP_EVEN_NATURAL,
                 SchemeKind.OSP_ODD_NATURAL):
        out.extend(GradingScheme(kind, n, m) for n, m in _NATURAL_GRID)
    for kind in (SchemeKind.GL_TWISTED, SchemeKind.OSP_EVEN_TWISTED,
                 SchemeKind.OSP_ODD_TWISTED):
        out.extend(GradingScheme(kind, n, m, n1, n2)
                   for n, m, n1, n2 in _TWISTED_GRID)
    return out


def _run_scheme_suite(cfg: JobConfig, check: str, runner) -> VerificationReport:
    """check-brackets / check-identities: one scheme when any scheme flag
    is given, else the whole default grid."""
    if any(v is not None for v in (cfg.scheme, cfg.n, cfg.m, cfg.n1, cfg.n2)):
        return runner(cfg.resolve_scheme())
    schemes = _grid_schemes()
    report = VerificationReport(
        check=check,
        dimensions={"schemes": len(schemes)},
    )
    report.subreports = [runner(s) for s in schemes]
    n_fail = report.consolidate_subreports()[Verdict.FAIL]
    report.explanation = f"{len(schemes)} schemes checked, {n_fail} failed"
    return report


# ===================================================================
# argument parsing and entry point
# ===================================================================

_ALL_KINDS = [k.value for k in SchemeKind]
_SCHEME_FLAGS = ("n", "m", "n1", "n2")
_SLICE_FLAGS = _SCHEME_FLAGS + ("l", "lp", "k", "cap")

# subcommand -> (help, --scheme choices, the integer flags it reads, its
# runner); each also takes --format and --out, and argparse rejects any
# other flag.  A runner reads the engine from this module's globals when it
# runs, so a wrapper patched onto a name here (perfbench/spans.py) sees it.
_SUBCOMMANDS = {
    "harmonic-basis": ("kernel basis of one graded slice, with the "
                       "formula-basis comparison where one exists",
                       _ALL_KINDS, _SLICE_FLAGS, _run_harmonic_basis),
    "singular-vectors": ("enumerate singular vectors of one slice",
                         _ALL_KINDS, _SLICE_FLAGS, _run_singular_vectors),
    "verify-theorem": ("irreducibility/decomposition suite on a grid",
                       _ALL_KINDS,
                       _SLICE_FLAGS + ("lmax", "lpmax", "kmin", "kmax"),
                       _run_verify_theorem),
    "check-brackets": ("bracket homomorphism (one scheme or full grid)",
                       _ALL_KINDS, _SCHEME_FLAGS,
                       lambda cfg: _run_scheme_suite(cfg, "bracket-suite",
                                                     verify_homomorphism)),
    "check-identities": ("operator identities (one scheme or full grid)",
                         _ALL_KINDS, _SCHEME_FLAGS + ("cap",),
                         lambda cfg: _run_scheme_suite(
                             cfg, "identity-suite", lambda s: identity_report(s, cfg.cap))),
    "stabilizer": ("eta-stabilizer characterization (natural osp)",
                   [SchemeKind.OSP_EVEN_NATURAL.value,
                    SchemeKind.OSP_ODD_NATURAL.value], ("n", "m"),
                   lambda cfg: osp_stabilizer_check(cfg.resolve_scheme())),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args`
    leaves no state in it, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="superharm",
        description="Exact verification of supersymmetric harmonic "
                    "decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, kinds, flags, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "verify-theorem":
            sp.add_argument("theorem", choices=("1", "2", "3", "4"))
        sp.add_argument("--scheme", choices=kinds)
        for flag in flags:
            sp.add_argument(f"--{flag}", type=int)
        sp.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
        sp.add_argument("--out")
    return parser


def _emit(report: VerificationReport, cfg: JobConfig) -> int:
    """Write the report; return its exit code, or 2 if --out cannot be written."""
    if cfg.fmt == "json":
        payload = {"schema": SCHEMA}
        payload.update(report.to_dict())
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = report.render_text() + "\n"
    if not cfg.out:
        sys.stdout.write(text)
        return _exit_code(report)
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        print(f"superharm: cannot write --out: {err}", file=sys.stderr)
        return 2
    return _exit_code(report)


def _exit_code(report: VerificationReport) -> int:
    worst = report.verdict
    if worst is Verdict.FAIL:
        return 1
    if worst is Verdict.INCONCLUSIVE_CAP:
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    started = time.monotonic()
    try:
        report = _SUBCOMMANDS[cfg.command][3](cfg)
    except ValueError as err:
        # ConfigError and the engine's domain errors (slice, label, theorem)
        print(f"superharm: {err}", file=sys.stderr)
        return 2
    except MatrixBudgetError as err:
        print(f"superharm: computation exceeds SUPERHARM_MAX_CELLS: {err}",
              file=sys.stderr)
        return 2
    except InternalError as err:
        print(f"superharm: internal error: {err}", file=sys.stderr)
        return 4
    except Exception as err:  # any other escape is a bug too, never a verdict
        traceback.print_exc()
        print(f"superharm: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4
    report.elapsed_ms = int((time.monotonic() - started) * 1000)
    return _emit(report, cfg)


if __name__ == "__main__":
    sys.exit(main())
