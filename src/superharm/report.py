"""Verification reports.

Every checker in this package returns a :class:`VerificationReport`:
a named check, the parameters it ran with, the quantities it computed,
and a three-valued verdict.  PASS means every asserted equality was
verified exactly; FAIL means a definite counterexample was found;
INCONCLUSIVE_CAP means all checks inside the degree window succeeded
but the assertion quantifies over an infinite-dimensional slice, so the
cap — not the mathematics — is the binding constraint.

Reports nest: a suite report carries its per-label subreports and a
consolidated verdict (FAIL dominates, then INCONCLUSIVE_CAP, then PASS).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional


class InternalError(RuntimeError):
    """An invariant of the engine broke: a bug, not a mathematical FAIL and
    not a configuration error (exit code 4)."""


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE_CAP = "INCONCLUSIVE_CAP"


# severity order used when consolidating subreports
_SEVERITY = {Verdict.PASS: 0, Verdict.INCONCLUSIVE_CAP: 1, Verdict.FAIL: 2}


def consolidate(verdicts: Iterable[Verdict]) -> Verdict:
    """Worst verdict of a collection (PASS for an empty collection)."""
    worst = Verdict.PASS
    for v in verdicts:
        if _SEVERITY[v] > _SEVERITY[worst]:
            worst = v
    return worst


@dataclass
class VerificationReport:
    check: str
    scheme: Optional[str] = None
    params: dict = field(default_factory=dict)
    label: Optional[object] = None
    cap: Optional[int] = None
    dimensions: dict = field(default_factory=dict)
    singular_vectors: list = field(default_factory=list)
    vectors: dict = field(default_factory=dict)
    predicate: Optional[bool] = None
    clause: Optional[str] = None
    verdict: Verdict = Verdict.PASS
    explanation: str = ""
    subreports: list = field(default_factory=list)
    elapsed_ms: Optional[int] = None

    @classmethod
    def of(cls, check: str, scheme, **fields) -> "VerificationReport":
        """A report of `check` on a grading scheme, which every report names
        by its kind's value and its `params()`."""
        return cls(check=check, scheme=scheme.kind.value, params=scheme.params(),
                   **fields)

    def consolidate_subreports(self) -> Counter:
        """Fold subreport verdicts into this report (FAIL dominates); return
        how many subreports carry each verdict."""
        tally = Counter(r.verdict for r in self.subreports)
        self.verdict = consolidate([*tally, self.verdict])
        return tally

    def to_dict(self) -> dict:
        # Key order is fixed so serialized reports are byte-deterministic
        # (elapsed_ms is the only run-dependent field).
        out = {
            "check": self.check,
            "scheme": self.scheme,
            "params": self.params,
            "label": _jsonable(self.label),
            "cap": self.cap,
            "dimensions": self.dimensions,
            "singular_vectors": self.singular_vectors,
            "vectors": self.vectors,
            "predicate": self.predicate,
            "clause": self.clause,
            "verdict": self.verdict.value,
            "explanation": self.explanation,
        }
        if self.subreports:
            out["subreports"] = [r.to_dict() for r in self.subreports]
        if self.elapsed_ms is not None:
            out["elapsed_ms"] = self.elapsed_ms
        return out

    def render_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = ["%s[%s] %s" % (pad, self.verdict.value, self.check)]
        if self.scheme is not None:
            bits = ["scheme=%s" % self.scheme]
            if self.label is not None:
                bits.append("label=%r" % (self.label,))
            if self.cap is not None:
                bits.append("cap=%d" % self.cap)
            lines.append(pad + "  " + " ".join(bits))
        if self.predicate is not None:
            lines.append("%s  predicate=%s (%s)" % (pad, self.predicate, self.clause))
        for name, value in self.dimensions.items():
            lines.append("%s  %s = %s" % (pad, name, value))
        for entry in self.singular_vectors:
            lines.append("%s  singular: %s  weight=%s"
                         % (pad, entry["vector"], entry["weight"]))
        for name, vecs in self.vectors.items():
            lines.append("%s  %s (%d):" % (pad, name, len(vecs)))
            lines.extend("%s    %s" % (pad, v) for v in vecs)
        if self.explanation:
            lines.append("%s  %s" % (pad, self.explanation))
        for sub in self.subreports:
            lines.append(sub.render_text(indent + 1))
        return "\n".join(lines)


def _jsonable(label):
    if isinstance(label, tuple):
        return list(label)
    return label
