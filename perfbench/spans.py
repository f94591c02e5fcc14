"""Span tracer for the superharm benchmark, installed from outside the package.

Every traced function is replaced at each binding site: the defining module,
every superharm module that imported the name (``from .linalg import rank``
makes a second binding), and the class for methods.  A replacement records one
span per call -- name, parent span, and four clock readings -- in flat arrays
kept in memory; `write` stores them as TSV when the run ends.

Clock readings per span, all from ``time.perf_counter``:

    enter   the wrapper starts (before any bookkeeping)
    call    the wrapped function is entered
    ret     the wrapped function has returned
    leave   the wrapper finishes (after the counters ran)

A span's duration is ``ret - call``; its self time is that duration minus the
full ``leave - enter`` of each child span, so the tracer's own bookkeeping is
charged to ``trace.overhead`` and never to a layer.

Counters are recorded at the same boundaries; repeat counters ("this argument
tuple was already seen in the pass") store 64-bit hashes, not the arguments,
so a traced pass keeps no extra objects alive.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


# ----------------------------------------------------------------------------
# counters: each takes (tracer, name, args, result) and adds to tracer.counts
# ----------------------------------------------------------------------------

def _matrix_shape(rows):
    return len(rows), (len(rows[0]) if rows else 0)


def count_cells(tracer, name, args, result):
    nrows, ncols = _matrix_shape(args[0])
    counts = tracer.counts[name]
    counts["cells_total"] += nrows * ncols
    counts["cells_max"] = max(counts["cells_max"], nrows * ncols)


def count_full_rank(tracer, name, args, result):
    nrows, ncols = _matrix_shape(args[0])
    if result == min(nrows, ncols):
        tracer.counts[name]["full"] += 1


def count_kernel_dims(tracer, name, args, result):
    counts = tracer.counts[name]
    counts["domain_dim"] += len(args[1])
    counts["kernel_dim"] += len(result)


def count_repeats(tracer, name, args, result):
    seen = tracer.seen[name]
    key = hash(args)
    if key in seen:
        tracer.counts[name]["repeats"] += 1
    else:
        seen.add(key)


def count_atom_pairs(tracer, name, args, result):
    a, b = args
    tracer.counts[name]["atom_pairs"] += len(a.atoms()) * len(b.atoms())


def count_monomials(tracer, name, args, result):
    tracer.counts[name]["monomials"] += result.dimension()


# (module, attribute, span name, counter).  A dotted attribute names a method.
TARGETS = (
    ("superharm.cli", "main", "cli.main", None),
    ("superharm.algebra", "enumerate_slice", "algebra.enumerate_slice", count_monomials),
    ("superharm.linalg", "rref", "linalg.rref", count_cells),
    ("superharm.linalg", "rank", "linalg.rank", count_full_rank),
    ("superharm.linalg", "span_rank", "linalg.span_rank", None),
    ("superharm.linalg", "kernel_basis_polys", "linalg.kernel", count_kernel_dims),
    ("superharm.linalg", "joint_kernel_basis_polys", "linalg.kernel", count_kernel_dims),
    ("superharm.operators", "DiffOperator.apply", "operators.apply", count_repeats),
    ("superharm.operators", "compose", "operators.compose", count_atom_pairs),
    ("superharm.representations", "verify_homomorphism",
     "representations.verify_homomorphism", None),
    ("superharm.representations", "is_orthosymplectic",
     "representations.is_orthosymplectic", None),
    ("superharm.representations", "rep_operator", "representations.rep_operator", None),
    ("superharm.representations", "weight_of", "representations.weight_of", None),
    ("superharm.representations", "osp_stabilizer_check",
     "representations.osp_stabilizer_check", None),
    ("superharm.harmonic", "monomial_weight", "harmonic.monomial_weight", count_repeats),
    ("superharm.harmonic", "harmonic_kernel", "harmonic.harmonic_kernel", None),
    ("superharm.harmonic", "xu_basis", "harmonic.xu_basis", None),
    ("superharm.harmonic", "singular_vectors", "harmonic.singular_vectors", None),
    ("superharm.harmonic", "cross_check_irreducibility",
     "harmonic.cross_check_irreducibility", None),
    ("superharm.harmonic", "decomposition_report", "harmonic.decomposition_report", None),
    ("superharm.harmonic", "compare_bases", "harmonic.compare_bases", None),
    ("superharm.harmonic", "identity_report", "harmonic.identity_report", None),
    ("superharm.harmonic", "theorem_suite", "harmonic.theorem_suite", None),
)


class Tracer:
    """Spans and counters for the traced functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.enter = array("d")
        self.call = array("d")
        self.ret = array("d")
        self.leave = array("d")
        self.counts = defaultdict(lambda: defaultdict(int))
        self.seen = defaultdict(set)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording ----

    def wrap(self, name: str, fn, counter=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, _clock
        name_id, parent = self.name_id, self.parent
        enter, call, ret, leave = self.enter, self.call, self.ret, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            enter.append(t0)
            ret.append(0.0)
            leave.append(0.0)
            stack.append(idx)
            call.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ret[idx] = clock()
                stack.pop()
                leave[idx] = ret[idx]
            if counter is not None:
                counter(self, name, args, result)
                leave[idx] = clock()
            return result

        return traced

    def start_pass(self) -> None:
        """Repeat counters look back over one pass only."""
        self.seen.clear()

    # ---- installing at every binding site ----

    def install(self) -> None:
        package = [mod for key, mod in sorted(sys.modules.items())
                   if key == "superharm" or key.startswith("superharm.")]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            wrapper = self.wrap(name, original, counter)
            self._patch(owner, leaf, wrapper)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # ---- results ----

    def summary(self) -> dict:
        """Per span name: calls, self_s, plus its counters; and the tracer's
        own bookkeeping time under the key "trace.overhead_s"."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.leave[i] - self.enter[i]
        out = {name: {"calls": 0, "self_s": 0.0, **self.counts[name]}
               for name in self.names}
        overhead = 0.0
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_s"] += self.ret[i] - self.call[i] - child[i]
            overhead += (self.call[i] - self.enter[i]) + (self.leave[i] - self.ret[i])
        out["trace.overhead_s"] = overhead
        return out

    def write(self, path: Path) -> None:
        """Spans as TSV: index, parent, name, then the four clock readings
        in seconds from the first span's enter."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.enter[0] if len(self.enter) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tenter\tcall\tret\tleave\n")
            for i in range(len(self.name_id)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%.9f\t%.9f\n" % (
                    i, self.parent[i], self.names[self.name_id[i]],
                    self.enter[i] - origin, self.call[i] - origin,
                    self.ret[i] - origin, self.leave[i] - origin))
