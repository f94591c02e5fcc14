"""Slow, independent reference implementations used to cross-check the engine.

Everything here works from first principles on explicit factor sequences,
deliberately avoiding the package's canonical-form shortcuts, so that a bug
in the engine's sign bookkeeping cannot hide in the oracle too.  The linear
algebra oracles are the engine's earlier algorithms: plain Fraction
elimination, one span rank per member for the independent subset, and a
column-shuffled elimination for the window intersection.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from superharm.algebra import (
    Family,
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    VariableId,
    x0,
)
from superharm.linalg import poly_matrix, rref, span_rank


def sort_sign(word):
    """Bubble-sort a fermionic word; return (sign, sorted tuple) or None on repeat."""
    w = list(word)
    sign = 1
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] == w[j + 1]:
                return None
            if w[j] > w[j + 1]:
                w[j], w[j + 1] = w[j + 1], w[j]
                sign = -sign
    if len(set(w)) != len(w):
        return None
    return sign, tuple(w)


def mono_from_sequence(seq):
    """Canonicalize an ordered factor sequence; returns (sign, SuperMonomial) or None."""
    bos: dict[VariableId, int] = {}
    ferm = []
    for v in seq:
        if v.fermionic:
            ferm.append(v)
        else:
            bos[v] = bos.get(v, 0) + 1
    srt = sort_sign(ferm)
    if srt is None:
        return None
    sign, word = srt
    return sign, SuperMonomial(tuple(sorted(bos.items())), word)


def mono_to_sequence(m: SuperMonomial):
    seq = []
    for v, e in m.bos:
        seq.extend([v] * e)
    seq.extend(m.ferm)
    return seq


def oracle_mul(p: SuperPolynomial, q: SuperPolynomial) -> SuperPolynomial:
    acc: dict[SuperMonomial, Fraction] = {}
    for m1, c1 in p.terms():
        for m2, c2 in q.terms():
            res = mono_from_sequence(mono_to_sequence(m1) + mono_to_sequence(m2))
            if res is None:
                continue
            sign, m = res
            acc[m] = acc.get(m, Fraction(0)) + sign * c1 * c2
    return SuperPolynomial(acc)


def oracle_derive(p: SuperPolynomial, v: VariableId) -> SuperPolynomial:
    """Leibniz from scratch: differentiate each factor position separately."""
    acc: dict[SuperMonomial, Fraction] = {}
    for m, c in p.terms():
        seq = mono_to_sequence(m)
        for pos, f in enumerate(seq):
            if f != v:
                continue
            if v.fermionic:
                hops = sum(1 for g in seq[:pos] if g.fermionic)
                sign = -1 if hops % 2 else 1
            else:
                sign = 1
            rest = mono_from_sequence(seq[:pos] + seq[pos + 1:])
            if rest is None:
                continue
            s2, mm = rest
            acc[mm] = acc.get(mm, Fraction(0)) + c * sign * s2
    return SuperPolynomial(acc)


def oracle_grade(m: SuperMonomial, scheme: GradingScheme):
    """Grading label recomputed outside the engine."""
    l = lp = 0
    for v in mono_to_sequence(m):
        if scheme.kind in (SchemeKind.GL_NATURAL,):
            if v.family in (Family.X, Family.THETA):
                l += 1
            else:
                lp += 1
        elif scheme.kind in (SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_ODD_NATURAL):
            l += 1
        else:
            if v.family == Family.X0:
                l += 1
            elif v.family == Family.X:
                l += 1 if v.index > scheme.n1 else -1
            elif v.family == Family.Y:
                lp += 1 if v.index <= scheme.n2 else -1
            elif v.family == Family.THETA:
                l += 1
            else:
                lp += 1
    if scheme.kind == SchemeKind.GL_NATURAL:
        return (l, lp)
    if scheme.kind == SchemeKind.GL_TWISTED:
        return (l, lp)
    if scheme.kind in (SchemeKind.OSP_EVEN_NATURAL, SchemeKind.OSP_ODD_NATURAL):
        return l
    return l + lp


def all_monomials(variables, max_degree):
    """Every canonical monomial of total degree <= max_degree over `variables`."""
    out = []
    for d in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(variables, d):
            res = mono_from_sequence(combo)
            if res is None:
                continue
            _, m = res
            out.append(m)
    return out


def oracle_slice(scheme: GradingScheme, label, cap):
    """Generate-and-filter slice enumeration."""
    return sorted(
        (
            m
            for m in all_monomials(scheme.variables(), cap)
            if oracle_grade(m, scheme) == label
        ),
        key=lambda m: m.sort_key(),
    )


def oracle_rref(rows):
    """Reduced row echelon form by plain Fraction elimination; returns
    (nonzero rows, pivot column indexes)."""
    work = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [v / pv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def oracle_independent_subset(polys):
    """Indexes of a maximal linearly independent subfamily (greedy, stable):
    one span rank per member."""
    chosen: list[int] = []
    kept: list[SuperPolynomial] = []
    r = 0
    for i, p in enumerate(polys):
        if p.is_zero():
            continue
        cand = kept + [p]
        rr = span_rank(cand)
        if rr > r:
            chosen.append(i)
            kept = cand
            r = rr
    return chosen


def oracle_window_intersection_dimension(polys, window_monos):
    """dim(span(polys) ∩ span(window monomials)), exact.

    Echelonize with the out-of-window columns first; the rows supported
    entirely inside the window form a basis of the intersection.
    """
    if not polys:
        return 0
    window = set(window_monos)
    rows, monos = poly_matrix(list(polys))
    order = sorted(range(len(monos)), key=lambda j: (monos[j] in window, j))
    shuffled = [[r[j] for j in order] for r in rows]
    red, _ = rref(shuffled)
    n_out = sum(1 for j in order if monos[j] not in window)
    return sum(1 for row in red if not any(row[:n_out]))
