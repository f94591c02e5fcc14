"""Exact linear algebra over the rationals, plus polynomial-space helpers.

Matrices come in and go out as rows of Fraction, but elimination runs on
Python ints: each row is scaled to coprime integers by clearing its
denominators, eliminated fraction-free (row <- a*row - b*pivot_row with
a, b divided by their gcd, then by the row's content gcd; cf. Bareiss,
Math. Comp. 22, 1968), and divided by its pivot once at the end.  The
reduced echelon form is unique, so the result is exactly the one plain
Fraction elimination gives.  Everything is dense: the matrices that show
up here are small once the caller blocks by a conserved quantity (grading
label or Cartan weight).

SUPERHARM_MAX_CELLS (environment) caps the number of cells in any single
dense matrix; exceeding it raises MatrixBudgetError instead of truncating.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Optional, Sequence

from superharm.algebra import SuperMonomial, SuperPolynomial
from superharm.report import InternalError


class MatrixBudgetError(RuntimeError):
    """A dense matrix would exceed the SUPERHARM_MAX_CELLS budget."""


def _check_budget(nrows: int, ncols: int) -> None:
    raw = os.environ.get("SUPERHARM_MAX_CELLS")
    if not raw:
        return
    try:
        budget = int(raw)
    except ValueError as err:
        raise MatrixBudgetError(f"bad SUPERHARM_MAX_CELLS value {raw!r}") from err
    if nrows * ncols > budget:
        raise MatrixBudgetError(
            f"matrix {nrows}x{ncols} exceeds SUPERHARM_MAX_CELLS={budget}"
        )


# ===================================================================
# plain matrices (lists of Fraction rows)
# ===================================================================

_ZERO = Fraction(0)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content:
    coprime integers spanning the same line."""
    den = 1
    for v in row:
        if v.denominator != 1:
            den = lcm(den, v.denominator)
    ints = [v.numerator * (den // v.denominator) for v in row]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indexes)."""
    work = [_integer_row(r) for r in rows]
    if work:
        _check_budget(len(work), len(work[0]))
    pivots: list[int] = []
    r = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(len(work)):
            f = work[i][c]
            if i != r and f:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * u - b * w for u, w in zip(work[i], prow)]
                g = gcd(*row)
                work[i] = [u // g for u in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [[Fraction(u, work[i][c]) if u else _ZERO for u in work[i]]
            for i, c in enumerate(pivots)], pivots


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """One solution of M v = rhs (free variables set to 0), or None."""
    if not rows:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    v = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:  # pivot in the augmented column: inconsistent
            return None
        v[pc] = red[i][ncols]
    return v


# ===================================================================
# polynomial spans
# ===================================================================

def poly_matrix(
    polys: Sequence[SuperPolynomial],
) -> tuple[list[list[Fraction]], list[SuperMonomial]]:
    """Coefficient rows over the union of monomials (deterministic column order)."""
    cols: dict[SuperMonomial, int] = {}
    monos: list[SuperMonomial] = []
    for p in polys:
        for m in p.monomials():
            if m not in cols:
                cols[m] = 0
                monos.append(m)
    monos.sort(key=lambda m: m.sort_key())
    index = {m: j for j, m in enumerate(monos)}
    _check_budget(max(len(polys), 1), max(len(monos), 1))
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monos)
        for m, c in p.terms():
            row[index[m]] = c
        rows.append(row)
    return rows, monos


def span_rank(polys: Sequence[SuperPolynomial]) -> int:
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return 0
    rows, _ = poly_matrix(nonzero)
    return rank(rows)


def in_span(target: SuperPolynomial, basis: Sequence[SuperPolynomial]) -> bool:
    if target.is_zero():
        return True
    return span_rank(list(basis)) == span_rank(list(basis) + [target])


def coordinates(
    target: SuperPolynomial, basis: Sequence[SuperPolynomial]
) -> Optional[list[Fraction]]:
    """Coefficients c with sum c_i basis_i = target, or None."""
    rows, monos = poly_matrix(list(basis) + [target])
    index = {m: j for j, m in enumerate(monos)}
    # columns are basis elements, rows are monomials
    mat = [[rows[i][j] for i in range(len(basis))] for j in range(len(monos))]
    rhs = [target.coefficient(m) for m in monos]
    return solve(mat, rhs)


def spans_equal(
    a: Sequence[SuperPolynomial], b: Sequence[SuperPolynomial]
) -> bool:
    ra, rb = span_rank(a), span_rank(b)
    return ra == rb == span_rank(list(a) + list(b))


def independent_subset(polys: Sequence[SuperPolynomial]) -> list[int]:
    """Indexes of a maximal linearly independent subfamily (greedy, stable)."""
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


# ===================================================================
# kernels of linear operators on monomial spans
# ===================================================================

def _kernel_block(
    images: Sequence[SuperPolynomial], monos: Sequence[SuperMonomial]
) -> list[SuperPolynomial]:
    out_monos: list[SuperMonomial] = []
    seen = set()
    for q in images:
        for m in q.monomials():
            if m not in seen:
                seen.add(m)
                out_monos.append(m)
    out_monos.sort(key=lambda m: m.sort_key())
    _check_budget(max(len(out_monos), 1), len(monos))
    mat = [
        [images[i].coefficient(o) for i in range(len(monos))] for o in out_monos
    ]
    vecs = nullspace(mat, len(monos))
    out = []
    for v in vecs:
        acc = {}
        for c, m in zip(v, monos):
            if c:
                acc[m] = c
        out.append(SuperPolynomial(acc))
    return out


def kernel_basis_polys(
    op,
    monos: Sequence[SuperMonomial],
    block_key: Optional[Callable[[SuperMonomial], Hashable]] = None,
) -> list[SuperPolynomial]:
    """Basis of {f in span(monos) : op(f) = 0}.

    `op` is anything with .apply(SuperPolynomial).  When block_key is given
    it must be conserved by op (checked on every image); the kernel then
    splits blockwise, which is the main performance lever.
    """
    if block_key is None:
        images = [op.apply(SuperPolynomial.monomial(m)) for m in monos]
        return _kernel_block(images, monos)
    blocks: dict[Hashable, list[SuperMonomial]] = {}
    order: list[Hashable] = []
    for m in monos:
        k = block_key(m)
        if k not in blocks:
            blocks[k] = []
            order.append(k)
        blocks[k].append(m)
    out: list[SuperPolynomial] = []
    for k in order:
        sub = blocks[k]
        images = []
        for m in sub:
            q = op.apply(SuperPolynomial.monomial(m))
            for om in q.monomials():
                if block_key(om) != k:
                    raise InternalError(
                        "block_key is not conserved by the operator "
                        f"({m.render()} -> {om.render()})"
                    )
            images.append(q)
        out.extend(_kernel_block(images, sub))
    return out


def joint_kernel_basis_polys(
    ops: Sequence,
    monos: Sequence[SuperMonomial],
    block_key: Optional[Callable[[SuperMonomial], Hashable]] = None,
) -> list[SuperPolynomial]:
    """Basis of the joint kernel of several operators on span(monos).

    Valid whenever every operator shifts block_key uniformly (weight vectors
    under root-vector action): the joint kernel then splits over input
    blocks even though the operators do not preserve the key.
    """
    if block_key is None:
        groups = {None: list(monos)}
        order = [None]
    else:
        groups = {}
        order = []
        for m in monos:
            k = block_key(m)
            if k not in groups:
                groups[k] = []
                order.append(k)
            groups[k].append(m)
    out: list[SuperPolynomial] = []
    for k in order:
        sub = groups[k]
        stacked: list[list[Fraction]] = []
        for op in ops:
            images = [op.apply(SuperPolynomial.monomial(m)) for m in sub]
            out_monos: list[SuperMonomial] = []
            seen = set()
            for q in images:
                for m in q.monomials():
                    if m not in seen:
                        seen.add(m)
                        out_monos.append(m)
            out_monos.sort(key=lambda m: m.sort_key())
            for o in out_monos:
                stacked.append([q.coefficient(o) for q in images])
        _check_budget(max(len(stacked), 1), len(sub))
        vecs = nullspace(stacked, len(sub))
        for v in vecs:
            acc = {}
            for c, m in zip(v, sub):
                if c:
                    acc[m] = c
            out.append(SuperPolynomial(acc))
    return out
