"""Exact linear algebra over the rationals, plus polynomial-space helpers.

There is one elimination, `rref`; every other question is a rank or a
null space over it.  `rank` counts the rows of the echelon form,
`span_rank` is the rank of the coefficient rows of some polynomials,
`in_span` compares two span ranks, `independent_subset` returns the pivot
columns of the matrix whose columns are the polynomials, and both kernels
take the null space of the stacked, transposed coefficient matrices of the
operator images.

Matrices come in and go out as rows of Fraction, but `rref` eliminates on
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


# ===================================================================
# polynomial spans
# ===================================================================

def poly_matrix(
    polys: Sequence[SuperPolynomial],
) -> tuple[list[list[Fraction]], list[SuperMonomial]]:
    """Coefficient rows over the union of monomials (deterministic column order)."""
    terms = [p.terms() for p in polys]
    monos = sorted({m for t in terms for m, _ in t}, key=lambda m: m.sort_key())
    index = {m: j for j, m in enumerate(monos)}
    _check_budget(max(len(polys), 1), max(len(monos), 1))
    rows = []
    for t in terms:
        row = [_ZERO] * len(monos)
        for m, c in t:
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


def independent_subset(polys: Sequence[SuperPolynomial]) -> list[int]:
    """Indexes of a maximal linearly independent subfamily (greedy, stable):
    the pivot columns of the matrix whose columns are the polynomials."""
    rows, _ = poly_matrix(polys)
    return rref(list(zip(*rows)))[1]


# ===================================================================
# kernels of linear operators on monomial spans
# ===================================================================

def _kernel(
    image_lists: Sequence[Sequence[SuperPolynomial]],
    monos: Sequence[SuperMonomial],
) -> list[SuperPolynomial]:
    """Basis of the joint kernel on span(monos) of the linear maps sending
    monos[i] to images[i], one list of images per map."""
    stacked: list[Sequence[Fraction]] = []
    for images in image_lists:
        rows, _ = poly_matrix(images)
        stacked.extend(zip(*rows))
    return [SuperPolynomial({m: c for c, m in zip(v, monos) if c})
            for v in nullspace(stacked, len(monos))]


def _blocks(
    monos: Sequence[SuperMonomial],
    block_key: Optional[Callable[[SuperMonomial], Hashable]],
) -> dict[Hashable, list[SuperMonomial]]:
    blocks: dict[Hashable, list[SuperMonomial]] = {}
    for m in monos:
        blocks.setdefault(None if block_key is None else block_key(m), []).append(m)
    return blocks


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
    out: list[SuperPolynomial] = []
    for k, sub in _blocks(monos, block_key).items():
        images = []
        for m in sub:
            q = op.apply(SuperPolynomial.monomial(m))
            if block_key is not None:
                for om in q.monomials():
                    if block_key(om) != k:
                        raise InternalError(
                            "block_key is not conserved by the operator "
                            f"({m.render()} -> {om.render()})"
                        )
            images.append(q)
        out.extend(_kernel([images], sub))
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
    out: list[SuperPolynomial] = []
    for sub in _blocks(monos, block_key).values():
        out.extend(_kernel(
            [[op.apply(SuperPolynomial.monomial(m)) for m in sub] for op in ops],
            sub))
    return out
