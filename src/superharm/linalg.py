"""Exact linear algebra over the rationals, plus polynomial-space helpers.

There is one elimination, `_echelon_add`, which adds rows to a forward
echelon form (eliminated below each pivot, never above); `_forward` runs
it on a whole matrix, whose pivots `rank` counts and `independent_subset`
reads, and `rref` back-substitutes that form for `nullspace`;
`span_rank` is the rank of the coefficient rows of some linear
combinations (polynomials or algebra elements), `span_ranks` is the
cumulative form of that one elimination (the ranks of span(F0),
span(F0 + F1), ..., read as each family's rows join the echelon form,
whose members may be any mappings with `.items()`),
`each_owns_a_monomial` proves independence from the supports alone, and
`independent_subset` returns the pivot columns of the matrix whose
columns are the polynomials.  There is one kernel solve,
`joint_kernel_basis_polys`; `kernel_basis_polys` is its one-operator
case.  It groups the monomials into blocks that the caller knows every
operator sends into one block each, distinct blocks into distinct ones,
and solves each block on its own.  It reads the images of a whole block
in one `images` call per operator (a `DiffOperator`, or an
`operators.ImageTable` that keeps them for a later re-verification),
each a {monomial: coefficient} dict, and scatters them into one row per
operator and output monomial, one column per input monomial of the
block, once the budget is checked on the rows counted, before any row
is allocated.  Each operator's equations join the block's forward
echelon form in turn, and the block stops at full column rank, where
its kernel is {0}; a block that never reaches it takes its null space
from the echelon rows it holds, which is the basis the full solve on
all its equations gives.  `nullspace` reads the reduced rows as
integers and builds a Fraction only where an entry is not integral.

Matrices come in as rows of ints and Fractions (the polynomial helpers
hand over the coefficients as stored: ints unless a value is not
integral), and the elimination runs on Python ints: each row is scaled
to coprime integers by clearing its denominators (an all-int row only by
its content gcd), eliminated fraction-free (row <- a*row - b*pivot_row
with a, b divided by their gcd, then by the row's content gcd; cf.
Bareiss, Math. Comp. 22, 1968) and, in `rref`, back-substituted.  Its
rows stay coprime integers with the pivot entry not normalised to 1; the
reduced echelon form is unique, so each row divided by its pivot entry is
exactly the row plain Fraction elimination gives.  Everything
is dense: the matrices that show up here are small once the caller
blocks by grading label and Cartan weight.

SUPERHARM_MAX_CELLS (environment) caps the number of cells in any single
dense matrix; exceeding it raises MatrixBudgetError instead of truncating.
`_forward`, `poly_matrix` and the kernel solve read it once per call, and the
solve passes the parsed budget down to the equations of every block, as a
caller of `image_rank` (the rank of a map from its images) does.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Hashable, Optional, Sequence

from superharm.algebra import LinearCombination, Scalar, SuperMonomial, SuperPolynomial


class MatrixBudgetError(RuntimeError):
    """A dense matrix would exceed the SUPERHARM_MAX_CELLS budget."""


def _budget() -> Optional[int]:
    """The SUPERHARM_MAX_CELLS budget, None when it is unset."""
    raw = os.environ.get("SUPERHARM_MAX_CELLS")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as err:
        raise MatrixBudgetError(f"bad SUPERHARM_MAX_CELLS value {raw!r}") from err


def _check_budget(nrows: int, ncols: int, budget: Optional[int]) -> None:
    if budget is not None and nrows * ncols > budget:
        raise MatrixBudgetError(
            f"matrix {nrows}x{ncols} exceeds SUPERHARM_MAX_CELLS={budget}"
        )


# ===================================================================
# plain matrices (lists of rows of ints and Fractions)
# ===================================================================

def _integer_row(row: Sequence[Scalar]) -> Sequence[int]:
    """The row times the lcm of its denominators, divided by its content:
    coprime integers spanning the same line.  An all-int row is only
    divided by its content (and returned as it is when that is 1; `rref`
    never writes into a row)."""
    dens = [v.denominator for v in row if type(v) is not int]
    if dens:
        den = lcm(*dens)
        row = [v.numerator * (den // v.denominator) for v in row]
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def _clear(row: Sequence[int], prow: Sequence[int], c: int) -> Sequence[int]:
    """The integer row with column c cleared by the pivot row prow,
    fraction-free: a*row - b*prow with a/b = prow[c]/row[c] in lowest
    terms, divided by its content gcd."""
    pv, f = prow[c], row[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    row = [a * u - b * w for u, w in zip(row, prow)]
    g = gcd(*row)
    return [u // g for u in row] if g > 1 else row


def _echelon_add(
    echelon: dict[int, Sequence[int]], rows: Sequence[Sequence[Scalar]]
) -> None:
    """Add rows to a forward echelon form held as {pivot column: row}.

    Each row, scaled to coprime integers, is cleared by the pivot row at
    its leading column until its leading column is not yet a pivot, where
    it joins the echelon, or it vanishes.  A row of the echelon has zeros
    left of its pivot, so every pivot column is zero in the rows whose
    pivot lies to its right.  This is the one elimination: `_forward` runs
    it on a whole matrix, the joint kernel feeds it one operator's
    equations at a time, and `span_ranks` one family's rows at a time.
    """
    for row in rows:
        row = _integer_row(row)
        n = len(row)
        c = next(filter(row.__getitem__, range(n)), n)
        while c < n:
            prow = echelon.get(c)
            if prow is None:
                echelon[c] = row
                break
            row = _clear(row, prow, c)
            c = next(filter(row.__getitem__, range(c + 1, n)), n)


def _forward(rows: Sequence[Sequence[Scalar]]) -> dict[int, Sequence[int]]:
    """The forward echelon form of the rows, {pivot column: row}, once the
    matrix passes the cell budget: all a rank or a pivot set needs."""
    if rows:
        _check_budget(len(rows), len(rows[0]), _budget())
    echelon: dict[int, Sequence[int]] = {}
    _echelon_add(echelon, rows)
    return echelon


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[Sequence[int]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indexes),
    each row coprime integers with its pivot entry not normalised to 1.
    The rows may be the caller's own input rows: read them, never write
    into them."""
    echelon = _forward(rows)
    pivots = sorted(echelon)
    work = [echelon[c] for c in pivots]
    # back substitution, last pivot first: row k is already clear at every
    # later pivot, so clearing column pivots[k] above it keeps them clear
    for k in range(len(work) - 1, 0, -1):
        c, prow = pivots[k], work[k]
        for i in range(k):
            if work[i][c]:
                work[i] = _clear(work[i], prow, c)
    return work, pivots


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(_forward(rows))


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of {v : M v = 0} for the matrix with the given rows, entries
    in canonical coefficient form (an int when integral)."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            u, pv = -row[fc], row[pc]
            v[pc] = u // pv if u % pv == 0 else Fraction(u, pv)
        basis.append(v)
    return basis


# ===================================================================
# polynomial spans
# ===================================================================

def poly_matrix(
    polys: Sequence[LinearCombination | dict],
) -> tuple[list[list[Scalar]], list[Hashable]]:
    """Coefficient rows over the union of keys, columns in first-seen
    order: no caller's rank, null space or pivot set depends on it.  Only
    each member's `.items()` is read, so any such mapping will do: a
    `LinearCombination` (polynomials keyed by monomials, algebra elements
    by matrix units) or a dict, like the {id: coefficient} vectors of an
    `operators.ImageTable`."""
    terms = [p.items() for p in polys]
    monos = list(dict.fromkeys(m for t in terms for m, _ in t))
    index = {m: j for j, m in enumerate(monos)}
    _check_budget(max(len(polys), 1), max(len(monos), 1), _budget())
    rows = []
    for t in terms:
        row = [0] * len(monos)
        for m, c in t:
            row[index[m]] = c
        rows.append(row)
    return rows, monos


def span_rank(polys: Sequence[LinearCombination]) -> int:
    """Rank of the span of any `LinearCombination`s (see `poly_matrix`)."""
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        return 0
    rows, _ = poly_matrix(nonzero)
    return rank(rows)


def span_ranks(*families: Sequence[LinearCombination | dict]) -> list[int]:
    """Ranks of span(F0), span(F0 + F1), ...: the families' rows go into
    one forward echelon form in turn, from one `poly_matrix`, and its rank
    is read after each family.  A member is any mapping `poly_matrix`
    reads."""
    rows, _ = poly_matrix([p for family in families for p in family])
    echelon: dict[int, Sequence[int]] = {}
    ranks = []
    start = 0
    for family in families:
        _echelon_add(echelon, rows[start:start + len(family)])
        start += len(family)
        ranks.append(len(echelon))
    return ranks


def each_owns_a_monomial(polys: Sequence[SuperPolynomial]) -> bool:
    """Whether every polynomial has a monomial that no other one has.  Such
    a family is independent: in a vanishing combination the coefficient
    of each member is the one at its own monomial, so it is zero.  A
    null-space basis always passes, each vector owning its free column."""
    owner: dict[SuperMonomial, int] = {}
    for i, p in enumerate(polys):
        for m, _ in p.items():
            owner[m] = i if m not in owner else -1
    return len(set(owner.values()) - {-1}) == len(polys)


def independent_subset(polys: Sequence[SuperPolynomial]) -> list[int]:
    """Indexes of a maximal linearly independent subfamily (greedy, stable):
    the pivot columns of the matrix whose columns are the polynomials."""
    rows, _ = poly_matrix(polys)
    return sorted(_forward(list(zip(*rows))))


# ===================================================================
# kernels of linear operators on monomial spans
# ===================================================================

def _equation_rows(
    images: Sequence[dict], ncols: int, budget: Optional[int], held: int = 0
) -> list[list[Scalar]]:
    """The equations of the map sending monos[j] to images[j], each image
    a {monomial: coefficient} dict: one row per output monomial
    (first-seen order), one column per input monomial.  The rows are
    counted and the budget checked on them plus `held` rows the caller
    already keeps, before any row is allocated."""
    index: dict[SuperMonomial, int] = {}
    for q in images:
        for m in q:
            if m not in index:
                index[m] = len(index)
    _check_budget(held + len(index), ncols, budget)
    rows: list[list[Scalar]] = [[0] * ncols for _ in range(len(index))]
    for j, q in enumerate(images):
        for m, c in q.items():
            rows[index[m]][j] = c
    return rows


def image_rank(images: Sequence[dict], ncols: int, budget: Optional[int]) -> int:
    """Rank of the map sending the j-th of ncols monomials to images[j]:
    the forward echelon form of its `_equation_rows` under the caller's
    parsed budget."""
    echelon: dict[int, Sequence[int]] = {}
    _echelon_add(echelon, _equation_rows(images, ncols, budget))
    return len(echelon)


def kernel_basis_polys(
    op,
    monos: Sequence[SuperMonomial],
    block_key: Optional[Callable[[SuperMonomial], Hashable]] = None,
) -> list[SuperPolynomial]:
    """Basis of {f in span(monos) : op(f) = 0}: the joint kernel of the one
    operator, under the block rule of `joint_kernel_basis_polys`."""
    return joint_kernel_basis_polys([op], monos, block_key)


def joint_kernel_basis_polys(
    ops: Sequence,
    monos: Sequence[SuperMonomial],
    block_key: Optional[Callable[[SuperMonomial], Hashable]] = None,
) -> list[SuperPolynomial]:
    """Basis of the joint kernel of several operators on span(monos).

    Each operator is anything with .images(monomials), returning one
    {monomial: coefficient} dict per monomial (`DiffOperator`,
    `ImageTable`); it is called once per block.  The blocks are the monos
    grouped by block_key in first-seen order (one block when it is None).
    The caller must know that every operator sends each block into one
    block and different blocks into different ones (`harmonic._weight_shift`
    proves it for weights): the joint kernel then splits over the blocks,
    which is the main performance lever.

    Each block is solved one operator at a time: that operator's equations
    join the block's forward echelon form, and once its pivots cover every
    column the block's joint kernel is {0}, so no further operator is
    applied to it.  A block that never gets there takes its null space
    from the echelon rows it holds: they span the same rows as all its
    equations stacked, and the reduced echelon form is unique, so the
    basis returned is the one the full solve gives.
    """
    blocks: dict[Hashable, list[SuperMonomial]] = {}
    for m in monos:
        blocks.setdefault(None if block_key is None else block_key(m), []).append(m)
    budget = _budget()
    out: list[SuperPolynomial] = []
    for sub in blocks.values():
        ncols = len(sub)
        echelon: dict[int, Sequence[int]] = {}
        for op in ops:
            rows = _equation_rows(op.images(sub), ncols, budget, len(echelon))
            _echelon_add(echelon, rows)
            if len(echelon) == ncols:
                break
        else:
            out.extend(SuperPolynomial({m: c for c, m in zip(v, sub) if c})
                       for v in nullspace(list(echelon.values()), ncols))
    return out
