"""Slow, independent reference implementations used to cross-check the engine,
plus the test-only helpers: the polynomial text parser and the paper's
closed-form mixing operator.

Everything here works from first principles on explicit factor sequences,
deliberately avoiding the package's canonical-form shortcuts, so that a bug
in the engine's sign bookkeeping cannot hide in the oracle too.  The linear
algebra oracles are the engine's earlier algorithms, on their own dense
matrices (`oracle_matrix`, columns in sorted monomial order) and their
own elimination: plain Fraction elimination (`oracle_rref`), span
membership as a rank that does not grow, one span rank per member for the
independent subset, and a column-shuffled
elimination for the window intersection.  The operator
action `oracle_apply` runs on `oracle_derive`, one Leibniz derivative step
and one intermediate polynomial at a time, `oracle_compose` is the earlier
composition that expands every variable of an atom pair, shared or not,
`oracle_super_commutator` builds both full products of each pair of parity
parts, `oracle_bracket` multiplies dense supermatrices part by part,
osp membership is the dense reduction against the osp basis
(the η-stabilizer test in test_representations checks both against a
rule that shares nothing with the basis's sign),
`oracle_singular_vectors` is the earlier singular solve on every positive
generator rather than the simple root vectors, and `oracle_kernel`, which
that solve runs on, builds the kernel equations as the earlier
per-operator coefficient matrices, transposed, and eliminates all of them
in every block.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from typing import Optional

from superharm.algebra import (
    Family,
    GradingScheme,
    SchemeKind,
    SuperMonomial,
    SuperPolynomial,
    VariableId,
    merge_signed,
    theta,
    vartheta,
    x,
    y,
)
from superharm.harmonic import monomial_weight
from superharm.operators import DiffOperator, OpWord, compose, named_operator
from superharm.representations import (
    AlgebraElement,
    AlgebraFamily,
    osp_basis,
    positive_generators,
    rep_operator,
)


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


def oracle_matrix(polys):
    """Dense Fraction coefficient rows, one per polynomial, over the union
    of their monomials in sorted order; returns (rows, monomials)."""
    monos = sorted({m for p in polys for m, _ in p.terms()},
                   key=lambda m: m.sort_key())
    return [[Fraction(p.coefficient(m)) for m in monos] for p in polys], monos


def oracle_span_rank(polys):
    """Rank of the span of the polynomials, by `oracle_rref`."""
    return len(oracle_rref(oracle_matrix(polys)[0])[1])


def oracle_in_span(target, basis):
    """Whether target lies in span(basis): the `oracle_span_rank` of the
    basis does not grow when target joins it."""
    return oracle_span_rank([*basis, target]) == oracle_span_rank(basis)


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
        rr = oracle_span_rank(cand)
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
    rows, monos = oracle_matrix(polys)
    order = sorted(range(len(monos)), key=lambda j: (monos[j] in window, j))
    shuffled = [[r[j] for j in order] for r in rows]
    red, _ = oracle_rref(shuffled)
    n_out = sum(1 for j in order if monos[j] not in window)
    return sum(1 for row in red if not any(row[:n_out]))


def oracle_kernel(ops, monos, block_key=None):
    """Joint kernel of ops on span(monos) by the earlier route: monomials
    blocked in first-seen key order, the images by `oracle_apply`, one
    `oracle_matrix` per operator and block, transposed and stacked, and the
    null space read off `oracle_rref` (one vector per free column, in
    order)."""
    blocks: dict = {}
    for m in monos:
        blocks.setdefault(None if block_key is None else block_key(m), []).append(m)
    out = []
    for sub in blocks.values():
        stacked = []
        for op in ops:
            rows, _ = oracle_matrix(
                [oracle_apply(op, SuperPolynomial.monomial(m)) for m in sub])
            stacked.extend(zip(*rows))
        red, pivots = oracle_rref(stacked)
        for fc in range(len(sub)):
            if fc in pivots:
                continue
            vec = {sub[fc]: Fraction(1)}
            for row, pc in zip(red, pivots):
                vec[sub[pc]] = -row[fc]
            out.append(SuperPolynomial(vec))
    return out


def oracle_apply(op, p: SuperPolynomial) -> SuperPolynomial:
    """DiffOperator action by repeated `oracle_derive`, atom by atom."""
    out = SuperPolynomial.zero()
    for w, c in op._terms.items():
        g = p
        for v in reversed(w.dferm):  # rightmost derivative acts first
            g = oracle_derive(g, v)
            if g.is_zero():
                break
        if g.is_zero():
            continue
        for v, e in w.dbos:
            for _ in range(e):
                g = oracle_derive(g, v)
                if g.is_zero():
                    break
        if g.is_zero():
            continue
        out = out + (SuperPolynomial.monomial(w.mult, c) * g)
    return out


def _full_weyl_cross(dbos, mbos):
    """Weyl normal ordering expanded over every variable of either side,
    shared or not: (integer coeff, multiplier pairs, derivative pairs)."""
    terms = [(1, {}, {})]
    dd, md = dict(dbos), dict(mbos)
    for v in sorted(set(dd) | set(md)):
        a, b = dd.get(v, 0), md.get(v, 0)
        new = []
        for k in range(0, min(a, b) + 1):
            c = math.comb(a, k) * math.perm(b, k)
            for c0, xm, dm in terms:
                nx, nd = dict(xm), dict(dm)
                if b - k:
                    nx[v] = b - k
                if a - k:
                    nd[v] = a - k
                new.append((c0 * c, nx, nd))
        terms = new
    return [
        (c, tuple(sorted(xm.items())), tuple(sorted(dm.items())))
        for c, xm, dm in terms
    ]


def _full_clifford_cross(dword, mword):
    """Clifford normal ordering that walks every derivative through the
    whole multiplier word, hit or miss: (sign, multipliers, derivatives)."""
    if not dword:
        return [(1, mword, ())]
    p = dword[-1]
    head = dword[:-1]
    out = []
    pass_sign = -1 if len(mword) % 2 else 1
    for sign, mleft, dleft in _full_clifford_cross(head, mword):
        out.append((sign * pass_sign, mleft, dleft + (p,)))
    if p in mword:
        j = mword.index(p)
        hit_sign = -1 if j % 2 else 1
        reduced = mword[:j] + mword[j + 1:]
        for sign, mleft, dleft in _full_clifford_cross(head, reduced):
            out.append((sign * hit_sign, mleft, dleft))
    return out


def oracle_compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Normal-ordered product a∘b by full expansion of every atom pair."""
    acc: dict = {}
    for wa, ca in a._terms.items():
        for wb, cb in b._terms.items():
            ferm_terms = _full_clifford_cross(wa.dferm, wb.mult.ferm)
            for wcoeff, xleft, dbleft in _full_weyl_cross(wa.dbos, wb.mult.bos):
                for fsign, mleft, dfleft in ferm_terms:
                    prod = wa.mult.mul(SuperMonomial(xleft, mleft))
                    if prod is None:
                        continue
                    msign, mono = prod
                    dmerge = merge_signed(dfleft, wb.dferm)
                    if dmerge is None:
                        continue
                    dsign, dword = dmerge
                    db = dict(dbleft)
                    for v, e in wb.dbos:
                        db[v] = db.get(v, 0) + e
                    word = OpWord(mono, tuple(sorted(db.items())), dword)
                    acc[word] = acc.get(word, 0) + \
                        ca * cb * wcoeff * fsign * msign * dsign
    return DiffOperator(acc)


def parity_part(op: DiffOperator, par: int) -> DiffOperator:
    """The atoms of op whose parity is par."""
    return DiffOperator({w: c for w, c in op.items() if w.parity() == par})


def oracle_super_commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = ab - (-1)^{|a||b|} ba, extended bilinearly over parity
    parts: every product built in full by `oracle_compose`."""
    out = DiffOperator.zero()
    for pa in (0, 1):
        aa = parity_part(a, pa)
        if aa.is_zero():
            continue
        for pb in (0, 1):
            bb = parity_part(b, pb)
            if bb.is_zero():
                continue
            ba = oracle_compose(bb, aa)
            out = out + oracle_compose(aa, bb)
            out = out + ba if pa and pb else out - ba
    return out


def _index_parities(space):
    """{ambient index: 0 or 1}, read off the families' definitions: gl(n|m)
    has the even indices 1..n and the odd n+1..n+m; osp(2n|2m) the even
    1..2n and the odd 2n+1..2n+2m; osp(2n+1|2m) adds the even index 0."""
    n, m = space.n, space.m
    if space.family is AlgebraFamily.GL:
        even, odd = range(1, n + 1), range(n + 1, n + m + 1)
    else:
        low = 0 if space.family is AlgebraFamily.OSP_ODD else 1
        even, odd = range(low, 2 * n + 1), range(2 * n + 1, 2 * (n + m) + 1)
    return {**dict.fromkeys(even, 0), **dict.fromkeys(odd, 1)}


def _matmul(u, v):
    return [[sum(u[i][k] * v[k][j] for k in range(len(v)))
             for j in range(len(v[0]))] for i in range(len(u))]


def oracle_bracket(u, v):
    """[u, v] as dense supermatrices: each element is split into its two
    homogeneous parts, part q holding the entries whose row and column
    parities sum to q mod 2, and [u, v] is the sum over the parts p of u
    and q of v of u_p v_q - (-1)^{pq} v_q u_p, by plain matrix products."""
    parity = _index_parities(u.space)
    order = sorted(parity)
    size = len(order)

    def parts(elem):
        out = [[[Fraction(0)] * size for _ in range(size)] for _ in (0, 1)]
        for (a, b), c in elem.terms():
            out[(parity[a] + parity[b]) % 2][order.index(a)][order.index(b)] = c
        return out

    total = [[Fraction(0)] * size for _ in range(size)]
    for p, up in enumerate(parts(u)):
        for q, vq in enumerate(parts(v)):
            sign = -1 if p and q else 1
            uv, vu = _matmul(up, vq), _matmul(vq, up)
            for i in range(size):
                for j in range(size):
                    total[i][j] += uv[i][j] - sign * vu[i][j]
    return AlgebraElement(u.space, {(order[i], order[j]): c
                                    for i, row in enumerate(total)
                                    for j, c in enumerate(row) if c})


def _element_row(elem, keys):
    return [elem.coefficient(k) for k in keys]


def _osp_span_data(space):
    basis = osp_basis(space)
    keys = sorted({k for e in basis for k, _ in e.terms()})
    key_index = {k: i for i, k in enumerate(keys)}
    red, pivots = oracle_rref([_element_row(e, keys) for e in basis])
    return key_index, red, pivots


def oracle_is_orthosymplectic(elem) -> bool:
    """Dense span-membership test against the osp basis."""
    if elem.space.family is AlgebraFamily.GL:
        raise ValueError("membership test is for osp ambient spaces")
    key_index, red, pivots = _osp_span_data(elem.space)
    vec = [Fraction(0)] * len(key_index)
    for k, c in elem.terms():
        if k not in key_index:
            return False
        vec[key_index[k]] = c
    for row, pc in zip(red, pivots):
        if vec[pc]:
            f = vec[pc]
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)


def oracle_singular_vectors(sl, generators=None, *, harmonic=True):
    """The joint kernel on the slice of the given generators (default: every
    positive generator) and, when harmonic, Delta; each vector scaled to
    leading coefficient 1, in solver order."""
    if generators is None:
        generators = positive_generators(sl.scheme)
    ops = [rep_operator(g, sl.scheme) for g in generators]
    if harmonic:
        ops.append(named_operator("DELTA", sl.scheme))
    found = oracle_kernel(ops, sl.basis,
                          functools.partial(monomial_weight, scheme=sl.scheme))
    return [v.scale(Fraction(1, v.terms()[0][1])) for v in found]


# ===================================================================
# test-only helpers
# ===================================================================

def op_power(a: DiffOperator, k: int) -> DiffOperator:
    out = DiffOperator.identity()
    for _ in range(k):
        out = compose(out, a)
    return out


def im_operator(
    l1: int, l2: int, r: int, s: int, l: int, n: int, *, m: Optional[int] = None
) -> DiffOperator:
    """Mixing operator: an exact polynomial in eta_bar and eta_check.

    The coefficients follow the recursion
        a_{p+1}/a_p = (l-p)(p+s-r-l) / ((p+1)(n+l1+l2+p))
    seeded at a_0 = prod_{i=1}^{l+1} i*(i+n+l1+l2-1); the operator is
        a_0 eta_check^l + sum_p a_{p+1} eta_bar^(p+1) eta_check^(l-p-1).

    `m` sets the fermionic width of eta_check; on the inputs this operator
    is designed for, theta/vartheta pairs outside (r, s) act as zero, so the
    default m = s-1 reproduces the intended action.
    """
    if not (0 <= r < s):
        raise ValueError("need 0 <= r < s")
    if m is None:
        m = max(s - 1, 1)
    if s > m + 1:
        raise ValueError("need s <= m+1")
    if not (0 <= l <= s - r - 1):
        raise ValueError("need 0 <= l <= s-r-1")
    if l1 < 0 or l2 < 0:
        raise ValueError("need l1, l2 >= 0")
    if n < 1:
        raise ValueError("need n >= 1")

    coeffs = [Fraction(1)]
    a = Fraction(1)
    for i2 in range(1, l + 2):
        a *= i2 * (i2 + n + l1 + l2 - 1)
    coeffs[0] = a
    for p in range(0, l):
        num = (l - p) * (p + s - r - l)
        den = (p + 1) * (n + l1 + l2 + p)
        a = a * num / den
        coeffs.append(a)

    scheme = GradingScheme(SchemeKind.GL_NATURAL, n, m)
    eb = named_operator("ETA_BAR", scheme)
    ec = named_operator("ETA_CHECK", scheme)
    out = op_power(ec, l).scale(coeffs[0])
    for p in range(0, l):
        term = compose(op_power(eb, p + 1), op_power(ec, l - p - 1))
        out = out + term.scale(coeffs[p + 1])
    return out


_VAR_RE = re.compile(r"^(x|y|th|vt)(\d+)$")


def parse_variable(name: str) -> VariableId:
    mo = _VAR_RE.match(name)
    if mo is None:
        raise ValueError(f"not a variable name: {name!r}")
    prefix, idx = mo.group(1), int(mo.group(2))
    if prefix == "x":
        return x(idx)
    if prefix == "y":
        if idx < 1:
            raise ValueError(f"bad variable index in {name!r}")
        return y(idx)
    if idx < 1:
        raise ValueError(f"bad variable index in {name!r}")
    return theta(idx) if prefix == "th" else vartheta(idx)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>(?:x|y|th|vt)\d+)|(?P<op>[*^+-]))"
)


def _tokenize(text: str) -> list:
    pos = 0
    out = []
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        if mo.group("num") is not None:
            out.append(("num", Fraction(mo.group("num"))))
        elif mo.group("name") is not None:
            out.append(("var", parse_variable(mo.group("name"))))
        else:
            out.append(("op", mo.group("op")))
        pos = mo.end()
    return out


def parse_polynomial(text: str) -> SuperPolynomial:
    """Parse the SuperPolynomial.render format (sums of *-joined power factors)."""
    toks = _tokenize(text)
    if not toks:
        raise ValueError("empty polynomial text")
    total = SuperPolynomial.zero()
    i = 0
    sign = 1
    # leading sign
    while i < len(toks) and toks[i] == ("op", "-"):
        sign = -sign
        i += 1
    term = SuperPolynomial.monomial(SuperMonomial.unit(), sign)
    expect_factor = True
    while i < len(toks):
        kind, val = toks[i]
        if kind == "op" and val in "+-" and not expect_factor:
            total = total + term
            sign = 1 if val == "+" else -1
            i += 1
            while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
                if toks[i][1] == "-":
                    sign = -sign
                i += 1
            term = SuperPolynomial.monomial(SuperMonomial.unit(), sign)
            expect_factor = True
            continue
        if kind == "op" and val == "*":
            i += 1
            expect_factor = True
            continue
        if kind == "num":
            term = term * val
            i += 1
            expect_factor = False
            continue
        if kind == "var":
            v = val
            exp = 1
            if i + 2 < len(toks) and toks[i + 1] == ("op", "^") and toks[i + 2][0] == "num":
                frac = toks[i + 2][1]
                if frac.denominator != 1:
                    raise ValueError("fractional exponent")
                exp = int(frac)
                i += 2
            if v.fermionic:
                if exp > 1:
                    term = SuperPolynomial.zero()
                elif exp == 1:
                    term = term * SuperPolynomial.variable(v)
            else:
                if exp:
                    term = term * SuperPolynomial.monomial(
                        SuperMonomial(((v, exp),), ())
                    )
            i += 1
            expect_factor = False
            continue
        raise ValueError(f"unexpected token {toks[i]!r}")
    if expect_factor:
        raise ValueError("dangling operator at end of polynomial text")
    return total + term
