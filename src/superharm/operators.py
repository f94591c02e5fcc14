"""Polynomial-coefficient differential operators on the super algebra.

An operator is a sum of normal-ordered atoms

    coeff * (multiplier monomial) * (bosonic derivatives) * (fermionic derivatives)

with all multiplications to the left of all derivatives.  Composition
re-normal-orders the junction where the left factor's derivatives meet the
right factor's multipliers: bosonic pairs expand by the Weyl relation
d^a x^b = sum_k C(a,k) b!/(b-k)! x^(b-k) d^(a-k), fermionic derivative
words walk through fermionic multiplier words with the Clifford relation
d_p m = delta_pm - m d_p.  Equality of operators is equality of normal
forms.

The fermionic derivative word is stored in the canonical ascending order
and is applied right to left (last entry first), exactly like reading the
operator product d_w1 d_w2 ... d_wk.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from superharm.algebra import (
    GradingScheme,
    Scalar,
    SuperMonomial,
    SuperPolynomial,
    VariableId,
    derive,
    integrate_bosonic,
    merge_signed,
    parse_variable,
    theta,
    vartheta,
    x,
    x0,
    y,
)
from superharm.report import InternalError


class FiltrationError(InternalError):
    """The solver's series failed to strictly lower the filtration measure."""


class SeriesTerminationError(InternalError):
    """The series solver ran past its termination bound (internal logic bug)."""


class OpWord(NamedTuple):
    mult: SuperMonomial
    dbos: tuple[tuple[VariableId, int], ...]  # sorted by variable, exps >= 1
    dferm: tuple[VariableId, ...]             # strictly ascending

    def parity(self) -> int:
        return (len(self.mult.ferm) + len(self.dferm)) % 2

    def sort_key(self):
        return (
            self.mult.sort_key(),
            sorted((v, -e) for v, e in self.dbos),
            self.dferm,
        )

    def render(self) -> str:
        parts = []
        if self.mult != SuperMonomial.unit():
            parts.append(self.mult.render())
        for v, e in self.dbos:
            parts.append(f"d_{v.name()}" if e == 1 else f"d_{v.name()}^{e}")
        parts.extend(f"d_{v.name()}" for v in self.dferm)
        return "*".join(parts) if parts else "1"


_IDENTITY_WORD = OpWord(SuperMonomial.unit(), (), ())


class DiffOperator:
    """Normal-ordered operator: OpWord -> nonzero Fraction."""

    __slots__ = ("_atoms",)

    def __init__(self, atoms: Optional[dict[OpWord, Fraction]] = None):
        self._atoms = {w: c for w, c in (atoms or {}).items() if c != 0}

    # ---- constructors ----

    @staticmethod
    def zero() -> "DiffOperator":
        return DiffOperator()

    @staticmethod
    def scalar(c: Scalar) -> "DiffOperator":
        return DiffOperator({_IDENTITY_WORD: Fraction(c)})

    @staticmethod
    def identity() -> "DiffOperator":
        return DiffOperator.scalar(1)

    @staticmethod
    def multiplier(p: Union[SuperPolynomial, SuperMonomial]) -> "DiffOperator":
        if isinstance(p, SuperMonomial):
            return DiffOperator({OpWord(p, (), ()): Fraction(1)})
        return DiffOperator(
            {OpWord(m, (), ()): c for m, c in p.terms()}
        )

    @staticmethod
    def partial(v: VariableId, exp: int = 1) -> "DiffOperator":
        if exp < 0:
            raise ValueError("negative derivative power")
        if exp == 0:
            return DiffOperator.identity()
        if v.fermionic:
            if exp > 1:
                return DiffOperator.zero()
            return DiffOperator({OpWord(SuperMonomial.unit(), (), (v,)): Fraction(1)})
        return DiffOperator({OpWord(SuperMonomial.unit(), ((v, exp),), ()): Fraction(1)})

    @staticmethod
    def word(
        coeff: Scalar,
        mult: SuperMonomial,
        dbos: Iterable[tuple[VariableId, int]] = (),
        dferm: Iterable[VariableId] = (),
    ) -> "DiffOperator":
        db = tuple(sorted((v, e) for v, e in dbos if e))
        df = tuple(dferm)
        if tuple(sorted(df)) != df or len(set(df)) != len(df):
            raise ValueError("fermionic derivative word must be strictly ascending")
        return DiffOperator({OpWord(mult, db, df): Fraction(coeff)})

    # ---- inspection ----

    def is_zero(self) -> bool:
        return not self._atoms

    def atoms(self) -> list[tuple[OpWord, Fraction]]:
        return sorted(self._atoms.items(), key=lambda a: a[0].sort_key())

    def parity(self) -> Optional[int]:
        if not self._atoms:
            return None
        ps = {w.parity() for w in self._atoms}
        return ps.pop() if len(ps) == 1 else None

    def parity_part(self, par: int) -> "DiffOperator":
        return DiffOperator(
            {w: c for w, c in self._atoms.items() if w.parity() == par}
        )

    def derivative_variables(self) -> set[VariableId]:
        out: set[VariableId] = set()
        for w in self._atoms:
            out.update(v for v, _ in w.dbos)
            out.update(w.dferm)
        return out

    # ---- linear structure ----

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        acc = dict(self._atoms)
        for w, c in other._atoms.items():
            acc[w] = acc.get(w, Fraction(0)) + c
        return DiffOperator(acc)

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        acc = dict(self._atoms)
        for w, c in other._atoms.items():
            acc[w] = acc.get(w, Fraction(0)) - c
        return DiffOperator(acc)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator({w: -c for w, c in self._atoms.items()})

    def scale(self, c: Scalar) -> "DiffOperator":
        c = Fraction(c)
        if c == 0:
            return DiffOperator.zero()
        return DiffOperator({w: c * v for w, v in self._atoms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        return self._atoms == other._atoms

    def __hash__(self):
        return hash(frozenset(self._atoms.items()))

    def __repr__(self):
        return f"DiffOperator({self.render()})"

    # ---- action ----

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        out = SuperPolynomial.zero()
        for w, c in self._atoms.items():
            g = p
            for v in reversed(w.dferm):  # rightmost derivative acts first
                g = derive(g, v)
                if g.is_zero():
                    break
            if g.is_zero():
                continue
            for v, e in w.dbos:
                for _ in range(e):
                    g = derive(g, v)
                    if g.is_zero():
                        break
            if g.is_zero():
                continue
            out = out + (SuperPolynomial.monomial(w.mult, c) * g)
        return out

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return self.apply(p)

    # ---- rendering ----

    def render(self) -> str:
        if not self._atoms:
            return "0"
        chunks = []
        for w, c in self.atoms():
            body = w.render()
            mag = abs(c)
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(f"+ {piece}" if c > 0 else f"- {piece}")
        return " ".join(chunks)


# ===================================================================
# composition
# ===================================================================

def _weyl_cross(dbos, mbos):
    """Normal-order bosonic derivatives past bosonic multipliers.

    Returns a list of (integer coeff, leftover multiplier pairs,
    leftover derivative pairs).
    """
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


def _clifford_cross(dword, mword):
    """Normal-order a fermionic derivative word past a fermionic multiplier word.

    Both words ascending.  Returns a list of (sign, leftover multiplier word,
    leftover derivative word), using d_p m = delta_pm - m d_p.
    """
    if not dword:
        return [(1, mword, ())]
    p = dword[-1]  # rightmost derivative meets the multipliers first
    head = dword[:-1]
    out = []
    pass_sign = -1 if len(mword) % 2 else 1
    for sign, mleft, dleft in _clifford_cross(head, mword):
        out.append((sign * pass_sign, mleft, dleft + (p,)))
    if p in mword:
        j = mword.index(p)
        hit_sign = -1 if j % 2 else 1
        reduced = mword[:j] + mword[j + 1:]
        for sign, mleft, dleft in _clifford_cross(head, reduced):
            out.append((sign * hit_sign, mleft, dleft))
    return out


def compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Normal-ordered product a∘b (a acts after b)."""
    acc: dict[OpWord, Fraction] = {}
    for wa, ca in a._atoms.items():
        for wb, cb in b._atoms.items():
            base = ca * cb
            ferm_terms = _clifford_cross(wa.dferm, wb.mult.ferm)
            bos_terms = _weyl_cross(wa.dbos, wb.mult.bos)
            for wcoeff, xleft, dbleft in bos_terms:
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
                    coeff = base * wcoeff * fsign * msign * dsign
                    acc[word] = acc.get(word, Fraction(0)) + coeff
    return DiffOperator(acc)


def op_power(a: DiffOperator, k: int) -> DiffOperator:
    out = DiffOperator.identity()
    for _ in range(k):
        out = compose(out, a)
    return out


def super_commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = ab - (-1)^{|a||b|} ba, extended bilinearly over parity parts."""
    out = DiffOperator.zero()
    for pa in (0, 1):
        aa = a.parity_part(pa)
        if aa.is_zero():
            continue
        for pb in (0, 1):
            bb = b.parity_part(pb)
            if bb.is_zero():
                continue
            sign = -1 if pa and pb else 1
            out = out + compose(aa, bb) - compose(bb, aa).scale(sign)
    return out


def apply(op: DiffOperator, p: SuperPolynomial) -> SuperPolynomial:
    return op.apply(p)


# ===================================================================
# named operators
# ===================================================================

def _delta_check(m: int) -> DiffOperator:
    out = DiffOperator.zero()
    for r in range(1, m + 1):
        out = out + DiffOperator.word(1, SuperMonomial.unit(), (), (theta(r), vartheta(r)))
    return out


def _eta_check(m: int) -> DiffOperator:
    out = DiffOperator.zero()
    for r in range(1, m + 1):
        out = out + DiffOperator.multiplier(SuperMonomial((), (theta(r), vartheta(r))))
    return out


def _delta_bar_natural(n: int) -> DiffOperator:
    out = DiffOperator.zero()
    for i in range(1, n + 1):
        out = out + DiffOperator.word(1, SuperMonomial.unit(), ((x(i), 1), (y(i), 1)), ())
    return out


def _eta_bar_natural(n: int) -> DiffOperator:
    out = DiffOperator.zero()
    for i in range(1, n + 1):
        out = out + DiffOperator.multiplier(SuperMonomial(((x(i), 1), (y(i), 1)), ()))
    return out


def _delta_bar_twisted(n: int, n1: int, n2: int) -> DiffOperator:
    out = DiffOperator.zero()
    for i in range(1, n1 + 1):
        out = out - DiffOperator.word(1, SuperMonomial(((x(i), 1),), ()), ((y(i), 1),), ())
    for r in range(n1 + 1, n2 + 1):
        out = out + DiffOperator.word(1, SuperMonomial.unit(), ((x(r), 1), (y(r), 1)), ())
    for s in range(n2 + 1, n + 1):
        out = out - DiffOperator.word(1, SuperMonomial(((y(s), 1),), ()), ((x(s), 1),), ())
    return out


def _eta_bar_twisted(n: int, n1: int, n2: int) -> DiffOperator:
    out = DiffOperator.zero()
    for i in range(1, n1 + 1):
        out = out + DiffOperator.word(1, SuperMonomial(((y(i), 1),), ()), ((x(i), 1),), ())
    for r in range(n1 + 1, n2 + 1):
        out = out + DiffOperator.multiplier(SuperMonomial(((x(r), 1), (y(r), 1)), ()))
    for s in range(n2 + 1, n + 1):
        out = out + DiffOperator.word(1, SuperMonomial(((x(s), 1),), ()), ((y(s), 1),), ())
    return out


def _flat(scheme: GradingScheme) -> DiffOperator:
    out = DiffOperator.zero()
    for r in range(scheme.n1 + 1, scheme.n + 1):
        out = out + DiffOperator.word(1, SuperMonomial(((x(r), 1),), ()), ((x(r), 1),), ())
    for i in range(1, scheme.n1 + 1):
        out = out - DiffOperator.word(1, SuperMonomial(((x(i), 1),), ()), ((x(i), 1),), ())
    return out


def _flat_prime(scheme: GradingScheme) -> DiffOperator:
    out = DiffOperator.zero()
    for i in range(1, scheme.n2 + 1):
        out = out + DiffOperator.word(1, SuperMonomial(((y(i), 1),), ()), ((y(i), 1),), ())
    for s in range(scheme.n2 + 1, scheme.n + 1):
        out = out - DiffOperator.word(1, SuperMonomial(((y(s), 1),), ()), ((y(s), 1),), ())
    return out


def _even_delta(scheme: GradingScheme) -> DiffOperator:
    """The x0-free Laplace operator underlying a scheme."""
    if scheme.is_twisted:
        bar = _delta_bar_twisted(scheme.n, scheme.n1, scheme.n2)
    else:
        bar = _delta_bar_natural(scheme.n)
    return bar + _delta_check(scheme.m)


def _even_eta(scheme: GradingScheme) -> DiffOperator:
    if scheme.is_twisted:
        bar = _eta_bar_twisted(scheme.n, scheme.n1, scheme.n2)
    else:
        bar = _eta_bar_natural(scheme.n)
    return bar + _eta_check(scheme.m)


def named_operator(name: str, scheme: GradingScheme) -> DiffOperator:
    """Build one of the distinguished operators for a scheme.

    Names (case-insensitive): DELTA, ETA, DELTA_BAR, ETA_BAR, DELTA_CHECK,
    ETA_CHECK, FLAT, FLAT_PRIME.  For the x0 schemes DELTA/ETA are the
    ladder versions d_x0^2 + 2*Delta and x0^2 + 2*eta.
    """
    key = name.strip().upper()
    if key in ("FLAT", "FLAT_PRIME") and not scheme.is_twisted:
        raise ValueError(f"{key} exists only for twisted schemes")
    if key == "FLAT":
        return _flat(scheme)
    if key == "FLAT_PRIME":
        return _flat_prime(scheme)
    if key == "DELTA_CHECK":
        return _delta_check(scheme.m)
    if key == "ETA_CHECK":
        return _eta_check(scheme.m)
    if key == "DELTA_BAR":
        if scheme.is_twisted:
            return _delta_bar_twisted(scheme.n, scheme.n1, scheme.n2)
        return _delta_bar_natural(scheme.n)
    if key == "ETA_BAR":
        if scheme.is_twisted:
            return _eta_bar_twisted(scheme.n, scheme.n1, scheme.n2)
        return _eta_bar_natural(scheme.n)
    if key == "DELTA":
        if scheme.has_x0:
            return DiffOperator.partial(x0(), 2) + _even_delta(scheme).scale(2)
        return _even_delta(scheme)
    if key == "ETA":
        if scheme.has_x0:
            x0sq = DiffOperator.multiplier(SuperMonomial(((x0(), 2),), ()))
            return x0sq + _even_eta(scheme).scale(2)
        return _even_eta(scheme)
    raise ValueError(f"unknown operator name {name!r}")


# ===================================================================
# the interpolation operator
# ===================================================================

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

    eb = _eta_bar_natural(n)
    ec = _eta_check(m)
    out = op_power(ec, l).scale(coeffs[0])
    for p in range(0, l):
        term = compose(op_power(eb, p + 1), op_power(ec, l - p - 1))
        out = out + term.scale(coeffs[p + 1])
    return out


# ===================================================================
# integration applicator + the kernel solver
# ===================================================================

class IntegrationOperator:
    """Right inverse of a product of bosonic derivatives (exact integration)."""

    def __init__(self, steps: Sequence[tuple[VariableId, int]]):
        self._steps = tuple(steps)

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        out = p
        for v, e in self._steps:
            for _ in range(e):
                out = integrate_bosonic(out, v)
        return out

    def __call__(self, p: SuperPolynomial) -> SuperPolynomial:
        return self.apply(p)


def filtration_measure(
    t1: DiffOperator, scheme: Optional[GradingScheme] = None
) -> Callable[[SuperPolynomial], int]:
    """Twice the degree outside the variables t1 differentiates, plus, on a
    twisted scheme, one per power of y_i (i <= n1) and of x_s (s > n2).

    The second count is what the twisted Laplacian's -x_i d_y_i and
    -y_s d_x_s atoms lower while they keep the degree.
    """
    skip = t1.derivative_variables()
    lowered: set[VariableId] = set()
    if scheme is not None and scheme.is_twisted:
        lowered.update(y(i) for i in range(1, scheme.n1 + 1))
        lowered.update(x(s) for s in range(scheme.n2 + 1, scheme.n + 1))

    def measure(p: SuperPolynomial) -> int:
        best = -1
        for mono, _ in p.terms():
            d = sum((3 if v in lowered else 2) * e
                    for v, e in mono.bos if v not in skip)
            d += sum(2 for v in mono.ferm if v not in skip)
            best = max(best, d)
        return best

    return measure


def xu_solve(
    t1: DiffOperator,
    t1_inv,
    t2: DiffOperator,
    seeds: Sequence[tuple[SuperPolynomial, SuperPolynomial]],
    *,
    measure: Optional[Callable[[SuperPolynomial], int]] = None,
) -> list[SuperPolynomial]:
    """Solve (t1 + t2)(f) = 0 by the alternating series sum_i (-t1_inv t2)^i (h*g).

    Every seed product must lie in ker t1; t1_inv must be a right inverse of
    t1 on the vectors it meets (checked); t2 must strictly lower the
    filtration measure (checked; default: filtration_measure(t1), the degree
    ignoring the variables t1 differentiates).
    """
    if measure is None:
        measure = filtration_measure(t1)
    out = []
    for h, g in seeds:
        u = h * g
        total = u
        if u.is_zero():
            out.append(u)
            continue
        prev = measure(u)
        bound = max(u.degree(), 0) + 1
        for _ in range(bound + 1):
            w = t2.apply(u)
            if w.is_zero():
                break
            v = t1_inv.apply(w)
            if t1.apply(v) != w:
                raise FiltrationError("t1_inv is not a right inverse of t1 here")
            u = -v
            cur = measure(u)
            if cur >= prev:
                raise FiltrationError(
                    f"series term measure went {prev} -> {cur}; t2 must shrink it"
                )
            prev = cur
            total = total + u
        else:
            raise SeriesTerminationError("xu_solve exceeded its termination bound")
        if not (t1.apply(total) + t2.apply(total)).is_zero():
            raise FiltrationError("xu_solve output not annihilated; bad seeds")
        out.append(total)
    return out


# ===================================================================
# operator text format
# ===================================================================

_OP_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<dvar>d_(?:x|y|th|vt)\d+)"
    r"|(?P<name>(?:x|y|th|vt)\d+)|(?P<op>[*^+-]))"
)


def parse_operator(text: str) -> DiffOperator:
    """Parse the DiffOperator.render format; factors compose left to right."""
    pos = 0
    toks = []
    while pos < len(text):
        mo = _OP_TOKEN_RE.match(text, pos)
        if mo is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse operator at: {text[pos:]!r}")
        if mo.group("num") is not None:
            toks.append(("num", Fraction(mo.group("num"))))
        elif mo.group("dvar") is not None:
            toks.append(("dvar", parse_variable(mo.group("dvar")[2:])))
        elif mo.group("name") is not None:
            toks.append(("var", parse_variable(mo.group("name"))))
        else:
            toks.append(("op", mo.group("op")))
        pos = mo.end()
    if not toks:
        raise ValueError("empty operator text")

    total = DiffOperator.zero()
    i = 0

    def read_term(i, sign):
        term = DiffOperator.scalar(sign)
        expect_factor = True
        while i < len(toks):
            kind, val = toks[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if kind == "op" and val == "*":
                i += 1
                expect_factor = True
                continue
            if kind == "num":
                term = term.scale(val)
                i += 1
                expect_factor = False
                continue
            if kind in ("var", "dvar"):
                exp = 1
                if (
                    i + 2 < len(toks)
                    and toks[i + 1] == ("op", "^")
                    and toks[i + 2][0] == "num"
                ):
                    frac = toks[i + 2][1]
                    if frac.denominator != 1:
                        raise ValueError("fractional exponent")
                    exp = int(frac)
                    i += 2
                if kind == "var":
                    factor = DiffOperator.multiplier(
                        SuperPolynomial.variable(val)
                    )
                    fac = DiffOperator.identity()
                    for _ in range(exp):
                        fac = compose(fac, factor)
                else:
                    fac = DiffOperator.partial(val, exp)
                term = compose(term, fac)
                i += 1
                expect_factor = False
                continue
            raise ValueError(f"unexpected token {toks[i]!r}")
        if expect_factor:
            raise ValueError("dangling operator in operator text")
        return i, term

    sign = 1
    while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
        if toks[i][1] == "-":
            sign = -sign
        i += 1
    i, term = read_term(i, sign)
    total = total + term
    while i < len(toks):
        assert toks[i][0] == "op" and toks[i][1] in "+-"
        sign = 1
        while i < len(toks) and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        i, term = read_term(i, sign)
        total = total + term
    return total
