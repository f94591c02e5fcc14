"""Polynomial-coefficient differential operators on the super algebra.

An operator is a sum of normal-ordered atoms

    coeff * (multiplier monomial) * (bosonic derivatives) * (fermionic derivatives)

with all multiplications to the left of all derivatives: an
`algebra.LinearCombination` keyed by the atoms' words (`OpWord`), which
holds the coefficients and the linear structure.  Composition
re-normal-orders the junction where the left factor's derivatives meet the
right factor's multipliers, and only the variables both sides carry are
expanded: a shared bosonic variable by the Weyl relation
d^a x^b = sum_k C(a,k) b!/(b-k)! x^(b-k) d^(a-k), a fermionic derivative
word that meets its multiplier word by walking through it with the
Clifford relation d_p m = delta_pm - m d_p.  Every other factor passes
unchanged; disjoint fermionic words just pick up the sign
(-1)^(|d| |m|).  Equality of operators is equality of normal forms.

`_atom` is the one builder of an atom from variable lists (a coefficient,
the variables multiplied, the variables differentiated): the named
operators, the Euler operators and the representations' matrix units are
sums of its atoms.

The uncontracted term of two atoms' product is their product in the
associated graded algebra, which is supercommutative, so it cancels from
a∘b - (-1)^{|a||b|} b∘a.  `super_commutator` shares `compose`'s
atom-pair loop and never builds the terms that cancel.

`twist` maps an operator through the Weyl-algebra automorphism of a
twisted scheme (v -> d_v, d_v -> -v on the swapped bosonic variables); the
twisted representations and their Laplace operators are the twists of the
natural ones.

`xu_solve` is the one series solver behind the explicit harmonic bases:
for t1 a product of bosonic derivatives (d_xc d_yc on gl, d_x0^2 on the x0
ladders) it completes each seed in ker t1 to a solution of Delta f = 0, for
the scheme's Delta that its caller passes in.

The fermionic derivative word is stored in the canonical ascending order
and is applied right to left (last entry first), exactly like reading the
operator product d_w1 d_w2 ... d_wk.

One loop acts on one monomial: `_add_image` adds c times its image into
an accumulator, atom by atom.  `DiffOperator.apply` runs it on each input
term, into one accumulator, and `DiffOperator.images` once per monomial,
each into its own dict, so neither builds a polynomial per monomial.
Each operator compiles its atoms once, on its first action or product,
and that one compile serves both: the set of variables an atom
differentiates, its fermionic derivatives in the order they act, its
bosonic derivatives, the multiplier's bosonic and fermionic parts, the
coefficient, and for the atom-pair loop its word, parity and multiplier
variables.  The monomial is prepared once (its exponent
dict, fermion word and variable set), and every atom that differentiates
a variable it lacks is skipped (its image is 0).  On the others one pass
builds the image: it copies the exponent dict, lowers every bosonic
exponent a by e with the falling factorial a!/(a-e)! (zero when a < e),
raises the multiplier's exponents in the same dict and sorts it once,
pops the fermionic derivatives with the Koszul sign (-1)^pos for hopping
over the pos odd factors before each one, merges in the multiplier's
fermions (with their sign, only when it has any) and builds exactly one
monomial.  The integer sign times falling factorial scales the
term's and the atom's coefficients (ints unless a value is not integral),
so no intermediate monomial or polynomial is built and the result stays
exact.  An `ImageTable` keeps one operator's images of the monomials it
meets, for a caller that reads them many times within one computation:
a kernel solve and its re-verification, or the eta powers of one weight
block of a decomposition report, which it steps on small int ids of the
block's monomials and drops before the next block.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from superharm.algebra import (
    GradingScheme,
    LinearCombination,
    Scalar,
    SuperMonomial,
    SuperPolynomial,
    VariableId,
    _variable_groups,
    exact_scalar,
    integrate_bosonic,
    merge_signed,
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
            [(v, -e) for v, e in self.dbos],
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


class _Atom(NamedTuple):
    """One atom as `_add_image` and the atom-pair loop of `_signed_product`
    read it, compiled once per operator."""

    need: frozenset                       # the variables it differentiates
    rdferm: tuple[VariableId, ...]        # fermionic derivatives, rightmost first
    dbos: tuple[tuple[VariableId, int], ...]
    mbos: tuple[tuple[VariableId, int], ...]  # the multiplier's bosonic part
    mferm: tuple[VariableId, ...]         # the multiplier's fermionic word
    coeff: Scalar
    word: OpWord
    parity: int
    mvars: frozenset                      # the variables its multiplier carries


def _compile(w: OpWord, c: Scalar) -> _Atom:
    return _Atom(frozenset(v for v, _ in w.dbos).union(w.dferm), w.dferm[::-1],
                 w.dbos, w.mult.bos, w.mult.ferm, c, w, w.parity(),
                 frozenset(v for v, _ in w.mult.bos).union(w.mult.ferm))


def _act(atom: _Atom, bos, exps: dict, ferm) -> Optional[tuple[int, SuperMonomial]]:
    """One atom (coefficient aside) on one monomial, given as its bosonic
    pairs, their exponent dict and its fermion word, which carry every
    variable the atom differentiates: (k, image monomial) with k the integer
    sign times falling factorial, or None when the image is 0."""
    _, rdferm, dbos, mbos, mferm, _, _, _, _ = atom
    k = 1
    if dbos or mbos:
        exps = exps.copy()
        for v, e in dbos:
            a = exps[v]
            if a < e:
                return None
            k *= math.perm(a, e)
            if a == e:
                del exps[v]
            else:
                exps[v] = a - e
        for v, e in mbos:
            exps[v] = exps.get(v, 0) + e
        # a raised key may have been deleted and re-added at the end
        bos = tuple(sorted(exps.items()) if mbos else exps.items())
    if rdferm:
        ferm = list(ferm)
        for v in rdferm:
            pos = ferm.index(v)  # it hops over pos earlier odd factors
            if pos % 2:
                k = -k
            del ferm[pos]
    if mferm:
        merged = merge_signed(mferm, ferm)
        if merged is None:
            return None
        sign, ferm = merged
        k *= sign
    elif rdferm:
        ferm = tuple(ferm)
    return k, SuperMonomial(bos, ferm)


class DiffOperator(LinearCombination):
    """Normal-ordered operator: OpWord -> nonzero coefficient."""

    __slots__ = ("_compiled",)
    key_order = staticmethod(OpWord.sort_key)
    key_render = staticmethod(OpWord.render)

    # ---- constructors ----

    @staticmethod
    def zero() -> "DiffOperator":
        return DiffOperator()

    @staticmethod
    def scalar(c: Scalar) -> "DiffOperator":
        return DiffOperator({_IDENTITY_WORD: exact_scalar(c)})

    @staticmethod
    def identity() -> "DiffOperator":
        return DiffOperator.scalar(1)

    @staticmethod
    def multiplier(p: Union[SuperPolynomial, SuperMonomial]) -> "DiffOperator":
        if isinstance(p, SuperMonomial):
            return DiffOperator({OpWord(p, (), ()): 1})
        return DiffOperator({OpWord(m, (), ()): c for m, c in p.items()})

    @staticmethod
    def partial(v: VariableId, exp: int = 1) -> "DiffOperator":
        if exp < 0:
            raise ValueError("negative derivative power")
        if exp == 0:
            return DiffOperator.identity()
        if v.fermionic:
            if exp > 1:
                return DiffOperator.zero()
            return DiffOperator({OpWord(SuperMonomial.unit(), (), (v,)): 1})
        return DiffOperator({OpWord(SuperMonomial.unit(), ((v, exp),), ()): 1})

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
        return DiffOperator({OpWord(mult, db, df): exact_scalar(coeff)})

    # ---- inspection ----

    def atoms(self) -> list[tuple[OpWord, Scalar]]:
        return self.terms()

    def _compiled_atoms(self) -> list[_Atom]:
        """The atoms compiled for action and composition, built on first
        use.  They are read off `_terms`, which no operation changes after
        construction (each one builds a new operator), so they cannot go
        stale."""
        try:
            return self._compiled
        except AttributeError:
            self._compiled = [_compile(w, c) for w, c in self._terms.items()]
            return self._compiled

    # ---- action ----

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        atoms = self._compiled_atoms()
        acc: dict[SuperMonomial, Scalar] = {}
        for m, c in p.items():
            _add_image(acc, atoms, m, c)
        return SuperPolynomial(acc)

    def images(self, monos: Iterable[SuperMonomial]) -> list[dict]:
        """The image of each monomial, in order, as a {monomial:
        coefficient} dict without zero coefficients (empty when the image
        is 0); a repeated monomial gets its own dict each time."""
        atoms = self._compiled_atoms()
        out = []
        for m in monos:
            acc: dict[SuperMonomial, Scalar] = {}
            _add_image(acc, atoms, m, 1)
            out.append({u: d for u, d in acc.items() if d})
        return out


def _add_image(acc: dict, atoms: Sequence[_Atom], m: SuperMonomial,
               c: Scalar) -> None:
    """Add c times the image of the monomial m under the compiled atoms
    into acc: the one action loop, behind `apply` and `images`."""
    bos, ferm = m.bos, m.ferm
    exps = dict(bos)
    present = {*exps, *ferm}
    for atom in atoms:
        # an atom differentiating a variable m lacks sends m to 0
        if atom.need <= present:
            hit = _act(atom, bos, exps, ferm)
            if hit is not None:
                k, mono = hit
                acc[mono] = acc.get(mono, 0) + c * atom.coeff * k


class ImageTable:
    """An operator with the image of each monomial it meets computed once,
    for a caller that applies it to the same monomials many times within
    one computation: Delta on a block and on its eta images, a kernel
    solve and the re-verification of its vectors, or the eta powers of one
    weight block of a decomposition report.

    By monomials, it stores each image as the operator's `images` gives
    it, a {monomial: coefficient} dict, and computes the missing ones of a
    call in one `images` call.  `images` returns the stored dicts, so a
    kernel solve can read the table in place of the operator; `combine`
    is the operator's action, the input's coefficients times the stored
    images of its monomials, and `apply` its polynomial form.

    By ids, for a caller that applies the operator again and again to the
    few monomials of one block: `ids` gives every monomial the table meets
    a small int the first time it appears (`monos` maps an id back, and
    `vector` writes a polynomial on the ids), and `step` is the operator's
    action on {id: coefficient} dicts.  It stores each image as (id,
    coefficient) pairs and computes the missing ones of a call in one
    `images` call, so no monomial is hashed per term.  Both forms only
    grow, so a table lives as long as that one computation (one weight
    block, for the eta powers and for Delta).
    """

    def __init__(self, op: DiffOperator):
        self._op = op
        self._images: dict[SuperMonomial, dict] = {}
        self._ids: dict[SuperMonomial, int] = {}
        self.monos: list[SuperMonomial] = []
        self._rows: list[Optional[tuple]] = []

    def _fill(self, monos: Iterable[SuperMonomial]) -> dict:
        table = self._images
        missing = [m for m in monos if m not in table]
        if missing:
            table.update(zip(missing, self._op.images(missing)))
        return table

    def images(self, monos: Sequence[SuperMonomial]) -> list[dict]:
        """The stored images of monos, in order, for the caller to read
        only; the missing ones are computed in one call."""
        table = self._fill(monos)
        return [table[m] for m in monos]

    def apply(self, p: SuperPolynomial) -> SuperPolynomial:
        return SuperPolynomial(self.combine(p.items()))

    def combine(self, terms) -> dict:
        """The image of sum c * m over the (monomial m, coefficient c) pairs
        of terms (a dict's or a polynomial's `items()`), as a {monomial:
        coefficient} dict that may hold zeros."""
        table = self._fill(m for m, _ in terms)
        acc: dict[SuperMonomial, Scalar] = {}
        for m, c in terms:
            for u, d in table[m].items():
                acc[u] = acc.get(u, 0) + c * d
        return acc

    def ids(self, monos: Iterable[SuperMonomial]) -> list[int]:
        """The id of each monomial, in order, a new one for a monomial the
        table has not met."""
        ids, out = self._ids, []
        for m in monos:
            j = ids.get(m)
            if j is None:
                j = ids[m] = len(self.monos)
                self.monos.append(m)
                self._rows.append(None)
            out.append(j)
        return out

    def vector(self, p) -> dict:
        """The {id: coefficient} dict of p, a polynomial or any mapping
        with `.items()`."""
        items = p.items()
        return dict(zip(self.ids(m for m, _ in items), (c for _, c in items)))

    def step(self, vectors: Sequence[dict]) -> list[dict]:
        """The image of each {id: coefficient} dict, in order, in the same
        form without zero coefficients (empty when the image is 0).  The
        images the table lacks of all their ids are computed in one
        `images` call."""
        rows, monos = self._rows, self.monos
        missing = [j for j in {j for v in vectors for j in v} if rows[j] is None]
        if missing:
            for j, q in zip(missing, self._op.images([monos[j] for j in missing])):
                rows[j] = tuple(zip(self.ids(q), q.values()))
        out = []
        for v in vectors:
            acc: dict[int, Scalar] = {}
            for j, c in v.items():
                for k, d in rows[j]:
                    acc[k] = acc.get(k, 0) + c * d
            out.append({k: c for k, c in acc.items() if c})
        return out


# ===================================================================
# composition
# ===================================================================

def _weyl_cross(dbos, mbos):
    """Normal-order bosonic derivatives past bosonic multipliers.

    Returns a list of (integer coeff, leftover multiplier pairs,
    leftover derivative pairs).  Only the variables both sides carry are
    expanded; every other pair passes through unchanged, so disjoint sides
    give the one term (1, mbos, dbos).  The first term is always the
    uncontracted one.
    """
    md = dict(mbos)
    shared = [(v, a, md[v]) for v, a in dbos if v in md]
    if not shared:
        return [(1, mbos, dbos)]
    terms = [(1, md, dict(dbos))]
    for v, a, b in shared:
        new = []
        for k in range(0, min(a, b) + 1):
            c = math.comb(a, k) * math.perm(b, k)
            for c0, xm, dm in terms:
                nx, nd = dict(xm), dict(dm)
                if b - k:
                    nx[v] = b - k
                else:
                    del nx[v]
                if a - k:
                    nd[v] = a - k
                else:
                    del nd[v]
                new.append((c0 * c, nx, nd))
        terms = new
    # keys are only overwritten or deleted, so both stay sorted
    return [(c, tuple(xm.items()), tuple(dm.items())) for c, xm, dm in terms]


def _clifford_cross(dword, mword):
    """Normal-order a fermionic derivative word past a fermionic multiplier word.

    Both words ascending.  Returns a list of (sign, leftover multiplier word,
    leftover derivative word), using d_p m = delta_pm - m d_p.  Disjoint
    words give the one passing term, with sign (-1)^(|dword| |mword|).  The
    first term is always the one where every derivative passes.
    """
    if set(dword).isdisjoint(mword):
        return [(-1 if len(dword) * len(mword) % 2 else 1, mword, dword)]
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


def _add_product(acc: dict, wa: OpWord, wb: OpWord, coeff: Scalar,
                 leading: bool) -> None:
    """Add coeff * wa∘wb, normal-ordered, into acc.  The first term of each
    cross is the one that passes without contraction, so their first pair
    is the uncontracted (leading) term; it is left out unless leading."""
    ferm_terms = _clifford_cross(wa.dferm, wb.mult.ferm)
    for i, (wcoeff, xleft, dbleft) in enumerate(_weyl_cross(wa.dbos, wb.mult.bos)):
        for fsign, mleft, dfleft in ferm_terms if i or leading else ferm_terms[1:]:
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
            acc[word] = acc.get(word, 0) + coeff * (wcoeff * fsign * msign * dsign)


def _signed_product(a: DiffOperator, b: DiffOperator,
                    graded: bool) -> DiffOperator:
    """a∘b, or when graded the sum over atom pairs of wa∘wb -
    (-1)^{|wa||wb|} wb∘wa: the one atom-pair loop behind compose and
    super_commutator, over both factors' compiled atoms.  Graded, the
    uncontracted terms cancel and are never built, and an order whose
    derivatives meet none of the other atom's multipliers, which has no
    other term, is skipped before any cross."""
    acc: dict[OpWord, Scalar] = {}
    b_atoms = b._compiled_atoms()
    for da, _, _, _, _, ca, wa, pa, ma in a._compiled_atoms():
        for db, _, _, _, _, cb, wb, pb, mb in b_atoms:
            base = ca * cb
            if not graded:
                _add_product(acc, wa, wb, base, True)
                continue
            if not da.isdisjoint(mb):
                _add_product(acc, wa, wb, base, False)
            if not db.isdisjoint(ma):
                _add_product(acc, wb, wa, base if pa and pb else -base, False)
    return DiffOperator(acc)


def compose(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Normal-ordered product a∘b (a acts after b).

    Each atom pair gives its uncontracted term, the atoms' words multiplied
    as in a supercommutative algebra, plus one term per contraction where
    a's derivatives meet b's multipliers.
    """
    return _signed_product(a, b, False)


def super_commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """[a, b] = ab - (-1)^{|a||b|} ba, extended bilinearly over parity
    parts: each atom pair takes its own sign, so no uncontracted term is
    built."""
    return _signed_product(a, b, True)


def twist(op: DiffOperator, scheme: GradingScheme) -> DiffOperator:
    """Image of op under the Weyl-algebra automorphism of a twisted scheme:
    v -> d_v and d_v -> -v for v in x_1..x_{n1} and y_{n2+1}..y_n; every
    other variable (x0 and the fermions included) is fixed.

    An atom m * u * d_w * d, with u and d_w its swapped multipliers and
    derivatives, maps to (-1)^deg(w) m * d_u * w * d; one compose per atom
    normal-orders d_u past w.
    """
    neg_x, _, _, neg_y = _variable_groups(scheme)
    swapped = set(neg_x + neg_y)
    out = DiffOperator.zero()
    for w, c in op._terms.items():
        to_derive = [(v, e) for v, e in w.mult.bos if v in swapped]
        to_multiply = [(v, e) for v, e in w.dbos if v in swapped]
        sign = -1 if sum(e for _, e in to_multiply) % 2 else 1
        kept = tuple((v, e) for v, e in w.mult.bos if v not in swapped)
        left = DiffOperator.word(c * sign, SuperMonomial(kept, w.mult.ferm),
                                 to_derive, ())
        right = DiffOperator.word(
            1, SuperMonomial(tuple(to_multiply), ()),
            [(v, e) for v, e in w.dbos if v not in swapped], w.dferm)
        out = out + compose(left, right)
    return out


# ===================================================================
# named operators
# ===================================================================

def _atom(coeff: Scalar, mults: Sequence[VariableId] = (),
          derivs: Sequence[VariableId] = ()) -> DiffOperator:
    """coeff times the product of the variables `mults`, then of the
    derivatives by the variables `derivs`: the one builder of an atom from
    variable lists, where a repeated bosonic variable raises its power and
    the fermionic ones are put in ascending order."""
    dbos: dict[VariableId, int] = {}
    for v in derivs:
        if not v.fermionic:
            dbos[v] = dbos.get(v, 0) + 1
    return DiffOperator.word(
        coeff, SuperMonomial.make([(v, 1) for v in mults if not v.fermionic],
                                  [v for v in mults if v.fermionic]),
        dbos.items(), sorted(v for v in derivs if v.fermionic))


def number_operator(plus: Iterable[VariableId],
                    minus: Iterable[VariableId] = ()) -> DiffOperator:
    """The signed Euler operator: the sum of v * d_v over `plus` minus the
    same sum over `minus`."""
    return sum((_atom(sign, [v], [v]) for sign, variables in ((1, plus), (-1, minus))
                for v in variables), DiffOperator.zero())


def _pair_sum(pairs: Iterable[tuple[VariableId, VariableId]],
              derivative: bool) -> DiffOperator:
    """The sum over the pairs (u, v) of the multiplier u*v or, when
    `derivative`, of d_u d_v."""
    return sum((_atom(1, (), pair) if derivative else _atom(1, pair) for pair in pairs),
               DiffOperator.zero())


def named_operator(name: str, scheme: GradingScheme) -> DiffOperator:
    """Build one of the distinguished operators for a scheme.

    Names (case-insensitive): DELTA, ETA, DELTA_BAR, ETA_BAR, DELTA_CHECK,
    ETA_CHECK, FLAT, FLAT_PRIME.  The DELTA names sum d_u d_v and the ETA
    names the multipliers u*v over the pairs (x_i, y_i) (BAR), (th_r, vt_r)
    (CHECK) or both.  For the x0 schemes DELTA/ETA are the ladder versions
    d_x0^2 + 2*Delta and x0^2 + 2*eta.  On a twisted scheme DELTA, ETA and
    their bar parts are the twists of the natural ones; the check parts
    involve only fermions, which the twist fixes.  FLAT and FLAT_PRIME are
    the twisted schemes' signed Euler operators on the x and the y
    variables, + on the variables the twist keeps, - on those it swaps.
    """
    key = name.strip().upper()
    if key in ("FLAT", "FLAT_PRIME"):
        if not scheme.is_twisted:
            raise ValueError(f"{key} exists only for twisted schemes")
        neg_x, pos_x, pos_y, neg_y = _variable_groups(scheme)
        if key == "FLAT":
            return number_operator(pos_x, neg_x)
        return number_operator(pos_y, neg_y)
    derivative = key.startswith("DELTA")
    bar = [(x(i), y(i)) for i in range(1, scheme.n + 1)]
    check = [(theta(r), vartheta(r)) for r in range(1, scheme.m + 1)]
    if key in ("DELTA_CHECK", "ETA_CHECK"):
        return _pair_sum(check, derivative)
    if key in ("DELTA_BAR", "ETA_BAR"):
        op = _pair_sum(bar, derivative)
    elif key in ("DELTA", "ETA"):
        op = _pair_sum(bar + check, derivative)
        if scheme.has_x0:
            op = _pair_sum([(x0(), x0())], derivative) + op.scale(2)
    else:
        raise ValueError(f"unknown operator name {name!r}")
    return twist(op, scheme) if scheme.is_twisted else op


# ===================================================================
# the series solver
# ===================================================================

def xu_solve(
    scheme: GradingScheme,
    delta: DiffOperator,
    steps: Sequence[tuple[VariableId, int]],
    seeds: Sequence[SuperPolynomial],
) -> list[SuperPolynomial]:
    """Complete each seed in ker t1 to a solution of delta(f) = 0, delta the
    scheme's Delta: the alternating series sum_i (-t1^-1 t2)^i (seed), t1 the
    derivative product `steps`, t2 = delta - t1, t1^-1 exact integration
    along the same steps.

    Checked: the integration is a right inverse of t1 where it is used; each
    term strictly lowers the filtration measure (twice the degree outside
    `steps`, plus one per power of y_i, i <= n1, and of x_s, s > n2, on a
    twisted scheme: those the twisted Delta's -x_i d_y_i and -y_s d_x_s atoms
    lower at fixed degree); the series ends within its termination bound;
    Delta annihilates every output.
    """
    t1 = DiffOperator.word(1, SuperMonomial.unit(), steps)
    t2 = delta - t1
    weight: dict[VariableId, int] = {}  # per power; 2 for every other variable
    if scheme.is_twisted:
        weight.update((y(i), 3) for i in range(1, scheme.n1 + 1))
        weight.update((x(s), 3) for s in range(scheme.n2 + 1, scheme.n + 1))
    weight.update((v, 0) for v, _ in steps)

    def measure(p: SuperPolynomial) -> int:
        return max((sum(weight.get(v, 2) * e for v, e in mono.bos)
                    + 2 * len(mono.ferm) for mono, _ in p.items()), default=-1)

    out = []
    for u in seeds:
        total = u
        prev = measure(u)
        for _ in range(max(u.degree(), 0) + 2):
            w = t2.apply(u)
            if w.is_zero():
                break
            v = w
            for var, e in steps:
                for _ in range(e):
                    v = integrate_bosonic(v, var)
            if t1.apply(v) != w:
                raise FiltrationError("integration is not a right inverse of t1 here")
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
        if not delta.apply(total).is_zero():
            raise FiltrationError("xu_solve output not annihilated; bad seeds")
        out.append(total)
    return out
