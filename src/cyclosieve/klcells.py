"""Kazhdan-Lusztig polynomials, the mu function, cellular matrices, and
KL immanants for small symmetric groups.

The table is built along increasing length with the descent recursion
P_{u,w} = q^(1-c) P_{su,sw} + q^c P_{u,sw} - sum mu(z,sw) q^((l(w)-l(z))/2) P_{u,z},
taking the smallest left descent of w each time.  Bruhat comparability uses
the rank-table criterion, vectorized over the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations as _itertools_permutations
from typing import Optional

import numpy as np

from .jeudetaquin import is_semistandardizable, promote
from .permutations import Permutation, long_element, rsk, rsk_inverse
from .qpolys import IntPolynomial
from .tableaux import Composition, Partition, Tableau, css, descent_set, enumerate_syt, extended_descent_set

DEFAULT_RANK_CAP = 6

_Coeffs = tuple[int, ...]
_ONE: _Coeffs = (1,)
_ZERO: _Coeffs = ()


def _padd(a: _Coeffs, b: _Coeffs) -> _Coeffs:
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))


def _psub(a: _Coeffs, b: _Coeffs) -> _Coeffs:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _pshift(a: _Coeffs, k: int) -> _Coeffs:
    return ((0,) * k + a) if a else a


def _pscale(a: _Coeffs, c: int) -> _Coeffs:
    return tuple(x * c for x in a) if c else ()


class KLTable:
    """All Kazhdan-Lusztig polynomials P_{u,w} for a fixed S_n."""

    def __init__(self, n: int):
        self.n = n
        perms = sorted(
            _itertools_permutations(range(1, n + 1)),
            key=lambda p: (sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]), p),
        )
        self.perms: list[tuple[int, ...]] = [tuple(p) for p in perms]
        self.index: dict[tuple[int, ...], int] = {p: i for i, p in enumerate(self.perms)}
        self.lengths = [
            sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]) for p in self.perms
        ]
        rank = np.empty((len(self.perms), n * n), dtype=np.int8)
        for idx, p in enumerate(self.perms):
            row = []
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    row.append(sum(1 for a in range(i) if p[a] >= j))
            rank[idx] = row
        # column-blocked comparison keeps the peak memory linear in the group
        self._leq = np.empty((len(self.perms), len(self.perms)), dtype=bool)
        for w in range(len(self.perms)):
            self._leq[:, w] = np.all(rank <= rank[w], axis=1)
        # left descent bitmask: bit i-1 set iff i+1 precedes i in one-line order
        self._ldesc = []
        for p in self.perms:
            pos = {v: a for a, v in enumerate(p)}
            mask = 0
            for i in range(1, n):
                if pos[i] > pos[i + 1]:
                    mask |= 1 << (i - 1)
            self._ldesc.append(mask)
        self._polys: dict[tuple[int, int], _Coeffs] = {}
        self._mu_lists: dict[int, tuple[tuple[int, int], ...]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _swap_values(self, idx: int, i: int) -> int:
        """Index of s_i * w (values i and i+1 exchanged)."""
        p = self.perms[idx]
        swapped = tuple(i + 1 if v == i else i if v == i + 1 else v for v in p)
        return self.index[swapped]

    def _coeffs(self, u: int, w: int) -> _Coeffs:
        if u == w:
            return _ONE
        if not self._leq[u, w]:
            return _ZERO
        # only polynomials different from 1 are stored
        return self._polys.get((u, w), _ONE)

    def _build(self) -> None:
        leq = self._leq
        lengths = self.lengths
        ldesc = self._ldesc
        for w, pw in enumerate(self.perms):
            if lengths[w] == 0:
                self._mu_lists[w] = ()
                continue
            i = (ldesc[w] & -ldesc[w]).bit_length()  # smallest left descent
            v = self._swap_values(w, i)
            bit = 1 << (i - 1)
            mu_v = [
                (z, mu, (lengths[w] - lengths[z]) // 2)
                for z, mu in self._mu_lists[v]
                if ldesc[z] & bit
            ]
            below = np.nonzero(leq[:, w])[0]
            lw = lengths[w]
            mus: list[tuple[int, int]] = []
            for u in below:
                u = int(u)
                if u == w:
                    continue
                su = self._swap_values(u, i)
                c = 1 if ldesc[u] & bit else 0
                total = _padd(
                    _pshift(self._coeffs(su, v), 1 - c),
                    _pshift(self._coeffs(u, v), c),
                )
                for z, mu, half in mu_v:
                    if leq[u, z]:
                        total = _psub(total, _pshift(_pscale(self._coeffs(u, z), mu), half))
                bound = (lw - lengths[u] - 1) // 2
                if len(total) - 1 > bound:
                    raise AssertionError(
                        f"degree bound violated at {self.perms[u]} <= {pw}: {total}"
                    )
                if total != _ONE:
                    self._polys[(u, w)] = total
                if (lw - lengths[u]) % 2 == 1:
                    mu_val = total[bound] if bound < len(total) else 0
                    if mu_val:
                        mus.append((u, mu_val))
            self._mu_lists[w] = tuple(mus)

    # -- queries ------------------------------------------------------------

    def _idx(self, w: Permutation) -> int:
        try:
            return self.index[tuple(w)]
        except KeyError:
            raise ValueError(f"{w} is not a permutation of [{self.n}]") from None

    def leq(self, u: Permutation, w: Permutation) -> bool:
        return bool(self._leq[self._idx(u), self._idx(w)])

    def poly(self, u: Permutation, w: Permutation) -> IntPolynomial:
        return IntPolynomial(self._coeffs(self._idx(u), self._idx(w)))

    def mu(self, u: Permutation, w: Permutation) -> int:
        """Directed mu(u, w): top allowed coefficient of P_{u,w}."""
        ui, wi = self._idx(u), self._idx(w)
        diff = self.lengths[wi] - self.lengths[ui]
        if diff <= 0 or diff % 2 == 0 or not self._leq[ui, wi]:
            return 0
        coeffs = self._coeffs(ui, wi)
        bound = (diff - 1) // 2
        return coeffs[bound] if bound < len(coeffs) else 0

    def mu_sym(self, u: Permutation, w: Permutation) -> int:
        return max(self.mu(u, w), self.mu(w, u))

    def comparable_pairs(self) -> int:
        return int(self._leq.sum())

    def dump_triples(self) -> list[dict]:
        """JSON-friendly {u, v, coeffs} triples over all comparable pairs."""
        out = []
        for w in range(len(self.perms)):
            for u in np.nonzero(self._leq[:, w])[0]:
                u = int(u)
                if u == w:
                    continue
                out.append(
                    {
                        "u": list(self.perms[u]),
                        "v": list(self.perms[w]),
                        "coeffs": list(self._coeffs(u, w)),
                    }
                )
        return out


@cache
def kl_table(n: int, allow_large: bool = False) -> KLTable:
    """Build (and memoize) the KL table for S_n; rank 7 sits behind a flag."""
    if n > DEFAULT_RANK_CAP and not allow_large:
        raise ValueError(
            f"rank {n} exceeds the default cap {DEFAULT_RANK_CAP}; pass allow_large=True "
            "(--allow-large on the command line)"
        )
    if n > 7:
        raise ValueError("ranks above 7 are not supported")
    return KLTable(n)


# -- mu on tableaux and cellular matrices -----------------------------------


def mu_tableaux(p: Tableau, q: Tableau, table: Optional[KLTable] = None) -> int:
    """The common value mu[(T,p),(T,q)] for any same-shape recording tableau T."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have the same shape")
    if table is None:
        table = kl_table(p.size)
    t = enumerate_syt(p.shape)[0]
    wp = rsk_inverse(p, t)
    wq = rsk_inverse(q, t)
    return table.mu_sym(wp, wq)


@cache
def _mu_matrix(shape: Partition) -> tuple[tuple[int, ...], ...]:
    basis = enumerate_syt(shape)
    table = kl_table(Partition(shape).size)
    t = basis[0]
    words = [rsk_inverse(p, t) for p in basis]
    return tuple(
        tuple(table.mu_sym(words[a], words[b]) for b in range(len(basis)))
        for a in range(len(basis))
    )


@dataclass(frozen=True)
class CellMatrix:
    """The action of a Coxeter generator on the cellular module of a shape."""

    shape: Partition
    generator_index: int
    matrix: tuple[tuple[int, ...], ...]


def cell_generator_matrix(shape: Partition, i: int) -> CellMatrix:
    """Matrix of s_i on the cellular module, in the canonical SYT basis.

    Entry (r, c) is the coefficient of basis tableau r in s_i applied to
    basis tableau c: -1 on the diagonal at descents, otherwise +1 plus
    mu-coupled off-diagonal terms at tableaux having i as a descent.
    """
    shape = Partition(shape)
    n = shape.size
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    basis = enumerate_syt(shape)
    descents = [descent_set(t) for t in basis]
    mu = _mu_matrix(shape)
    dim = len(basis)
    matrix = [[0] * dim for _ in range(dim)]
    for col in range(dim):
        if i in descents[col]:
            matrix[col][col] = -1
        else:
            matrix[col][col] = 1
            for row in range(dim):
                if row != col and i in descents[row]:
                    matrix[row][col] = mu[col][row]
    return CellMatrix(shape, i, tuple(tuple(r) for r in matrix))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def _identity_matrix(n: int):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def representation_matrix(shape: Partition, w: Permutation) -> tuple[tuple[int, ...], ...]:
    """Matrix of w on the cellular module, multiplied out along a reduced word."""
    shape = Partition(shape)
    w = Permutation(w)
    result = _identity_matrix(len(enumerate_syt(shape)))
    current = w
    while current.length():
        i = min(current.left_descents())
        result = _mat_mul(result, cell_generator_matrix(shape, i).matrix)
        # peel s_i off the left: current = s_i * current
        current = Permutation(
            tuple(i + 1 if v == i else i if v == i + 1 else v for v in current)
        )
    return result


# -- long-cycle promotion identity verification ------------------------------


@dataclass
class PromotionMatrixReport:
    shape: Partition
    sign: int
    long_cycle_matches: bool
    affine_generator_matches: bool
    kl_basis_coefficient: int
    kl_basis_coefficient_matches: bool

    @property
    def ok(self) -> bool:
        return (
            self.long_cycle_matches
            and self.affine_generator_matches
            and self.kl_basis_coefficient_matches
        )

    def to_dict(self) -> dict:
        return {
            "family": "kl-promotion-identity",
            "parameters": {"shape": list(self.shape)},
            "sign": self.sign,
            "long_cycle_matches": self.long_cycle_matches,
            "affine_generator_matches": self.affine_generator_matches,
            "kl_basis_coefficient": self.kl_basis_coefficient,
            "kl_basis_coefficient_matches": self.kl_basis_coefficient_matches,
            "verdict": self.ok,
        }


def _kl_basis_long_cycle_coefficient(shape: Partition, table: KLTable) -> int:
    """Coefficient of the promoted superstandard KL basis element after
    multiplying C'_u(1) by the long cycle.

    The basis element is expanded in the group basis, every permutation is
    composed with the long cycle (applied after it, i.e. entries shift by one
    cyclically), and the result is re-expressed in the KL basis by peeling
    Bruhat-maximal support elements.
    """
    n = Partition(shape).size
    base = css(shape)
    u = rsk_inverse(base, base)
    v = rsk_inverse(promote(base, n), base)
    ui = table._idx(u)
    coeffs: dict[int, int] = {}
    for x in np.nonzero(table._leq[:, ui])[0]:
        x = int(x)
        sign = (-1) ** (table.lengths[ui] - table.lengths[x])
        value = sign * sum(table._coeffs(x, ui))
        if value:
            shifted = tuple(w % n + 1 for w in table.perms[x])
            xc = table.index[shifted]
            coeffs[xc] = coeffs.get(xc, 0) + value
    target = table._idx(v)
    result = 0
    while coeffs:
        y = max(coeffs, key=lambda idx: (table.lengths[idx], idx))
        gamma = coeffs.pop(y)
        if gamma == 0:
            continue
        if y == target:
            result = gamma
        for z in np.nonzero(table._leq[:, y])[0]:
            z = int(z)
            if z == y:
                continue
            sign = (-1) ** (table.lengths[y] - table.lengths[z])
            value = gamma * sign * sum(table._coeffs(z, y))
            if value:
                coeffs[z] = coeffs.get(z, 0) - value
                if coeffs[z] == 0:
                    del coeffs[z]
    return result


def verify_promotion_identity(
    shape: Partition, allow_large: bool = False, cap: Optional[int] = None
) -> PromotionMatrixReport:
    """Check rho(c_n) = (-1)^(a-1) J on the cellular module of a rectangle.

    Also checks the induced formula for the affine generator (1, n) against
    extended descents, and the KL-basis coefficient pinned by the
    superstandard tableau computation.
    """
    shape = Partition(shape)
    if not shape.is_rectangular():
        raise ValueError("the promotion identity concerns rectangular shapes")
    n = shape.size
    a = len(shape)
    basis = enumerate_syt(shape, cap=cap)
    table = kl_table(n, allow_large=allow_large)
    idx = {t: i for i, t in enumerate(basis)}
    dim = len(basis)
    sign = (-1) ** (a - 1)

    gens = {i: cell_generator_matrix(shape, i).matrix for i in range(1, n)} if n > 1 else {}
    rho_cn = _identity_matrix(dim)
    for i in range(1, n):
        rho_cn = _mat_mul(rho_cn, gens[i])

    jmat = [[0] * dim for _ in range(dim)]
    for t in basis:
        jmat[idx[promote(t, n)]][idx[t]] = 1
    expected = tuple(tuple(sign * x for x in row) for row in jmat)
    long_cycle_matches = rho_cn == expected

    # rho(s_n) = rho(c_n) rho(s_{n-1}) rho(c_n)^{-1}; compare with the
    # extended-descent formula.
    if n > 1:
        inv_rho_cn = tuple(tuple(sign * jmat[c][r] for c in range(dim)) for r in range(dim))
        rho_sn = _mat_mul(_mat_mul(rho_cn, gens[n - 1]), inv_rho_cn)
        mu = _mu_matrix(shape)
        exts = [extended_descent_set(t) for t in basis]
        predicted = [[0] * dim for _ in range(dim)]
        for col in range(dim):
            if n in exts[col]:
                predicted[col][col] = -1
            else:
                predicted[col][col] = 1
                for row in range(dim):
                    if row != col and n in exts[row]:
                        predicted[row][col] = mu[col][row]
        affine_matches = rho_sn == tuple(tuple(r) for r in predicted)
    else:
        affine_matches = True

    coefficient = _kl_basis_long_cycle_coefficient(shape, table) if n > 1 else sign
    return PromotionMatrixReport(
        shape=shape,
        sign=sign,
        long_cycle_matches=long_cycle_matches,
        affine_generator_matches=affine_matches,
        kl_basis_coefficient=coefficient,
        kl_basis_coefficient_matches=coefficient == sign,
    )


# -- mu invariance under promotion -------------------------------------------


@dataclass
class MuInvarianceReport:
    shape: Partition
    pairs_checked: int
    failures: tuple[tuple[Tableau, Tableau, int, int], ...]

    @property
    def holds(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "family": "kl-mu-invariance",
            "parameters": {"shape": list(self.shape)},
            "pairs_checked": self.pairs_checked,
            "failures": [
                {
                    "p": [list(r) for r in p.rows],
                    "q": [list(r) for r in q.rows],
                    "mu": before,
                    "mu_after_promotion": after,
                }
                for p, q, before, after in self.failures
            ],
            "verdict": self.holds,
        }


def mu_promotion_invariance(
    shape: Partition, allow_large: bool = False, cap: Optional[int] = None
) -> MuInvarianceReport:
    """Exhaustively compare mu[P,Q] with mu[j(P),j(Q)] over a shape."""
    shape = Partition(shape)
    n = shape.size
    basis = enumerate_syt(shape, cap=cap)
    table = kl_table(n, allow_large=allow_large)
    mu_of = {}
    t0 = basis[0]
    words = {t: rsk_inverse(t, t0) for t in basis}
    failures = []
    pairs = 0
    for a, p in enumerate(basis):
        for q in basis[a + 1:]:
            pairs += 1
            before = table.mu_sym(words[p], words[q])
            jp, jq = promote(p, n), promote(q, n)
            after = table.mu_sym(words[jp], words[jq])
            if before != after:
                failures.append((p, q, before, after))
    return MuInvarianceReport(shape=shape, pairs_checked=pairs, failures=tuple(failures))


# -- KL immanants and the vanishing criterion --------------------------------


class Immanant:
    """A multivariate polynomial in commuting variables x[a,b].

    Stored as a map from sorted variable multisets to integer coefficients,
    which makes equality-to-zero testing immediate.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[tuple[tuple[int, int], ...], int]] = None):
        cleaned = {m: c for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Immanant is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Immanant") -> "Immanant":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Immanant(out)

    def __sub__(self, other: "Immanant") -> "Immanant":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Immanant(out)

    def scale(self, c: int) -> "Immanant":
        return Immanant({m: c * x for m, x in self.terms.items()})

    def swap_rows(self, i: int) -> "Immanant":
        """Exchange row indices i and i+1 in every variable."""

        def sw(a: int) -> int:
            return i + 1 if a == i else i if a == i + 1 else a

        out: dict[tuple[tuple[int, int], ...], int] = {}
        for m, c in self.terms.items():
            key = tuple(sorted((sw(a), b) for a, b in m))
            out[key] = out.get(key, 0) + c
        return Immanant(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Immanant) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"x{a}{b}" for a, b in m)
            pieces.append(f"{'+' if c > 0 else '-'} {abs(c) if abs(c) != 1 else ''}{mono}")
        return " ".join(pieces).lstrip("+ ")


def kl_immanant(
    w: Permutation,
    alpha: Composition,
    beta: Composition,
    table: Optional[KLTable] = None,
) -> Immanant:
    """Imm_w applied to the repeated-row/column matrix x_{alpha, beta}."""
    w = Permutation(w)
    n = len(w)
    alpha, beta = Composition(alpha), Composition(beta)
    if alpha.size != n or beta.size != n:
        raise ValueError("compositions must have size n")
    if table is None:
        table = kl_table(n)
    rows = alpha.labels()
    cols = beta.labels()
    wo = long_element(n)
    wow = wo * w
    lw = w.length()
    terms: dict[tuple[tuple[int, int], ...], int] = {}
    for v in map(Permutation, _itertools_permutations(range(1, n + 1))):
        if not table.leq(w, v):
            continue
        coeff = sum(table._coeffs(table._idx(wo * v), table._idx(wow)))
        if not coeff:
            continue
        coeff *= (-1) ** (v.length() - lw)
        mono = tuple(sorted((rows[i], cols[v[i] - 1]) for i in range(n)))
        terms[mono] = terms.get(mono, 0) + coeff
    return Immanant(terms)


@dataclass
class VanishingReport:
    n: int
    cases_checked: int
    mismatches: tuple[tuple[Permutation, Composition], ...]
    note: str = (
        "the content labelling is read off the rows of the repeated-row matrix "
        "itself, which is the only reading consistent with the vanishing rule"
    )

    @property
    def holds(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "family": "kl-immanant-vanishing",
            "parameters": {"n": self.n},
            "cases_checked": self.cases_checked,
            "mismatches": [
                {"w": list(w), "alpha": list(a)} for w, a in self.mismatches
            ],
            "note": self.note,
            "verdict": self.holds,
        }


def _compositions(total: int, max_len: int) -> list[Composition]:
    """All compositions of ``total`` into positive parts, length <= max_len."""
    out: list[Composition] = []

    def rec(remaining: int, parts: list[int]) -> None:
        if remaining == 0:
            out.append(Composition(parts))
            return
        if len(parts) == max_len:
            return
        for p in range(1, remaining + 1):
            parts.append(p)
            rec(remaining - p, parts)
            parts.pop()

    rec(total, [])
    return out


def vanishing_criterion_check(
    n: int, table: Optional[KLTable] = None, allow_large: bool = False
) -> VanishingReport:
    """Imm_w(x_{alpha,1^n}) = 0 iff the recording tableau is not
    alpha-semistandardizable, checked over all w and alpha."""
    if table is None:
        table = kl_table(n, allow_large=allow_large)
    ones = Composition((1,) * n)
    mismatches = []
    cases = 0
    for w in map(Permutation, _itertools_permutations(range(1, n + 1))):
        q = rsk(w)[1]
        for alpha in _compositions(n, n):
            cases += 1
            vanishes = kl_immanant(w, alpha, ones, table).is_zero()
            if vanishes == is_semistandardizable(q, alpha):
                mismatches.append((w, alpha))
    return VanishingReport(n=n, cases_checked=cases, mismatches=tuple(mismatches))
