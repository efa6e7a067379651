"""KL table lookups by permutation, mu on tableaux, cellular matrices
multiplied out along a reduced word, and KL immanants one pair at a time."""

from __future__ import annotations

from typing import Optional

from cyclosieve.klcells import KLTable, _cell_basis, _cell_table, _generator_matrix
from cyclosieve.klcells import _identity_matrix, _mat_mul, kl_table
from cyclosieve.permutations import Permutation, rsk_inverse
from cyclosieve.qpolys import IntPolynomial
from cyclosieve.tableaux import Composition, Partition, Tableau, css

from .permutations import left_descents, length


def leq(table: KLTable, u: Permutation, w: Permutation) -> bool:
    return bool(table._leq[table._idx(u), table._idx(w)])


def poly(table: KLTable, u: Permutation, w: Permutation) -> IntPolynomial:
    return IntPolynomial(table._coeffs(table._idx(u), table._idx(w)))


def mu_tableaux(p: Tableau, q: Tableau, table: Optional[KLTable] = None) -> int:
    """The common value mu[(T,p),(T,q)] for any same-shape recording tableau T,
    read with T = css(shape), by default from the table over its coset maxima."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have the same shape")
    if table is None:
        table = _cell_table(p.shape)
    t = css(p.shape)
    wp = rsk_inverse(p, t)
    wq = rsk_inverse(q, t)
    return table.mu_sym(wp, wq)


def representation_matrix(shape: Partition, w: Permutation) -> tuple[tuple[int, ...], ...]:
    """Matrix of w on the cellular module, multiplied out along a reduced word."""
    shape = Partition(shape)
    w = Permutation(w)
    _, _, descents, mu = _cell_basis(shape, _cell_table(shape))
    result = _identity_matrix(len(descents))
    current = w
    while length(current):
        i = min(left_descents(current))
        if i >= shape.size:
            raise ValueError(f"generator index {i} out of range for n={shape.size}")
        result = _mat_mul(result, _generator_matrix(descents, mu, i))
        # peel s_i off the left: current = s_i * current
        current = Permutation(
            tuple(i + 1 if v == i else i if v == i + 1 else v for v in current)
        )
    return result


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
    perms = table.perms
    terms: dict[tuple[tuple[int, int], ...], int] = {}
    vs, coeffs = table._signed_support(table._idx(w))
    for v, coeff in zip(vs.tolist(), coeffs.tolist()):
        mono = tuple(sorted(zip(rows, [cols[x - 1] for x in perms[v]])))
        terms[mono] = terms.get(mono, 0) + coeff
    return Immanant(terms)
