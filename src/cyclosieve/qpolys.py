"""Integer polynomials in q and the q-analogues used by the sieving checks.

IntPolynomial is a dense, immutable, arbitrary-precision integer polynomial.
Exact division is the only division offered: the quotients taken here
(q-hook formula, q-Catalan, cyclotomic factors) are theorems, so a nonzero
remainder is an internal error rather than bad input.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from typing import Iterable, Optional, Sequence

from .tableaux import Composition, Partition, Tableau, enumerate_cst, hook_lengths


class IntPolynomial:
    """Dense integer polynomial; index i holds the coefficient of q^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def q(cls) -> "IntPolynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> "IntPolynomial":
        return cls((0,) * exponent + (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coefficient(self, exponent: int) -> int:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return 0

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial(tuple(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, exponent: int) -> "IntPolynomial":
        """Multiply by q**exponent; negative exponents must divide exactly."""
        if exponent >= 0:
            return IntPolynomial((0,) * exponent + self.coeffs)
        if any(self.coeffs[:-exponent]):
            raise ValueError(f"q^{-exponent} does not divide {self}")
        return IntPolynomial(self.coeffs[-exponent:])

    def divmod(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division; the divisor must have leading coefficient +/-1."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coeffs[-1]
        if lead not in (1, -1):
            raise ValueError("division requires a divisor with unit leading coefficient")
        rem = list(self.coeffs)
        dn = len(divisor.coeffs)
        if len(rem) < dn:
            return IntPolynomial(()), IntPolynomial(rem)
        quot = [0] * (len(rem) - dn + 1)
        for top in range(len(rem) - 1, dn - 2, -1):
            c = rem[top]
            if c == 0:
                continue
            factor = c * lead  # lead is a unit
            pos = top - dn + 1
            quot[pos] = factor
            for j, d in enumerate(divisor.coeffs):
                rem[pos + j] -= factor * d
        return IntPolynomial(quot), IntPolynomial(rem)

    def exact_div(self, divisor: "IntPolynomial") -> "IntPolynomial":
        quotient, remainder = self.divmod(divisor)
        if not remainder.is_zero():
            raise AssertionError(f"inexact division: {self} by {divisor}")
        return quotient

    def __call__(self, value):
        """Horner evaluation at an int, Fraction, or ring element."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    terms.append(q)
                elif c == -1:
                    terms.append(f"-{q}")
                else:
                    terms.append(f"{c}*{q}")
        return " + ".join(terms).replace("+ -", "- ")


def q_int(n: int) -> IntPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q-integers need n >= 0")
    return IntPolynomial((1,) * n)


@cache
def q_factorial(n: int) -> IntPolynomial:
    if n < 0:
        raise ValueError("q-factorials need n >= 0")
    if n == 0:
        return IntPolynomial.one()
    return q_factorial(n - 1) * q_int(n)


def q_binomial(n: int, k: int) -> IntPolynomial:
    if not 0 <= k <= n:
        raise ValueError(f"q-binomial needs 0 <= k <= n, got ({n}, {k})")
    return q_factorial(n).exact_div(q_factorial(k)).exact_div(q_factorial(n - k))


def q_hook_formula(shape: Partition) -> IntPolynomial:
    """The q-analogue of the hook length formula, [n]!_q / prod [h_ij]_q."""
    shape = Partition(shape)
    numerator = q_factorial(shape.size)
    denominator = reduce(
        lambda acc, h: acc * q_int(h), hook_lengths(shape).values(), IntPolynomial.one()
    )
    return numerator.exact_div(denominator)


def kappa(shape: Partition) -> int:
    """0*l_1 + 1*l_2 + 2*l_3 + ...; equals b*a*(a-1)/2 on an a-row rectangle b^a."""
    return sum(i * part for i, part in enumerate(Partition(shape)))


def content_weight(alpha: Composition) -> int:
    return sum(i * part for i, part in enumerate(alpha))


def schur_principal_specialization(shape: Partition, k: int, cap: Optional[int] = None) -> IntPolynomial:
    """s_shape(1, q, ..., q^(k-1)) summed over column-strict tableaux."""
    shape = Partition(shape)
    coeffs: dict[int, int] = {}
    for t in enumerate_cst(shape, k, cap=cap):
        w = content_weight(t.content(k))
        coeffs[w] = coeffs.get(w, 0) + 1
    if not coeffs:
        return IntPolynomial.zero()
    out = [0] * (max(coeffs) + 1)
    for w, c in coeffs.items():
        out[w] = c
    return IntPolynomial(out)


def schur_evaluate(shape: Partition, values: Sequence, cap: Optional[int] = None):
    """s_shape(values), summed tableau by tableau; works over any commutative ring."""
    shape = Partition(shape)
    k = len(values)
    total = 0
    for t in enumerate_cst(shape, k, cap=cap):
        term = 1
        for value, mult in zip(values, t.content(k)):
            for _ in range(mult):
                term = term * value
        total = total + term
    return total


def charge(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Standard subwords are extracted scanning right to left, wrapping
    cyclically; the index of a letter grows by one each time the scan wraps.
    """
    word = tuple(int(x) for x in word)
    if not word:
        return 0
    k = max(word)
    counts = [word.count(v) for v in range(1, k + 1)]
    if any(counts[i] < counts[i + 1] for i in range(k - 1)) or 0 in counts:
        raise ValueError(f"charge needs partition content, got {counts}")
    used = [False] * len(word)
    total = 0
    remaining = len(word)
    while remaining:
        # positions still available, scanned right to left
        pos = len(word) - 1
        target = 1
        index = 0
        largest = max(
            v for v in range(1, k + 1)
            if sum(1 for i, x in enumerate(word) if not used[i] and x == v) > 0
        )
        while target <= largest:
            scanned = 0
            while True:
                if not used[pos] and word[pos] == target:
                    used[pos] = True
                    remaining -= 1
                    total += index
                    target += 1
                    break
                pos -= 1
                scanned += 1
                if pos < 0:
                    pos = len(word) - 1
                    index += 1
                if scanned > len(word):
                    raise AssertionError("charge extraction failed to find a letter")
    return total


def _charge_word(t: Tableau) -> tuple[int, ...]:
    """Reverse row reading word: rows bottom to top, each left to right."""
    out: list[int] = []
    for row in reversed(t.rows):
        out.extend(row)
    return tuple(out)


@cache
def _kostka_foulkes_sorted(shape: Partition, mu: Partition, cap: Optional[int]) -> IntPolynomial:
    coeffs: dict[int, int] = {}
    for t in enumerate_cst(shape, len(mu), Composition(mu), cap=cap):
        c = charge(_charge_word(t))
        coeffs[c] = coeffs.get(c, 0) + 1
    if not coeffs:
        return IntPolynomial.zero()
    out = [0] * (max(coeffs) + 1)
    for c, m in coeffs.items():
        out[c] = m
    return IntPolynomial(out)


def kostka_foulkes(shape: Partition, alpha: Composition, cap: Optional[int] = None) -> IntPolynomial:
    """K_{shape, alpha}(q), the charge generating function.

    Kostka-Foulkes polynomials do not depend on the ordering of alpha, so the
    charge sum is taken over the sorted content; zero parts are dropped.
    """
    shape = Partition(shape)
    alpha = Composition(alpha)
    if alpha.size != shape.size:
        raise ValueError("content size must match shape size")
    return _kostka_foulkes_sorted(shape, alpha.sorted_partition(), cap)


def _beta_set(shape: Partition, length: int) -> tuple[int, ...]:
    """First-column hook lengths (beta-numbers) padded to the given length."""
    shape = Partition(shape)
    if length < len(shape):
        raise ValueError("beta-set length too small")
    parts = tuple(shape) + (0,) * (length - len(shape))
    return tuple(parts[i] + (length - 1 - i) for i in range(length))


def _partition_from_beta(beta: Sequence[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    length = len(beta)
    parts = [beta[i] - (length - 1 - i) for i in range(length)]
    return Partition([p for p in parts if p > 0])


def _mn_recurse(beta: frozenset[int], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    r = cycles[0]
    rest = cycles[1:]
    total = 0
    for b in beta:
        if b >= r and (b - r) not in beta:
            height = sum(1 for x in beta if b - r < x < b)
            sub = (beta - {b}) | {b - r}
            total += (-1) ** height * _mn_recurse(frozenset(sub), rest)
    return total


def mn_character(shape: Partition, cycles: Partition, removal_order: str = "desc") -> int:
    """Murnaghan-Nakayama evaluation of the irreducible character of S_n.

    ``removal_order`` chooses the order in which cycle lengths are peeled;
    the result is independent of it, which the tests assert.
    """
    shape = Partition(shape)
    cycles = Partition(cycles)
    if shape.size != cycles.size:
        raise ValueError("cycle type must have the same size as the shape")
    if removal_order == "desc":
        order = tuple(sorted(cycles, reverse=True))
    elif removal_order == "asc":
        order = tuple(sorted(cycles))
    else:
        raise ValueError("removal_order must be 'asc' or 'desc'")
    beta = frozenset(_beta_set(shape, len(shape) or 1))
    return _mn_recurse(beta, order)


def q_catalan(n: int) -> IntPolynomial:
    """The q-Catalan number [2n choose n]_q / [n+1]_q."""
    if n < 1:
        raise ValueError("q-Catalan numbers are indexed by n >= 1")
    return q_binomial(2 * n, n).exact_div(q_int(n + 1))
