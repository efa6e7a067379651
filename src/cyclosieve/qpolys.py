"""Integer polynomials in q and the q-analogues used by the sieving checks.

IntPolynomial is a dense, immutable, arbitrary-precision integer polynomial
with ring operations and evaluation; it offers no division.

The quotient q-analogues (q-hook and hook-content formulas, q-Catalan
numbers) are held as QProducts: products of cyclotomic polynomials, built
from multisets of q-integers through [a]_q = prod_{d | a, d > 1} Phi_d(q).
That every exponent survives cancellation nonnegative certifies that the
quotient is a polynomial, and the product is reduced mod q^m - 1 by
multiplication alone.  Expanding a product, q-factorials, exact division and
the tableau-by-tableau Schur sums are the test oracles in
``tests/oracles/qpolys.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import accumulate
from operator import lt
from typing import Iterable, Mapping, Optional, Sequence

from .tableaux import Composition, Partition, beta_set, enumerate_cst, hook_lengths


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
    def from_terms(cls, terms: Mapping[int, int]) -> "IntPolynomial":
        """The sum of c q^e over the items (e, c) of ``terms``, e >= 0."""
        coeffs = [0] * (max(terms, default=-1) + 1)
        for e, c in terms.items():
            coeffs[e] = c
        return cls(coeffs)

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


def _prime_factors(m: int) -> list[int]:
    primes, p = [], 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return primes + [m] if m > 1 else primes


@cache
def totient(m: int) -> int:
    """Euler's phi(m), the degree of Phi_m, read off the prime factors of m."""
    phi = m
    for p in _prime_factors(m):
        phi = phi // p * (p - 1)
    return phi


@cache
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """Phi_m(q) = prod_{d | m} (1 - q^d)^mu(m/d) for m > 1.

    The factors are applied to a power series truncated past degree phi(m):
    a factor 1 - q^d is a difference of shifted coefficients, its inverse a
    running sum with stride d.  Neither divides a polynomial.
    """
    if m < 1:
        raise ValueError("cyclotomic polynomials are indexed by m >= 1")
    if m == 1:
        return IntPolynomial((-1, 1))
    primes = _prime_factors(m)
    degree = totient(m)
    coeffs = [1] + [0] * degree
    for subset in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if subset >> i & 1]
        d = m // math.prod(chosen)
        if len(chosen) % 2 == 0:  # mu(m/d) = 1: multiply by 1 - q^d
            for i in range(degree, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
        else:  # mu(m/d) = -1: multiply by 1 / (1 - q^d)
            for i in range(d, degree + 1):
                coeffs[i] += coeffs[i - d]
    return IntPolynomial(coeffs)


class QProduct:
    """prod_d Phi_d(q)^e_d with every e_d >= 0.

    A polynomial held in factored form.  ``exponents`` maps d to e_d; a
    negative e_d raises ``ValueError``, since the product is then not a
    polynomial.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: Mapping[int, int]):
        exponents = dict(sorted(exponents.items()))
        for d, e in exponents.items():
            if e < 0:
                raise ValueError(f"not a polynomial: Phi_{d} has exponent {e}")
        object.__setattr__(self, "exponents", {d: e for d, e in exponents.items() if e})

    def __setattr__(self, name, value):
        raise AttributeError("QProduct is immutable")

    @classmethod
    def from_q_integers(
        cls, numerator: Iterable[int], denominator: Iterable[int] = ()
    ) -> "QProduct":
        """prod_{a in numerator} [a]_q / prod_{b in denominator} [b]_q, both
        multisets of positive integers; raises unless it is a polynomial."""
        counts: dict[int, int] = {}
        for a in numerator:
            counts[a] = counts.get(a, 0) + 1
        for b in denominator:
            counts[b] = counts.get(b, 0) - 1
        if counts and min(counts) < 1:
            raise ValueError(f"q-integers in a product must be positive, got {min(counts)}")
        top = max(counts, default=1)
        exponents = {}
        for d in range(2, top + 1):  # Phi_d divides [a]_q exactly when d | a
            e = sum(counts.get(a, 0) for a in range(d, top + 1, d))
            if e:
                exponents[d] = e
        return cls(exponents)

    def cyclic_reduction(self, m: int) -> IntPolynomial:
        """The remainder mod q^m - 1, with coefficients of q^0 .. q^(m-1);
        its values at the m-th roots of unity are the product's."""
        if m < 1:
            raise ValueError("the modulus must be positive")
        coeffs = [1]
        for d, e in self.exponents.items():
            phi = cyclotomic_polynomial(d).coeffs
            factor = [(j % m, c) for j, c in enumerate(phi) if c]
            for _ in range(e):
                out = [0] * min(m, len(coeffs) + len(phi) - 1)
                for i, x in enumerate(coeffs):
                    if x:
                        for j, c in factor:
                            out[(i + j) % m] += x * c
                coeffs = out
        return IntPolynomial(coeffs)


def q_hook_product(shape: Partition) -> QProduct:
    """The q-hook length formula [n]!_q / prod [h_ij]_q."""
    shape = Partition(shape)
    return QProduct.from_q_integers(range(1, shape.size + 1), hook_lengths(shape))


def hook_content_product(shape: Partition, k: int) -> QProduct:
    """The hook-content formula prod_u [k + c(u)]_q / [h(u)]_q, over the cells
    u of a shape with at most k rows; it is q^(-kappa) times
    s_shape(1, q, ..., q^(k-1)) (Stanley, EC2 Thm 7.21.2)."""
    shape = Partition(shape)
    return QProduct.from_q_integers((k + c - r for r, c in shape.cells()), hook_lengths(shape))


def q_catalan_product(n: int) -> QProduct:
    """The q-Catalan number [2n choose n]_q / [n+1]_q."""
    if n < 1:
        raise ValueError("q-Catalan numbers are indexed by n >= 1")
    return QProduct.from_q_integers(
        range(1, 2 * n + 1), [*range(1, n + 1), *range(1, n + 2)]
    )


def kappa(shape: Partition) -> int:
    """0*l_1 + 1*l_2 + 2*l_3 + ...; equals b*a*(a-1)/2 on an a-row rectangle b^a."""
    return sum(i * part for i, part in enumerate(Partition(shape)))


def charge(word: Sequence[int]) -> int:
    """Lascoux-Schutzenberger charge of a word whose content is a partition.

    Standard subwords 1, 2, ..., r are extracted in turn: each letter is the
    nearest unused copy left of the previous one, scanning cyclically from
    the right end, and its index, added to the charge, grows by one each
    time the scan wraps.  The 1 is the rightmost unused 1, of index 0.
    """
    word = [int(x) for x in word]
    # the positions of each letter 1, 2, ..., in increasing order
    places = [[i for i, x in enumerate(word) if x == v] for v in range(1, max(word, default=0) + 1)]
    counts = list(map(len, places))
    if sum(counts) != len(word) or 0 in counts or any(map(lt, counts, counts[1:])):
        raise ValueError(f"charge needs partition content, got {counts}")
    total = 0
    while places and places[0]:
        pos, index = len(word), 0
        for letters in places:
            if not letters:
                break
            left = bisect_left(letters, pos) - 1
            if left < 0:
                index, left = index + 1, len(letters) - 1
            pos = letters.pop(left)
            total += index
    return total


@cache
def _kostka_foulkes_sorted(shape: Partition, mu: Partition, cap: Optional[int]) -> IntPolynomial:
    """The charge sum over the packed words of CST(shape) of content mu; a
    charge word reads the rows bottom to top, each left to right."""
    words = enumerate_cst(shape, len(mu), Composition(mu), cap=cap, packed=True)
    starts = list(accumulate(shape, initial=0))
    columns = [i for r in reversed(range(len(shape))) for i in range(starts[r], starts[r + 1])]
    return IntPolynomial.from_terms(Counter(map(charge, words[:, columns].tolist())))


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


def mn_character(shape: Partition, cycles: Partition) -> int:
    """Murnaghan-Nakayama evaluation of the irreducible character of S_n.

    Cycle lengths are peeled longest first; the result does not depend on
    the order, which the tests assert.
    """
    shape = Partition(shape)
    cycles = Partition(cycles)
    if shape.size != cycles.size:
        raise ValueError("cycle type must have the same size as the shape")
    beta = frozenset(beta_set(shape, len(shape) or 1))
    return _mn_recurse(beta, tuple(cycles))
