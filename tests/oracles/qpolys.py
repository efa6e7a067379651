"""Shifts and long division of integer polynomials, q-integers and
q-factorials, expanded q-products, and Schur sums tableau by tableau."""

from __future__ import annotations

from functools import cache
from typing import Sequence

from cyclosieve.qpolys import IntPolynomial, QProduct, cyclotomic_polynomial
from cyclosieve.tableaux import Partition, enumerate_cst


def shift(p: IntPolynomial, exponent: int) -> IntPolynomial:
    """Multiply by q**exponent; negative exponents must divide exactly."""
    if exponent >= 0:
        return IntPolynomial((0,) * exponent + p.coeffs)
    if any(p.coeffs[:-exponent]):
        raise ValueError(f"q^{-exponent} does not divide {p}")
    return IntPolynomial(p.coeffs[-exponent:])


def poly_divmod(p: IntPolynomial, divisor: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Long division; the divisor must have leading coefficient +/-1."""
    if divisor.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lead = divisor.coeffs[-1]
    if lead not in (1, -1):
        raise ValueError("division requires a divisor with unit leading coefficient")
    rem = list(p.coeffs)
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


def exact_div(p: IntPolynomial, divisor: IntPolynomial) -> IntPolynomial:
    quotient, remainder = poly_divmod(p, divisor)
    if not remainder.is_zero():
        raise AssertionError(f"inexact division: {p} by {divisor}")
    return quotient


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
        return IntPolynomial((1,))
    return q_factorial(n - 1) * q_int(n)


def expand(product: QProduct) -> IntPolynomial:
    """The polynomial itself, by repeated multiplication."""
    out = IntPolynomial((1,))
    for d, e in product.exponents.items():
        for _ in range(e):
            out = cyclotomic_polynomial(d) * out
    return out


def q_binomial_product(n: int, k: int) -> QProduct:
    """[n choose k]_q = [n]!_q / ([k]!_q [n-k]!_q)."""
    if not 0 <= k <= n:
        raise ValueError(f"q-binomial needs 0 <= k <= n, got ({n}, {k})")
    return QProduct.from_q_integers(range(1, n + 1), [*range(1, k + 1), *range(1, n - k + 1)])


def schur_principal_specialization(shape: Partition, k: int) -> IntPolynomial:
    """s_shape(1, q, ..., q^(k-1)) summed over column-strict tableaux."""
    shape = Partition(shape)
    coeffs: dict[int, int] = {}
    for t in enumerate_cst(shape, k):
        w = sum(i * part for i, part in enumerate(t.content(k)))
        coeffs[w] = coeffs.get(w, 0) + 1
    return IntPolynomial.from_terms(coeffs)


def schur_evaluate(shape: Partition, values: Sequence):
    """s_shape(values), summed tableau by tableau; works over any commutative ring."""
    shape = Partition(shape)
    k = len(values)
    total = 0
    for t in enumerate_cst(shape, k):
        term = 1
        for row in t.rows:
            for x in row:
                term = term * values[x - 1]
        total = total + term
    return total
