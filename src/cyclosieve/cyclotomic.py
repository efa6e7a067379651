"""Exact arithmetic in Z[zeta_m] = Z[q]/(Phi_m(q)) for root-of-unity evaluation.

An element is held unreduced in Z[q]/(q^m - 1), as a sparse map from
exponents mod m to nonzero coefficients, so ring arithmetic never divides
and a product with a monomial is a rotation.  Phi_m divides q^m - 1, so the
residue mod Phi_m is well defined and canonical; it is computed once, on
first read, and cached.  Equality, hashing, ``is_zero``, ``as_integer`` and
``repr`` all read the residue.

Floating point is never used: the sieving checks demand exact integer
equality between fixed-point counts and polynomial evaluations.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from .qpolys import IntPolynomial

_new = object.__new__
_set = object.__setattr__


@cache
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """Phi_m(q), computed as (q^m - 1) / prod of the lower cyclotomics."""
    if m < 1:
        raise ValueError("cyclotomic polynomials are indexed by m >= 1")
    numerator = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            numerator = numerator.exact_div(cyclotomic_polynomial(d))
    return numerator


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be positive")


class CyclotomicElement:
    """An element of Z[q]/(Phi_m(q)), held unreduced in Z[q]/(q^m - 1)."""

    __slots__ = ("order", "_terms", "_residue")

    def __init__(self, order: int, polynomial: IntPolynomial):
        _check_order(order)
        terms: dict[int, int] = {}
        for e, c in enumerate(polynomial.coeffs):
            if c:
                e %= order
                terms[e] = terms.get(e, 0) + c
        _set(self, "order", order)
        _set(self, "_terms", {e: c for e, c in terms.items() if c})
        _set(self, "_residue", None)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    @classmethod
    def from_int(cls, order: int, value: int) -> "CyclotomicElement":
        _check_order(order)
        return _element(order, {0: value} if value else {})

    @property
    def residue(self) -> IntPolynomial:
        """The canonical representative mod Phi_m, of degree below phi(m)."""
        residue = self._residue
        if residue is None:
            terms = self._terms
            coeffs = [0] * (max(terms) + 1 if terms else 0)
            for e, c in terms.items():
                coeffs[e] = c
            residue = IntPolynomial(coeffs)
            phi = cyclotomic_polynomial(self.order)
            if residue.degree >= phi.degree:
                residue = residue.divmod(phi)[1]
            _set(self, "_residue", residue)
        return residue

    def _coerce(self, other) -> "CyclotomicElement":
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError(f"mixed orders {self.order} and {other.order}")
            return other
        if isinstance(other, int):
            return CyclotomicElement.from_int(self.order, other)
        return NotImplemented  # type: ignore[return-value]

    def _plus(self, other, sign: int):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            total = terms.get(e, 0) + sign * c
            if total:
                terms[e] = total
            else:
                del terms[e]
        return _element(self.order, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.order, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        m = self.order
        if isinstance(other, int):
            if not other:
                return _element(m, {})
            return _element(m, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # A monomial c q^e: rotate the other factor by e and scale by c.
            ((e, c),) = a.items()
            return _element(m, {(f + e) % m: c * x for f, x in b.items()})
        product: dict[int, int] = {}
        for e, c in a.items():
            for f, x in b.items():
                key = (e + f) % m
                product[key] = product.get(key, 0) + c * x
        return _element(m, {e: c for e, c in product.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        m = self.order
        if exponent == 0:
            return _element(m, {0: 1})
        if len(self._terms) == 1:
            ((e, c),) = self._terms.items()
            return _element(m, {e * exponent % m: c**exponent})
        result = _element(m, {0: 1})
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def is_zero(self) -> bool:
        return self.residue.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CyclotomicElement.from_int(self.order, other)
        return (
            isinstance(other, CyclotomicElement)
            and self.order == other.order
            and self.residue == other.residue
        )

    def __hash__(self) -> int:
        return hash((self.order, self.residue))

    def __repr__(self) -> str:
        body = repr(self.residue).replace("q", f"z{self.order}")
        return f"({body})"


def _element(order: int, terms: dict[int, int]) -> CyclotomicElement:
    """Wrap nonzero coefficients keyed by exponent mod ``order``, unchecked."""
    element = _new(CyclotomicElement)
    _set(element, "order", order)
    _set(element, "_terms", terms)
    _set(element, "_residue", None)
    return element


def zeta(m: int, d: int = 1) -> CyclotomicElement:
    """zeta_m ** d as an exact ring element."""
    _check_order(m)
    return _element(m, {d % m: 1})


def eval_at_root(x: IntPolynomial, m: int, d: int) -> CyclotomicElement:
    """X(zeta_m^d): the coefficients of q^r, q^(r+m), ... land on q^(r*d mod m)."""
    _check_order(m)
    coeffs = x.coeffs
    terms: dict[int, int] = {}
    for r in range(min(m, len(coeffs))):
        c = sum(coeffs[r::m])
        if c:
            key = r * d % m
            terms[key] = terms.get(key, 0) + c
    return _element(m, {e: c for e, c in terms.items() if c})


def as_integer(x: CyclotomicElement) -> Optional[int]:
    """The integer value of a constant residue, or None if non-rational."""
    if x.residue.is_zero():
        return 0
    if x.residue.degree == 0:
        return x.residue.coefficient(0)
    return None
