"""Exact arithmetic in Z[zeta_m] = Z[q]/(Phi_m(q)) for root-of-unity evaluation.

An element is held unreduced in Z[q]/(q^m - 1), as a sparse map from
exponents mod m to nonzero coefficients, so ring arithmetic never divides
and a product with a monomial is a rotation.  Phi_m divides q^m - 1, so the
residue mod Phi_m is well defined and canonical; it is computed once, on
first read, and cached.  An element whose exponents are all below phi(m)
is its own residue; otherwise it is read off a per-order table of
q^e mod Phi_m, built for e from phi(m) to m - 1.  Equality, hashing,
``is_zero``, ``as_integer`` and ``repr`` all read the residue.

No operation mutates a terms map (a sum copies, every other operation builds
a new one), so elements share them freely.  The 1 of every order holds one
shared, read-only map, ``_UNIT``: ``zeta(m, 0)``, ``x ** 0`` and the start of
a general power all hold it, and a same-order product with it returns the
other factor itself, which is safe because elements are immutable.  Every
operation builds its result with ``_element``, which fills the two slots
through their descriptors' setters.

Floating point is never used: the sieving checks demand exact integer
equality between fixed-point counts and polynomial evaluations.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Mapping, Optional

from .qpolys import IntPolynomial, cyclotomic_polynomial, totient

_new = object.__new__
# The terms of 1, shared by every order and read-only.
_UNIT = MappingProxyType({0: 1})


@cache
def _power_residues(m: int) -> list[tuple[tuple[int, int], ...]]:
    """Entry e - phi(m) holds the nonzero (exponent, coefficient) pairs of
    q^e mod Phi_m, for phi(m) <= e < m."""
    phi = cyclotomic_polynomial(m).coeffs
    power = [-c for c in phi[:-1]]  # q^phi(m), since Phi_m is monic
    rows = []
    for _ in range(len(power), m):
        rows.append(tuple((i, c) for i, c in enumerate(power) if c))
        top = power[-1]
        power = [0] + power[:-1]
        if top:  # the q^phi(m) that multiplying by q carried out, replaced
            power = [x - top * c for x, c in zip(power, phi)]
    return rows


def _check_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be positive")


class CyclotomicElement:
    """An element of Z[q]/(Phi_m(q)), held unreduced in Z[q]/(q^m - 1)."""

    __slots__ = ("order", "_terms", "_residue")

    def __init__(self, order: int, polynomial: IntPolynomial):
        _set_order(self, order)
        _set_terms(self, eval_at_root(polynomial, order, 1)._terms)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    @classmethod
    def from_int(cls, order: int, value: int) -> "CyclotomicElement":
        _check_order(order)
        return _element(order, {0: value} if value else {})

    @property
    def residue(self) -> IntPolynomial:
        """The canonical representative mod Phi_m, of degree below phi(m).

        The ``_residue`` slot stays empty until this first read fills it."""
        residue = getattr(self, "_residue", None)
        if residue is None:
            terms = self._terms
            top = max(terms, default=0)
            # phi(m) >= sqrt(m / 2), so 2 top^2 < m puts every exponent below
            # phi(m) without factoring m
            if 2 * top * top < self.order or top < totient(self.order):
                # Already reduced: no table is built, whatever the order.
                residue = IntPolynomial.from_terms(terms)
            else:
                # One pass over the terms: q^e with e >= phi(m) is replaced
                # by its tabulated residue.
                degree = totient(self.order)
                table = _power_residues(self.order)
                coeffs = [0] * degree
                for e, c in terms.items():
                    if e < degree:
                        coeffs[e] += c
                    else:
                        for i, x in table[e - degree]:
                            coeffs[i] += c * x
                residue = IntPolynomial(coeffs)
            _set_residue(self, residue)
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
        if type(other) is not CyclotomicElement or other.order != self.order:
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
        if type(other) is CyclotomicElement and other.order == m:
            b = other._terms
            if b is _UNIT:
                return self
            a = self._terms
            if a is _UNIT:
                return other
            if len(a) == 1 == len(b):
                ((e, c),) = a.items()
                ((f, x),) = b.items()
                return _element(m, {(e + f) % m: c * x})
        elif isinstance(other, int):
            if not other:
                return _element(m, {})
            return _element(m, {e: c * other for e, c in self._terms.items()})
        else:
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
        m = self.order
        terms = self._terms
        if len(terms) == 1 and exponent > 0:
            ((e, c),) = terms.items()
            return _element(m, {e * exponent % m: c**exponent})
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        result = _element(m, _UNIT)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def is_zero(self) -> bool:
        return self.residue.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CyclotomicElement.from_int(self.order, other)
        if not isinstance(other, CyclotomicElement):
            return False
        if self.order == other.order:
            return self.residue == other.residue
        # Across orders only integers compare equal, as in __hash__.
        constants = self.residue.degree <= 0 and other.residue.degree <= 0
        return constants and self.residue == other.residue

    def __hash__(self) -> int:
        residue = self.residue
        if residue.degree <= 0:
            # equal to an int, so hash like it
            return hash(residue.coefficient(0))
        return hash((self.order, residue))

    def __repr__(self) -> str:
        body = repr(self.residue).replace("q", f"z{self.order}")
        return f"({body})"


# The slot descriptors' setters skip the __setattr__ that makes elements immutable.
_set_order = CyclotomicElement.order.__set__
_set_terms = CyclotomicElement._terms.__set__
_set_residue = CyclotomicElement._residue.__set__


def _element(order: int, terms: Mapping[int, int]) -> CyclotomicElement:
    """Wrap nonzero coefficients keyed by exponent mod ``order``, unchecked;
    the residue slot is left for :attr:`CyclotomicElement.residue` to fill."""
    element = _new(CyclotomicElement)
    _set_order(element, order)
    _set_terms(element, terms)
    return element


def zeta(m: int, d: int = 1) -> CyclotomicElement:
    """zeta_m ** d as an exact ring element."""
    _check_order(m)
    d %= m
    return _element(m, {d: 1} if d else _UNIT)


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
