import operator
import random
from functools import cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosieve import (
    CyclotomicElement,
    IntPolynomial,
    Partition,
    as_integer,
    cyclotomic_polynomial,
    eval_at_root,
    zeta,
)
from cyclosieve.qpolys import q_hook_product
from oracles.qpolys import exact_div, expand, poly_divmod

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=8).map(IntPolynomial)
orders = st.integers(1, 12)
# Long polynomials wrap around q^m - 1; monomials take the rotation paths.
ring_polys = st.one_of(
    st.lists(st.integers(-9, 9), min_size=0, max_size=30).map(IntPolynomial),
    st.builds(lambda e, c: IntPolynomial((0,) * e + (c,)), st.integers(0, 30), st.integers(-9, 9)),
)


def reduced(m, p):
    """The reference: reduce modulo Phi_m after every operation."""
    return poly_divmod(p, cyclotomic_polynomial(m))[1]


class TestCyclotomicPolynomial:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == IntPolynomial((-1, 1))
        assert cyclotomic_polynomial(2) == IntPolynomial((1, 1))
        assert cyclotomic_polynomial(4) == IntPolynomial((1, 0, 1))
        assert cyclotomic_polynomial(6) == IntPolynomial((1, -1, 1))

    def test_degree_is_euler_phi(self):
        def phi(m):
            return sum(1 for a in range(1, m + 1) if __import__("math").gcd(a, m) == 1)

        for m in range(1, 30):
            assert cyclotomic_polynomial(m).degree == phi(m)

    def test_product_over_divisors(self):
        for m in range(1, 16):
            prod = IntPolynomial((1,))
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            target = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
            assert prod == target


@cache
def _cyclotomic_by_division(m):
    """Phi_m as (q^m - 1) divided by every lower Phi_d, d | m: the former
    construction."""
    numerator = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            numerator = exact_div(numerator, _cyclotomic_by_division(d))
    return numerator


class TestResidueTable:
    def test_cyclotomic_polynomials_match_division(self):
        for m in range(1, 121):
            assert cyclotomic_polynomial(m) == _cyclotomic_by_division(m), m

    def test_table_residue_matches_long_division(self):
        """At every order up to 200, the residue read off the table of
        q^e mod Phi_m equals the long-division remainder."""
        rng = random.Random(7)
        for m in range(1, 201):
            phi = _cyclotomic_by_division(m)
            for terms in (3, 12, m):
                coeffs = [0] * m
                for _ in range(terms):
                    coeffs[rng.randrange(m)] += rng.randint(-50, 50)
                poly = IntPolynomial(coeffs)
                assert CyclotomicElement(m, poly).residue == poly_divmod(poly, phi)[1], m

    def test_reduced_elements_build_no_table(self, monkeypatch):
        """An element whose exponents are all below phi(m) is its own
        residue: neither Phi_m nor the table of q^e mod Phi_m is built, so
        an order of 10^8 costs no more than a small one."""
        from cyclosieve import cyclotomic, qpolys
        from cyclosieve.ribbons import kf_root_of_unity_check

        def forbidden(m):
            raise AssertionError(f"built at order {m}")

        monkeypatch.setattr(cyclotomic, "_power_residues", forbidden)
        monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", forbidden)
        monkeypatch.setattr(qpolys, "cyclotomic_polynomial", forbidden)
        rng = random.Random(11)
        for m in range(1, 61):
            phi = _cyclotomic_by_division(m)
            for _ in range(4):
                poly = IntPolynomial(rng.randint(-50, 50) for _ in range(phi.degree))
                assert CyclotomicElement(m, poly).residue == poly_divmod(poly, phi)[1], m
        order = 10**8
        assert as_integer(CyclotomicElement(order, IntPolynomial((3, 0, -1)))) is None
        assert as_integer(zeta(order, order) * 5 - 2) == 3
        report = kf_root_of_unity_check(Partition((2, 2)), (1, 1, 1, 1), order)
        assert report["evaluation"] is None and report["verdict"] is False

    def test_small_exponents_skip_the_factorization(self, monkeypatch):
        """phi(m) >= sqrt(m / 2), so an element whose exponents e all have
        2 e^2 < m is its own residue before m is factored: an order near
        10^18 with no small prime factor costs no trial division."""
        from cyclosieve import qpolys
        from cyclosieve.ribbons import kf_root_of_unity_check

        assert all(2 * qpolys.totient(m) ** 2 >= m for m in range(1, 20001))

        def forbidden(m):
            raise AssertionError(f"factored {m}")

        monkeypatch.setattr(qpolys, "_prime_factors", forbidden)
        order = 10**18 + 3
        assert as_integer(CyclotomicElement(order, IntPolynomial((3, 0, -1)))) is None
        assert as_integer(zeta(order, order) * 5 - 2) == 3
        report = kf_root_of_unity_check(Partition((2, 2)), (1, 1, 1, 1), order)
        assert report["evaluation"] is None and report["verdict"] is False


class TestEvalAtRoot:
    def test_evaluation_table_222(self):
        f = expand(q_hook_product(Partition((2, 2, 2))))
        assert [as_integer(eval_at_root(f, 6, d)) for d in range(6)] == [5, 0, 2, 3, 2, 0]

    def test_evaluation_table_22_bound_3(self):
        x = IntPolynomial((1, 1, 2, 1, 1))
        assert [as_integer(eval_at_root(x, 3, d)) for d in range(3)] == [6, 0, 0]

    def test_power_zero_gives_value_at_one(self):
        p = IntPolynomial((3, -2, 5))
        assert as_integer(eval_at_root(p, 7, 0)) == p(1)

    @given(small_polys, orders, st.integers(-20, 40))
    @settings(max_examples=80, deadline=None)
    def test_depends_only_on_power_mod_order(self, p, m, d):
        assert eval_at_root(p, m, d) == eval_at_root(p, m, d % m)

    @given(small_polys, small_polys, orders, st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_ring_homomorphism(self, a, b, m, d):
        assert eval_at_root(a + b, m, d) == eval_at_root(a, m, d) + eval_at_root(b, m, d)
        assert eval_at_root(a * b, m, d) == eval_at_root(a, m, d) * eval_at_root(b, m, d)

    def test_matches_zeta_powers(self):
        p = IntPolynomial((1, 2, 0, 3))
        for m in (4, 5, 6):
            for d in range(m):
                z = zeta(m, d)
                direct = p(z) + CyclotomicElement.from_int(m, 0)
                assert eval_at_root(p, m, d) == direct


class TestAsInteger:
    def test_constant(self):
        assert as_integer(CyclotomicElement.from_int(4, 7)) == 7
        assert as_integer(CyclotomicElement.from_int(1, -3)) == -3

    def test_imaginary_unit_is_not_rational(self):
        assert as_integer(zeta(4)) is None

    def test_large_primitive_root_non_integer(self):
        f = expand(q_hook_product(Partition((3, 3, 1))))
        assert as_integer(eval_at_root(f, 195, 1)) is None

    def test_order_one_reduces_to_integers(self):
        x = zeta(1)
        assert as_integer(x) == 1
        assert as_integer(x + x) == 2


class TestArithmetic:
    def test_power_and_order(self):
        z = zeta(6)
        assert z ** 6 == CyclotomicElement.from_int(6, 1)
        assert z ** 3 == CyclotomicElement.from_int(6, -1)

    def test_mixed_int_arithmetic(self):
        z = zeta(5)
        assert 1 + z - z == CyclotomicElement.from_int(5, 1)
        assert (2 * z) - z == z

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            zeta(4) + zeta(5)

    def test_sum_of_all_roots_vanishes(self):
        for m in (2, 3, 4, 6, 12):
            total = CyclotomicElement.from_int(m, 0)
            for d in range(m):
                total = total + zeta(m, d)
            assert as_integer(total) == 0


class TestAgainstReducedReference:
    @given(ring_polys, ring_polys, orders)
    @settings(max_examples=150, deadline=None)
    def test_sum_difference_product(self, a, b, m):
        x, y = CyclotomicElement(m, a), CyclotomicElement(m, b)
        ra, rb = reduced(m, a), reduced(m, b)
        assert x.residue == ra
        assert (x + y).residue == reduced(m, ra + rb)
        assert (x - y).residue == reduced(m, ra - rb)
        assert (x * y).residue == reduced(m, ra * rb)

    @given(ring_polys, orders, st.integers(0, 7))
    @settings(max_examples=150, deadline=None)
    def test_power(self, a, m, n):
        ra = reduced(m, a)
        expected = IntPolynomial((1,))
        for _ in range(n):
            expected = reduced(m, expected * ra)
        assert (CyclotomicElement(m, a) ** n).residue == expected

    @given(ring_polys, small_polys, orders)
    @settings(max_examples=80, deadline=None)
    def test_equal_elements_hash_equally(self, a, b, m):
        x = CyclotomicElement(m, a)
        y = CyclotomicElement(m, a + cyclotomic_polynomial(m) * b)
        assert x == y
        assert hash(x) == hash(y)

    def test_hash_ignores_the_unreduced_form(self):
        for m in (2, 3, 4, 6, 12):
            total = CyclotomicElement.from_int(m, 0)
            for d in range(m):
                total = total + zeta(m, d)
            zero = CyclotomicElement.from_int(m, 0)
            assert total == zero and hash(total) == hash(zero)
        assert zeta(6, 2) == zeta(6) - 1
        assert hash(zeta(6, 2)) == hash(zeta(6) - 1)
        assert len({zeta(6, 2), zeta(6) - 1, zeta(6, 8)}) == 1

    def test_constant_elements_hash_like_ints(self):
        x = zeta(3, 0) * 0
        assert x == 0 and len({x, 0}) == 1
        assert zeta(4, 0) * 5 == 5 and hash(zeta(4, 0) * 5) == hash(5)
        for m in (2, 3, 6, 12):
            total = sum((zeta(m, d) for d in range(m)), zeta(m, 0) * 7)
            assert total == 7 and hash(total) == hash(7)

    @given(st.integers(-50, 50), small_polys, orders)
    @settings(max_examples=80, deadline=None)
    def test_elements_equal_to_an_int_hash_like_it(self, c, b, m):
        x = CyclotomicElement(m, IntPolynomial((c,)) + cyclotomic_polynomial(m) * b)
        assert x == c
        assert hash(x) == hash(c)

    def test_integers_are_equal_across_orders(self):
        a, b = zeta(3, 0) * 5, zeta(4, 0) * 5
        assert a == 5 and b == 5 and a == b and b == a
        assert len({a, b, 5}) == len({5, a, b}) == 1
        assert zeta(3, 0) * 0 == zeta(7, 0) * 0
        assert zeta(4, 2) == zeta(2, 1) == -1
        assert a != zeta(4, 0) * 6
        assert zeta(3) != zeta(6, 2)  # equal in C, but non-integers compare only within an order

    def test_residue_is_read_only(self):
        x = zeta(5, 7)
        assert repr(x) == "(z5^2)"
        with pytest.raises(AttributeError):
            x.residue = IntPolynomial((1,))


class TestSameOrderFastPath:
    """Same-order operands skip the coercion step, and a product of two
    monomials is one term; the reference reduces after every operation."""

    @staticmethod
    def monomials(m):
        for e in range(m + 2):
            for c in (-2, 1, 3):
                p = IntPolynomial((0,) * e + (c,))
                yield CyclotomicElement(m, p), reduced(m, p)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_monomial_pairs_match_the_reference(self, m):
        for x, rx in self.monomials(m):
            for y, ry in self.monomials(m):
                assert (x * y).residue == reduced(m, rx * ry)
                assert (x + y).residue == reduced(m, rx + ry)
                assert (x - y).residue == reduced(m, rx - ry)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_integer_on_either_side_matches_the_reference(self, m):
        for x, rx in self.monomials(m):
            for n in (-3, 0, 1, 5):
                rn = IntPolynomial((n,))
                assert (x * n).residue == (n * x).residue == reduced(m, rx * rn)
                assert (x + n).residue == (n + x).residue == reduced(m, rx + rn)
                assert (x - n).residue == reduced(m, rx - rn)
                assert (n - x).residue == reduced(m, rn - rx)

    def test_same_order_operands_are_not_coerced(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("coerced a same-order operand")

        x, y = zeta(7, 3) * 2, zeta(7, 5)
        long = sum((zeta(7, d) * d for d in range(7)), zeta(7, 0))
        monkeypatch.setattr(CyclotomicElement, "_coerce", refuse)
        assert (x * y).residue == IntPolynomial((0, 2))
        assert x + y == y + x and x - y == -(y - x)
        assert (x * long) * y == x * (long * y)

    @pytest.mark.parametrize("op", [operator.mul, operator.add, operator.sub])
    def test_mixed_orders_still_raise(self, op):
        with pytest.raises(ValueError, match="mixed orders 3 and 4"):
            op(zeta(3), zeta(4))

    def test_residue_is_filled_once_and_stays_read_only(self, monkeypatch):
        from cyclosieve import cyclotomic

        calls = []
        real_totient = cyclotomic.totient
        monkeypatch.setattr(cyclotomic, "totient", lambda m: calls.append(m) or real_totient(m))
        x = zeta(7, 6) * 3 + zeta(7, 2)  # q^6 is above phi(7) = 6, so the table is read
        for _ in range(2):
            with pytest.raises(AttributeError):
                x.residue = IntPolynomial((1,))
            with pytest.raises(AttributeError):
                x._residue = IntPolynomial((1,))
            first = x.residue
            filled = len(calls)
            assert filled > 0
            assert x.residue is first and len(calls) == filled
        assert first == reduced(7, IntPolynomial.from_terms({6: 3, 2: 1}))


class TestSharedUnit:
    """The 1 of every order holds one shared, read-only terms map; a product
    with it returns the other factor itself."""

    @staticmethod
    def ones(m):
        return [zeta(m, 0), zeta(m, 2) ** 0, (zeta(m) + 2) ** 0, CyclotomicElement.from_int(m, 1)]

    @staticmethod
    def operands(m):
        polys = [IntPolynomial((0,) * e + (c,)) for e in range(m + 1) for c in (-2, 1, 3)]
        polys += [IntPolynomial(()), IntPolynomial((1,)), IntPolynomial((2, -1, 0, 4)),
                  IntPolynomial(range(-3, 2 * m))]
        for p in polys:
            yield CyclotomicElement(m, p), reduced(m, p)
        for one in TestSharedUnit.ones(m):
            yield one, IntPolynomial((1,))

    @pytest.mark.parametrize("m", range(1, 13))
    def test_the_one_on_either_side_matches_the_reference(self, m):
        from cyclosieve import cyclotomic

        r1 = IntPolynomial((1,))
        for one in self.ones(m):
            assert one.residue == r1
            for n in range(5):
                assert (one**n).residue == r1
            for x, rx in self.operands(m):
                assert (x * one).residue == (one * x).residue == reduced(m, rx * r1)
                assert (x + one).residue == (one + x).residue == reduced(m, rx + r1)
                assert (x - one).residue == reduced(m, rx - r1)
                assert (one - x).residue == reduced(m, r1 - rx)
                assert (x * one) ** 2 == (one * x) ** 2 == x * x
                assert (x**0).residue == r1
        assert cyclotomic._UNIT == {0: 1}

    def test_the_shared_terms_are_read_only(self):
        from cyclosieve import cyclotomic

        for key in (0, 1):
            with pytest.raises(TypeError):
                cyclotomic._UNIT[key] = 2
        assert cyclotomic._UNIT == {0: 1}

    @pytest.mark.parametrize("m", range(1, 13))
    def test_a_product_with_the_one_returns_the_other_factor(self, m):
        from cyclosieve import cyclotomic

        for x, _ in self.operands(m):
            assert x * zeta(m, 0) is x
            assert x * x**0 is x
            if x._terms is not cyclotomic._UNIT:
                # Of two shared ones, the left factor comes back.
                assert zeta(m, 0) * x is x


class TestNegativePowers:
    @pytest.mark.parametrize("x", [zeta(5, 2) * 3, zeta(5) + 1, zeta(5, 0) * 0, zeta(5, 0),
                                   CyclotomicElement.from_int(5, 1)],
                             ids=["monomial", "general", "zero", "one", "from-int-one"])
    def test_negative_powers_raise(self, x):
        for n in (-1, -3):
            with pytest.raises(ValueError, match="negative powers are not supported"):
                x**n


class TestPowerProducts:
    def test_squares_only_while_bits_remain(self, monkeypatch):
        """Square-and-multiply makes one product per set bit of n and one
        square per later bit: n = 1, 2, 4, 8 take 1, 2, 3, 4 products, and
        x ** 0 is the shared 1 with none."""
        from cyclosieve import cyclotomic

        calls = []
        real_mul = CyclotomicElement.__mul__
        monkeypatch.setattr(CyclotomicElement, "__mul__",
                            lambda self, other: calls.append(1) or real_mul(self, other))
        x = zeta(5) + 1
        assert (x**0)._terms is cyclotomic._UNIT and not calls
        counts = []
        for n in (1, 2, 4, 8):
            calls.clear()
            power = x**n
            counts.append(len(calls))
            assert power.residue == reduced(5, IntPolynomial([comb(n, i) for i in range(n + 1)]))
        assert counts == [1, 2, 3, 4]
