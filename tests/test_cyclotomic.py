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
    q_hook_formula,
    zeta,
)

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=8).map(IntPolynomial)
orders = st.integers(1, 12)
# Long polynomials wrap around q^m - 1; monomials take the rotation paths.
ring_polys = st.one_of(
    st.lists(st.integers(-9, 9), min_size=0, max_size=30).map(IntPolynomial),
    st.builds(IntPolynomial.monomial, st.integers(0, 30), st.integers(-9, 9)),
)


def reduced(m, p):
    """The reference: reduce modulo Phi_m after every operation."""
    return p.divmod(cyclotomic_polynomial(m))[1]


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
            prod = IntPolynomial.one()
            for d in range(1, m + 1):
                if m % d == 0:
                    prod = prod * cyclotomic_polynomial(d)
            target = IntPolynomial((-1,) + (0,) * (m - 1) + (1,))
            assert prod == target


class TestEvalAtRoot:
    def test_evaluation_table_222(self):
        f = q_hook_formula(Partition((2, 2, 2)))
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
        f = q_hook_formula(Partition((3, 3, 1)))
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
        expected = IntPolynomial.one()
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

    def test_residue_is_read_only(self):
        x = zeta(5, 7)
        assert repr(x) == "(z5^2)"
        with pytest.raises(AttributeError):
            x.residue = IntPolynomial.one()
