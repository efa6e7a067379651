import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_partitions_up_to, compositions_of, partitions_of

from cyclosieve import (
    Composition,
    IntPolynomial,
    Partition,
    QProduct,
    charge,
    dominance_leq,
    enumerate_cst,
    kappa,
    kostka_foulkes,
    mn_character,
    syt_count,
)
from cyclosieve.tableaux import beta_set
from cyclosieve.qpolys import _mn_recurse, hook_content_product, q_catalan_product, q_hook_product
from oracles.jeudetaquin import evacuate
from oracles.qpolys import (
    exact_div,
    expand,
    q_binomial_product,
    q_factorial,
    q_int,
    schur_evaluate,
    schur_principal_specialization,
    shift,
)
from oracles.tableaux import hook_length

small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(IntPolynomial)


class TestIntPolynomial:
    def test_normalization(self):
        assert IntPolynomial((1, 0, 0)).coeffs == (1,)
        assert IntPolynomial(()).is_zero()

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == IntPolynomial.zero()

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_eval_at_one_is_coefficient_sum(self, a):
        assert a(1) == sum(a.coeffs)

    def test_exact_division(self):
        num = q_int(6)
        assert exact_div(num, q_int(3)) == IntPolynomial((1, 0, 0, 1))
        with pytest.raises(AssertionError):
            exact_div(q_int(3) + IntPolynomial((1,)), q_int(2))

    def test_eval_over_fractions(self):
        p = IntPolynomial((1, 2, 1))
        assert p(Fraction(1, 2)) == Fraction(9, 4)


class TestQAnalogues:
    def test_q_binomial_examples(self):
        assert expand(q_binomial_product(5, 0)) == IntPolynomial((1,))
        assert expand(q_binomial_product(2, 1)) == IntPolynomial((1, 1))
        assert expand(q_binomial_product(4, 2)) == IntPolynomial((1, 1, 2, 1, 1))

    def test_q_binomial_counts_boxed_partitions(self):
        # [n choose k]_q generates partitions in a k x (n-k) box
        for n in range(1, 8):
            for k in range(n + 1):
                poly = expand(q_binomial_product(n, k))
                counts = {}
                for lam in all_partitions_up_to(k * (n - k)):
                    if len(lam) <= k and (not lam or lam[0] <= n - k):
                        counts[lam.size] = counts.get(lam.size, 0) + 1
                for exp, coeff in enumerate(poly.coeffs):
                    assert coeff == counts.get(exp, 0)

    def test_value_at_one(self):
        for n in range(8):
            for k in range(n + 1):
                assert expand(q_binomial_product(n, k))(1) == math.comb(n, k)


class TestQHookFormula:
    def test_hook_formula_222_product_form(self):
        expected = IntPolynomial((1, -1, 1)) * q_int(5)
        assert expand(q_hook_product(Partition((2, 2, 2)))) == expected

    def test_shape_331(self):
        expected = q_int(7) * IntPolynomial((1, 0, 1, 0, 1))
        assert expand(q_hook_product(Partition((3, 3, 1)))) == expected

    def test_single_row(self):
        assert expand(q_hook_product(Partition((6,)))) == IntPolynomial((1,))

    def test_counts_at_one(self):
        for lam in all_partitions_up_to(8):
            if lam.size:
                assert expand(q_hook_product(lam))(1) == syt_count(lam)


# The former expand-and-divide formulas, kept as oracles for the products.
def _q_binomial_oracle(n, k):
    return exact_div(exact_div(q_factorial(n), q_factorial(k)), q_factorial(n - k))


def _q_hook_oracle(lam):
    denominator = IntPolynomial((1,))
    for cell in lam.cells():
        denominator = denominator * q_int(hook_length(lam, cell))
    return exact_div(q_factorial(lam.size), denominator)


def _q_catalan_oracle(n):
    return exact_div(_q_binomial_oracle(2 * n, n), q_int(n + 1))


def _folded(poly, m):
    """poly mod q^m - 1, by summing coefficients m apart."""
    return IntPolynomial(sum(poly.coeffs[r::m]) for r in range(m))


class TestQProduct:
    def test_q_hook_matches_expand_and_divide(self):
        for lam in all_partitions_up_to(10):
            expected = _q_hook_oracle(lam)
            assert expand(q_hook_product(lam)) == expected, lam
            product = QProduct.from_q_integers(
                range(1, lam.size + 1), [hook_length(lam, c) for c in lam.cells()]
            )
            for m in {1, 2, lam.size or 1, 2 * lam.size + 1, 195}:
                assert product.cyclic_reduction(m) == _folded(expected, m), (lam, m)

    def test_q_binomial_and_q_catalan_match_expand_and_divide(self):
        for n in range(15):
            for k in range(n + 1):
                assert expand(q_binomial_product(n, k)) == _q_binomial_oracle(n, k), (n, k)
            if n:
                assert expand(q_catalan_product(n)) == _q_catalan_oracle(n), n

    def test_negative_exponent_is_the_certificate(self):
        """[2]_q / [3]_q is no polynomial: Phi_3 is left with exponent -1."""
        with pytest.raises(ValueError, match="Phi_3 has exponent -1"):
            QProduct.from_q_integers([2], [3])
        with pytest.raises(ValueError, match="not a polynomial"):
            QProduct.from_q_integers([6], [4])
        with pytest.raises(ValueError, match="positive"):
            QProduct.from_q_integers([0])
        assert expand(QProduct.from_q_integers([6], [2, 3])) == IntPolynomial((1, -1, 1))


class TestKappa:
    def test_examples(self):
        assert kappa(Partition((2, 2))) == 2
        assert kappa(Partition((7,))) == 0
        assert kappa(Partition((3, 3, 3))) == 9

    def test_rectangle_formula(self):
        for a in range(1, 6):
            for b in range(1, 6):
                assert kappa(Partition((b,) * a)) == b * a * (a - 1) // 2


class TestSchur:
    def test_shifted_specialization_22_bound_3(self):
        spec = schur_principal_specialization(Partition((2, 2)), 3)
        assert shift(spec, -kappa(Partition((2, 2)))) == IntPolynomial((1, 1, 2, 1, 1))

    def test_single_box(self):
        assert schur_principal_specialization(Partition((1,)), 5) == q_int(5)

    def test_single_column(self):
        k = 4
        spec = schur_principal_specialization(Partition((1,) * k), k)
        assert spec == IntPolynomial((0,) * kappa(Partition((1,) * k)) + (1,))

    def test_specialization_at_one_counts_tableaux(self):
        for lam in all_partitions_up_to(8):
            if not lam.size:
                continue
            for k in range(1, 7):
                assert schur_principal_specialization(lam, k)(1) == len(
                    enumerate_cst(lam, k)
                )

    def test_hook_content_product_is_the_shifted_specialization(self):
        """prod [k + c(u)]_q / [h(u)]_q = q^(-kappa) s_shape(1, q, ..., q^(k-1)),
        expanded and reduced mod q^m - 1."""
        for lam in all_partitions_up_to(8):
            for k in range(len(lam), 7):
                product = hook_content_product(lam, k)
                spec = shift(schur_principal_specialization(lam, k), -kappa(lam))
                assert expand(product) == spec, (tuple(lam), k)
                for m in range(1, 9):
                    folded = [0] * m
                    for i, c in enumerate(spec.coeffs):
                        folded[i % m] += c
                    assert product.cyclic_reduction(m) == IntPolynomial(folded), (tuple(lam), k, m)

    def test_monomial_expansion_of_s22(self):
        # x1^2x2^2 + x2^2x3^2 + x1^2x3^2 + x1x2^2x3 + x1x2x3^2 + x1^2x2x3
        monomials = sorted(
            tuple(t.content(3)) for t in enumerate_cst(Partition((2, 2)), 3)
        )
        assert monomials == sorted(
            [(2, 2, 0), (0, 2, 2), (2, 0, 2), (1, 2, 1), (1, 1, 2), (2, 1, 1)]
        )

    def test_all_ones(self):
        assert schur_evaluate(Partition((3, 1)), (1, 1, 1)) == len(
            enumerate_cst(Partition((3, 1)), 3)
        )

    def test_signed_evaluation_counts_self_evacuating(self):
        for lam in [Partition((2, 2)), Partition((3, 1)), Partition((2, 1))]:
            for k in range(len(lam), 6):
                values = tuple((-1) ** i for i in range(k))
                fixed = sum(
                    1 for t in enumerate_cst(lam, k) if evacuate(t, k) == t
                )
                assert abs(schur_evaluate(lam, values)) == fixed


class TestCharge:
    def test_base_cases(self):
        assert charge((1,)) == 0
        assert charge((2, 1)) == 0
        assert charge((1, 2)) == 1

    def test_weakly_increasing_word_is_maximal(self):
        from itertools import permutations as perms

        words = set(perms((1, 1, 2, 2)))
        values = {w: charge(w) for w in words}
        assert values[(1, 1, 2, 2)] == max(values.values())

    def test_non_partition_content_rejected(self):
        with pytest.raises(ValueError):
            charge((2, 2, 1))
        with pytest.raises(ValueError):
            charge((1, 3))


class TestKostkaFoulkes:
    def test_small_values(self):
        assert kostka_foulkes(Partition((2,)), Composition((1, 1))) == IntPolynomial((0, 1))
        assert kostka_foulkes(Partition((1, 1)), Composition((1, 1))) == IntPolynomial((1,))
        assert kostka_foulkes(Partition((2, 1)), Composition((1, 1, 1))) == IntPolynomial((0, 1, 1))
        assert kostka_foulkes(Partition((2, 2)), Composition((1, 1, 1, 1))) == IntPolynomial((0, 0, 1, 0, 1))
        assert kostka_foulkes(Partition((4,)), Composition((4,))) == IntPolynomial((1,))

    def test_value_at_one_is_kostka_number(self):
        for lam in all_partitions_up_to(6):
            if not lam.size:
                continue
            n = lam.size
            for k in range(1, 5):
                for alpha in compositions_of(n, k):
                    assert kostka_foulkes(lam, alpha)(1) == len(
                        enumerate_cst(lam, k, alpha)
                    ), (lam, alpha)

    def test_rearrangement_invariance_through_enumeration(self):
        lam = Partition((3, 2, 1))
        base = kostka_foulkes(lam, Composition((3, 2, 1)))
        for alpha in [(1, 2, 3), (2, 3, 1), (3, 1, 2), (1, 3, 2)]:
            assert kostka_foulkes(lam, Composition(alpha)) == base

    def test_non_standard_contents(self):
        """For lam, mu |- n <= 7, K_{lam,mu} is 0 unless lam dominates mu, and
        otherwise has degree kappa(mu) - kappa(lam) and leading coefficient 1.
        The digest pins all 434 polynomials as the charge scan that recounted
        the remaining letters at every step gave them."""
        rows = []
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    kf = kostka_foulkes(lam, Composition(mu))
                    if dominance_leq(mu, lam):
                        assert kf.degree == kappa(mu) - kappa(lam), (lam, mu)
                        assert kf.coeffs[-1] == 1, (lam, mu)
                    else:
                        assert kf.is_zero(), (lam, mu)
                    rows.append((tuple(lam), tuple(mu), kf.coeffs))
        assert len(rows) == 434
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "7d7575131ceeac0d46ee814819d1ce24167e511c0caaa1719bd793f7fec3d8f6"

    def test_q_shift_against_hook_formula(self):
        """K_{shape,1^n}(q) is a q-power times the q-hook formula; the shift
        is found and pinned per shape."""
        for lam in all_partitions_up_to(8):
            n = lam.size
            if not n:
                continue
            kf = kostka_foulkes(lam, Composition((1,) * n))
            f = expand(q_hook_product(lam))
            lowest = [next(i for i, c in enumerate(p.coeffs) if c) for p in (kf, f)]
            offset = lowest[0] - lowest[1]
            assert offset >= 0
            assert shift(f, offset) == kf, (lam, offset)


class TestMnCharacter:
    def test_identity_class_is_dimension(self):
        for lam in all_partitions_up_to(7):
            if lam.size:
                assert mn_character(lam, Partition((1,) * lam.size)) == syt_count(lam)

    def test_trivial_representation(self):
        for mu in partitions_of(5):
            assert mn_character(Partition((5,)), mu) == 1

    def test_sign_representation(self):
        for mu in partitions_of(5):
            expected = (-1) ** sum(p - 1 for p in mu)
            assert mn_character(Partition((1,) * 5), mu) == expected

    def test_s4_character_table_row(self):
        lam = Partition((2, 2))
        values = {
            (1, 1, 1, 1): 2,
            (2, 1, 1): 0,
            (2, 2): 2,
            (3, 1): -1,
            (4,): 0,
        }
        for mu, expected in values.items():
            assert mn_character(lam, Partition(mu)) == expected

    def test_removal_order_independence(self):
        """mn_character peels the longest cycle first; peeling the
        shortest first gives the same value."""
        for lam in all_partitions_up_to(7):
            if not lam.size:
                continue
            beta = frozenset(beta_set(lam, len(lam)))
            for mu in partitions_of(lam.size):
                assert mn_character(lam, mu) == _mn_recurse(beta, tuple(sorted(mu))), (lam, mu)

    def test_evacuation_fixed_points_match_character(self):
        lam = Partition((2, 2))
        chi = mn_character(lam, Partition((2, 2)))
        from cyclosieve import enumerate_syt

        fixed = sum(1 for t in enumerate_syt(lam) if evacuate(t, 4) == t)
        assert fixed == abs(chi)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mn_character(Partition((2, 2)), Partition((3,)))


class TestQCatalan:
    def test_examples(self):
        assert expand(q_catalan_product(1)) == IntPolynomial((1,))
        assert expand(q_catalan_product(2)) == IntPolynomial((1, 0, 1))

    def test_matches_two_row_hook_formula(self):
        for n in range(1, 9):
            assert expand(q_catalan_product(n)) == expand(q_hook_product(Partition((n, n))))

    def test_catalan_numbers(self):
        for n in range(1, 9):
            assert expand(q_catalan_product(n))(1) == math.comb(2 * n, n) // (n + 1)
