import json
import random
from math import lcm

import numpy as np
import pytest

from conftest import all_partitions_up_to, rectangles_up_to

from cyclosieve import (
    Composition,
    Partition,
    enumerate_cst,
    enumerate_syt,
    kappa,
    mn_character,
)
from cyclosieve import sieving
from cyclosieve.cyclotomic import as_integer, eval_at_root
from cyclosieve.jeudetaquin import evacuation_permutation, promotion_permutation
from cyclosieve.qpolys import QProduct, q_hook_product
from cyclosieve.sieving import (
    FiniteAction,
    bn_csp_report,
    bn_reduced_words,
    content_csp_report,
    cst_csp_report,
    dihedral_report,
    evacuation_fixed_expected,
    evacuation_promotion_fixed_expected,
    handshake_action,
    handshake_csp_report,
    noncrossing_action,
    noncrossing_csp_report,
    promotion_action,
    syt_csp_report,
    syt_promotion_action,
    verify_csp,
)
from cyclosieve.permutations import cycle_type, long_cycle, long_element
from cyclosieve.tableaux import Tableau, extended_descent_set
from oracles import qpolys as qpolys_oracles
from oracles.cyclotomic import element_repr
from oracles.jeudetaquin import evacuate, promote, promote_power
from oracles.qpolys import expand, schur_evaluate
from oracles.sieving import (
    action_of_map,
    bn_longest,
    bn_reduced_words_dfs,
    handshake_patterns,
    handshake_to_tableau,
    kreweras_complement,
    multisets_action,
    multisets_csp_report,
    noncrossing_partitions,
    noncrossing_to_handshake,
    reflect_matching,
    reflect_noncrossing,
    rotate_matching,
    signed_apply_right,
    signed_right_descents,
    subsets_action,
    subsets_csp_report,
    tableau_to_handshake,
)


def set_partitions_oracle(items: tuple[int, ...]) -> list[list[list[int]]]:
    """Every set partition of ``items``, by placing the first item."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for smaller in set_partitions_oracle(rest):
        for i in range(len(smaller)):
            out.append(smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:])
        out.append([[first]] + smaller)
    return out


def noncrossing_partitions_oracle(n: int) -> tuple:
    """The set partitions of [n] with no a < b < c < d where a, c share a
    block that b, d share and the other does not."""

    def is_noncrossing(blocks: list[list[int]]) -> bool:
        owner = {}
        for i, block in enumerate(blocks):
            for x in block:
                owner[x] = i
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                for c in range(b + 1, n + 1):
                    for d in range(c + 1, n + 1):
                        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
                            return False
        return True

    out = []
    for blocks in set_partitions_oracle(tuple(range(1, n + 1))):
        if is_noncrossing(blocks):
            out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return tuple(sorted(out))


def kreweras_complement_oracle(pi: tuple, n: int) -> tuple:
    """The maximal noncrossing partition of the interleaved primed points.

    Primed points i' and j' may share a block exactly when every block of pi
    meeting the interval strictly between them is contained in it.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            interval = set(range(i + 1, j + 1))
            ok = True
            for block in pi:
                hits = interval.intersection(block)
                if hits and len(hits) != len(block):
                    ok = False
                    break
            if ok:
                parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def cycle_walk_oracle(generator) -> list[int]:
    """The cycle lengths of a permutation, by walking each cycle one element
    at a time; raises ValueError unless the generator is a bijection of its
    indices."""
    generator = list(generator)
    n = len(generator)
    if n and not all(isinstance(i, int) and 0 <= i < n for i in generator):
        raise ValueError("not a bijection")
    lengths = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        size, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = generator[i]
            size += 1
        if i != start:  # every walk closes into a cycle iff the map is a bijection
            raise ValueError("not a bijection")
        lengths.append(size)
    return lengths


def assert_matches_cycle_walk(action: FiniteAction) -> None:
    """The histogram, order, orbit sizes and fixed counts of an action
    against the cycle walk of its generator.  Every power d up to the order
    is compared when the order is at most 1,000; above that, d up to 1,000,
    every cycle size and lcm of two sizes, and the order and the next power."""
    assert action.generator.dtype == np.intp and action.generator.ndim == 1
    lengths = cycle_walk_oracle(action.generator.tolist())
    histogram = {}
    for size in sorted(lengths):
        histogram[size] = histogram.get(size, 0) + 1
    assert action.histogram == histogram and list(action.histogram) == sorted(histogram)
    assert action.order == lcm(*lengths)
    assert action.orbit_sizes() == sorted(lengths)
    powers = set(range(min(action.order, 1000) + 1)) | {action.order, action.order + 1}
    powers |= {lcm(a, b) for a in histogram for b in histogram}
    for d in sorted(powers):
        assert action.fixed_count(d) == sum(size for size in lengths if d % size == 0), d


class TestCycleHistogramAgainstWalk:
    """FiniteAction reads its cycles by pointer doubling; the walk it
    replaced is the oracle."""

    def test_every_syt_action_up_to_10_cells(self):
        for lam in all_partitions_up_to(10):
            assert_matches_cycle_walk(syt_promotion_action(lam))

    def test_every_cst_action_up_to_8_cells_and_bound_5(self):
        for lam in all_partitions_up_to(8):
            for k in range(1, 6):
                assert_matches_cycle_walk(promotion_action(lam, k))

    def test_every_map_family(self):
        actions = [handshake_action(n) for n in range(9)]
        actions += [noncrossing_action(n) for n in range(9)]
        actions += [sieving.bn_word_action(n) for n in range(1, 5)]
        actions += [subsets_action(n, k) for n in range(8) for k in range(n + 1)]
        actions += [multisets_action(n, k) for n in range(1, 7) for k in range(5)]
        for action in actions:
            assert_matches_cycle_walk(action)

    def test_random_permutations(self):
        rng = random.Random(2004)
        for n in (1, 2, 3, 5, 10, 100, 1000, 10_000, 100_000):
            for _ in range(3 if n < 10_000 else 1):
                generator = list(range(n))
                rng.shuffle(generator)
                assert_matches_cycle_walk(FiniteAction(generator))

    def test_one_cycle_the_identity_and_the_empty_set(self):
        n = 100_000
        cycle = FiniteAction(np.roll(np.arange(n), 1))
        assert cycle.histogram == {n: 1} and cycle.order == n
        assert_matches_cycle_walk(cycle)
        identity = FiniteAction(range(n))
        assert identity.histogram == {1: n} and identity.order == 1
        assert_matches_cycle_walk(identity)
        empty = FiniteAction([])
        assert empty.histogram == {} and empty.order == 1 and empty.orbit_sizes() == []
        assert_matches_cycle_walk(empty)


class TestFiniteAction:
    def test_order_is_minimal(self):
        for action in [
            syt_promotion_action(Partition((2, 2, 2))),
            syt_promotion_action(Partition((3, 1))),
            promotion_action(Partition((2, 2)), 3),
            handshake_action(3),
            noncrossing_action(4),
        ]:
            gen = action.generator
            n = len(gen)
            power = list(range(n))
            for _ in range(action.order):
                power = [gen[i] for i in power]
            assert power == list(range(n))
            for d in range(1, action.order):
                if action.order % d:
                    continue
                power = list(range(n))
                for _ in range(d):
                    power = [gen[i] for i in power]
                if d < action.order:
                    assert power != list(range(n))

    def test_orbit_sizes_divide_order(self):
        action = syt_promotion_action(Partition((3, 3, 1)))
        assert action.orbit_sizes() == [3, 5, 13]
        assert action.order == 195

    def test_fixed_counts_match_direct_iteration(self):
        action = promotion_action(Partition((2, 2)), 4)
        elements = enumerate_cst(Partition((2, 2)), 4)
        for d in range(action.order + 1):
            images = elements
            for _ in range(d):
                images = [promote(t, 4) for t in images]
            direct = sum(1 for a, b in zip(elements, images) if a == b)
            assert direct == action.fixed_count(d)

    def test_precomputed_permutation(self):
        action = FiniteAction([1, 2, 0, 4, 3])
        assert action.generator.tolist() == [1, 2, 0, 4, 3]
        assert action.orbit_sizes() == [2, 3] and action.order == 6
        by_map = action_of_map("abcde", lambda x: "bcaed"["abcde".index(x)])
        assert by_map.generator.tolist() == action.generator.tolist()

    def test_rejects_a_generator_that_is_not_a_bijection(self):
        """Duplicates, out-of-range and negative indices, as a list or an
        array, as the cycle walk rejects them, and input that is not one
        row of indices."""
        with pytest.raises(ValueError, match="not a bijection"):
            action_of_map([0, 1, 2], lambda i: 0)
        shuffled = list(range(1000))
        random.Random(2010).shuffle(shuffled)
        for bad in ([0, 0, 1], [1, 2, 0, 2], shuffled[:-1] + shuffled[:1],  # duplicates
                    [1, 2, 3], [0, 5],  # out of range
                    [-1, 0, 1], [1, -2, 0]):  # negative
            with pytest.raises(ValueError, match="not a bijection"):
                cycle_walk_oracle(bad)
            for generator in (bad, np.array(bad)):
                with pytest.raises(ValueError, match="not a bijection"):
                    FiniteAction(generator)
        for bad in ([[0, 1], [1, 0]], np.zeros((0, 2), dtype=np.intp), 0):
            with pytest.raises(ValueError, match="not a bijection"):
                FiniteAction(bad)
        with pytest.raises(ValueError, match="not distinct"):
            action_of_map([0, 0], lambda i: i)

    def test_promotion_actions_match_per_tableau_promote(self):
        """The promotion actions come from the set-level kernel; their
        generators agree with looking up each tableau's promote_power in the
        enumerated set."""
        cases = [
            (syt_promotion_action(Partition((3, 3))), enumerate_syt(Partition((3, 3))), 6, 1),
            (promotion_action(Partition((2, 2)), 4), enumerate_cst(Partition((2, 2)), 4), 4, 1),
            (promotion_action(Partition((2, 2, 2)), 4, Composition((1, 2, 1, 2)), 2),
             enumerate_cst(Partition((2, 2, 2)), 4, Composition((1, 2, 1, 2))), 4, 2),
        ]
        for action, tabs, k, power in cases:
            index = {t: i for i, t in enumerate(tabs)}
            assert action.generator.tolist() == [index[promote_power(t, k, power)] for t in tabs]


def verify_csp_rows_oracle(action, polynomial, modulus, modulus_comparison=False) -> list:
    """The rows of verify_csp with every power d evaluated on its own, and
    every residue printed by the text oracle."""
    if isinstance(polynomial, QProduct):
        polynomial = polynomial.cyclic_reduction(modulus)
    rows = []
    for d in range(modulus):
        fixed = action.fixed_count(d)
        value = eval_at_root(polynomial, modulus, d)
        as_int = as_integer(value)
        match = as_int is not None and (abs(as_int) if modulus_comparison else as_int) == fixed
        rows.append({"d": d, "fixed": fixed, "eval": as_int, "eval_repr": element_repr(value),
                     "match": match})
    return rows


class TestVerifyCsp:
    def test_promotion_table_222(self):
        report = syt_csp_report(Partition((2, 2, 2)))
        assert report["verdict"]
        assert [r["fixed"] for r in report["rows"]] == [5, 0, 2, 3, 2, 0]

    def test_promotion_table_22_bound_3(self):
        report = cst_csp_report(Partition((2, 2)), 3)
        assert report["verdict"]
        assert [r["fixed"] for r in report["rows"]] == [6, 0, 0]

    def test_row_zero_is_cardinality(self):
        report = syt_csp_report(Partition((3, 2)), modulus=30)
        assert report["rows"][0]["eval"] == len(enumerate_syt(Partition((3, 2))))

    def test_negative_control_331(self):
        report = syt_csp_report(Partition((3, 3, 1)), modulus=195)
        assert not report["verdict"]
        assert report["rows"][1]["eval"] is None

    def test_modulus_must_be_multiple_of_order(self):
        action = syt_promotion_action(Partition((2, 2, 2)))
        with pytest.raises(ValueError):
            verify_csp(action, expand(q_hook_product(Partition((2, 2, 2)))), 4)

    def test_report_round_trips_through_json(self):
        report = syt_csp_report(Partition((2, 2)))
        assert json.loads(json.dumps(report)) == report

    @pytest.fixture
    def checked(self, monkeypatch):
        """Reports whose verify_csp rows are held against the oracle's."""
        verdicts = []

        def both(action, polynomial, modulus, *args, modulus_comparison=False, **kwargs):
            report = verify_csp(action, polynomial, modulus, *args,
                                modulus_comparison=modulus_comparison, **kwargs)
            expected = verify_csp_rows_oracle(action, polynomial, modulus, modulus_comparison)
            assert report["rows"] == expected, (report["parameters"], modulus)
            verdicts.append(report["verdict"])
            return report

        monkeypatch.setattr(sieving, "verify_csp", both)
        return verdicts

    def test_syt_rows_equal_the_per_power_oracle(self, checked):
        """Integer rows are copied across each class gcd(d, m) = g; the
        non-rectangles among these fail, so irrational rows are covered."""
        for shape in all_partitions_up_to(8):
            syt_csp_report(shape)
        syt_csp_report(Partition((3, 3, 1)), modulus=195)
        assert len(checked) == 68 and not all(checked)

    def test_cst_and_content_rows_equal_the_per_power_oracle(self, checked):
        for shape in rectangles_up_to(7):
            for bound in range(1, 7):
                cst_csp_report(shape, bound)
        content_csp_report(Partition((2, 2)), Composition((1, 1, 1, 1)), 1)
        content_csp_report(Partition((3, 3)), Composition((1, 2, 1, 2)), 2)
        assert len(checked) == 16 * 6 + 2


class TestFactoredPredictedSides:
    def test_no_verdict_expands_a_factorial_or_divides(self, monkeypatch):
        """The q-hook, q-binomial and q-Catalan sides are reduced mod
        q^m - 1 from their cyclotomic factors, and residues mod Phi_m come
        from a table: no verdict calls q_factorial, exact_div or divmod,
        which only the tests' oracles define."""
        from cyclosieve import cyclotomic, qpolys

        def forbidden(*args):
            raise AssertionError("called on a verdict path")

        monkeypatch.setattr(qpolys_oracles, "q_factorial", forbidden)
        monkeypatch.setattr(qpolys_oracles, "exact_div", forbidden)
        monkeypatch.setattr(qpolys_oracles, "poly_divmod", forbidden)
        qpolys.cyclotomic_polynomial.cache_clear()
        cyclotomic._power_residues.cache_clear()
        reports = [syt_csp_report(Partition(lam)) for lam in ((2, 2, 2), (3, 3, 1), (3, 3, 3), (40,))]
        reports += [bn_csp_report(2), handshake_csp_report(4), noncrossing_csp_report(4),
                    subsets_csp_report(6, 3), multisets_csp_report(4, 3)]
        assert [r["verdict"] for r in reports] == [True, False, True, True, True, True, True, True, True]


class TestPromotionAction:
    def test_fixed_content_requires_symmetry(self):
        with pytest.raises(ValueError):
            promotion_action(Partition((2, 2)), 4, Composition((2, 1, 1, 0)), 2)

    def test_orbit_sizes_22_bound_3(self):
        assert promotion_action(Partition((2, 2)), 3).orbit_sizes() == [3, 3]

    def test_orbit_sizes_222(self):
        assert syt_promotion_action(Partition((2, 2, 2))).orbit_sizes() == [2, 3]


class TestContentCsp:
    def test_22_content_1111(self):
        report = content_csp_report(Partition((2, 2)), Composition((1, 1, 1, 1)), 2)
        assert report["verdict"] and report["modulus_comparison"]

    def test_22_content_22(self):
        report = content_csp_report(Partition((2, 2)), Composition((2, 2)), 1)
        assert report["verdict"]

    def test_syt_special_case(self):
        report = content_csp_report(Partition((2, 2, 2)), Composition((1,) * 6), 1)
        assert report["verdict"]
        assert [r["fixed"] for r in report["rows"]] == [5, 0, 2, 3, 2, 0]


class TestClassicalTheorems:
    def test_subsets_rotation(self):
        for n in range(1, 9):
            for k in range(0, min(n, 4) + 1):
                if k:
                    assert subsets_csp_report(n, k)["verdict"], (n, k)

    def test_multisets_rotation(self):
        for n in range(1, 9):
            for k in range(1, 5):
                assert multisets_csp_report(n, k)["verdict"], (n, k)


class TestHandshakesAndNoncrossing:
    def test_catalan_counts(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        for n in range(1, 9):
            assert len(handshake_patterns(n)) == catalan[n]
            assert len(noncrossing_partitions(n)) == catalan[n]

    def test_noncrossing_partitions_match_the_brute_force_oracle(self):
        """Up to n = 9."""
        for n in range(10):
            assert noncrossing_partitions(n) == noncrossing_partitions_oracle(n), n

    def test_set_level_generators_equal_the_tuple_oracles(self):
        """Rotation and the Kreweras complement on the whole set give the
        generators of the tuple oracles, with the elements in the order of
        their partner and next-in-block arrays."""

        def partner_array(h, n):
            out = [0] * (2 * n)
            for a, b in h:
                out[a - 1], out[b - 1] = b - 1, a - 1
            return out

        def next_in_block(pi, n):
            out = [0] * n
            for block in pi:
                for a, b in zip(block, block[1:] + block[:1]):
                    out[a - 1] = b - 1
            return out

        for n in range(10):
            hs = sorted(handshake_patterns(n), key=lambda h: partner_array(h, n))
            partners = sieving.handshake_partners(n).tolist()
            assert sorted(partners) == [partner_array(h, n) for h in hs], n
            index = {h: i for i, h in enumerate(hs)}
            expected = [index[rotate_matching(h, n)] for h in hs]
            assert handshake_action(n).generator.tolist() == expected, n
            pis = sorted(noncrossing_partitions(n), key=lambda pi: next_in_block(pi, n))
            index = {pi: i for i, pi in enumerate(pis)}
            expected = [index[kreweras_complement(pi, n)] for pi in pis]
            assert noncrossing_action(n).generator.tolist() == expected, n

    def test_catalan_actions_use_no_promotion(self, monkeypatch):
        """Rotation of matchings stays a check apart from promotion on
        SYT(n, n): both reports pass with the promotion kernel broken."""
        from cyclosieve import jeudetaquin

        def refuse(*args, **kwargs):
            raise AssertionError("promotion ran")

        for module in (jeudetaquin, sieving):
            monkeypatch.setattr(module, "promotion_permutation", refuse)
        monkeypatch.setattr(jeudetaquin, "_promote_words", refuse)
        for n in range(1, 9):
            assert handshake_csp_report(n)["verdict"], n
            assert noncrossing_csp_report(n)["verdict"], n

    def test_a_set_that_is_not_closed_is_refused(self, monkeypatch):
        """The images must be the set: a pattern dropped from SYT(n, n)
        makes both actions raise before any cycle is read."""
        enumerate_syt = sieving.enumerate_syt
        monkeypatch.setattr(sieving, "enumerate_syt", lambda *a, **k: enumerate_syt(*a, **k)[1:])
        for action in (handshake_action, noncrossing_action):
            with pytest.raises(ValueError, match="does not permute"):
                action(4)

    def test_kreweras_matches_the_interval_oracle(self):
        for n in range(9):
            for pi in noncrossing_partitions(n):
                assert kreweras_complement(pi, n) == kreweras_complement_oracle(pi, n), pi

    def test_catalan_actions_sieve(self):
        for n in range(1, 7):
            assert handshake_csp_report(n)["verdict"], n
            assert noncrossing_csp_report(n)["verdict"], n

    def test_kreweras_order_divides_2n(self):
        for n in range(1, 7):
            action = noncrossing_action(n)
            assert (2 * n) % action.order == 0

    def test_kreweras_is_a_complement(self):
        """K(pi) joins pi to the full block and meets it at singletons."""
        for n in range(1, 8):
            full = tuple([tuple(range(1, n + 1))])
            for pi in noncrossing_partitions(n):
                comp = kreweras_complement(pi, n)
                # meet in the partition lattice: blockwise intersections
                owner_pi = {x: i for i, b in enumerate(pi) for x in b}
                owner_c = {x: i for i, b in enumerate(comp) for x in b}
                meets = {}
                for x in range(1, n + 1):
                    meets.setdefault((owner_pi[x], owner_c[x]), []).append(x)
                assert all(len(v) == 1 for v in meets.values())
                # join: connectivity of the union relation reaches everything
                parent = list(range(n + 1))

                def find(a):
                    while parent[a] != a:
                        parent[a] = parent[parent[a]]
                        a = parent[a]
                    return a

                for blocks in (pi, comp):
                    for block in blocks:
                        for a, b in zip(block, block[1:]):
                            parent[find(a)] = find(b)
                assert len({find(x) for x in range(1, n + 1)}) == 1

    def test_empty_matching_is_the_empty_tableau(self):
        assert handshake_to_tableau(()) == Tableau(())
        assert handshake_patterns(0) == ((),)

    def test_empty_tableau_is_the_empty_matching(self):
        assert tableau_to_handshake(Tableau(())) == ()

    def test_white_bijection_intertwines_rotation_with_promotion(self):
        for n in range(1, 7):
            for h in handshake_patterns(n):
                t = handshake_to_tableau(h)
                assert t.is_standard() and t.shape == Partition((n, n))
                assert tableau_to_handshake(t) == h
                assert handshake_to_tableau(rotate_matching(h, n)) == promote(t, 2 * n)

    def test_trace_bijection_conjugates_kreweras_to_rotation(self):
        """Kreweras complementation maps to rotation by -1 (its inverse
        generates the same cyclic action)."""
        for n in range(1, 7):
            for pi in noncrossing_partitions(n):
                h = noncrossing_to_handshake(pi, n)
                kh = noncrossing_to_handshake(kreweras_complement(pi, n), n)
                back = rotate_matching(kh, n)
                assert back == h

    def test_ascent_and_extended_descent_data_determine_tableau(self):
        def ascents(t):
            pos = {t.rows[r][c]: (r, c) for r in range(2) for c in range(len(t.rows[r]))}
            out = set()
            for i in range(1, t.size):
                (r1, c1), (r2, c2) = pos[i], pos[i + 1]
                if r2 < r1 and c2 >= c1:
                    out.add(i)
            return frozenset(out)

        for n in range(1, 7):
            seen = {}
            for t in enumerate_syt(Partition((n, n))):
                key = (ascents(t), extended_descent_set(t))
                assert key not in seen
                seen[key] = t

    def test_proposition_8_3(self):
        for n in range(1, 7):
            hs = handshake_patterns(n)
            w0 = long_element(2 * n)
            chi_wo = mn_character(Partition((n, n)), cycle_type(w0))
            chi_woc = mn_character(Partition((n, n)), cycle_type(w0 * long_cycle(2 * n)))
            expected_r = chi_wo if n % 2 == 0 else -chi_wo
            fixed_r = sum(1 for h in hs if reflect_matching(h, n) == h)
            assert fixed_r == expected_r
            fixed_rs = sum(
                1 for h in hs if rotate_matching(reflect_matching(h, n), n) == h
            )
            assert fixed_rs == chi_woc
            # reflection corresponds to evacuation under the bijection
            for h in hs:
                assert handshake_to_tableau(reflect_matching(h, n)) == evacuate(
                    handshake_to_tableau(h), 2 * n
                )
            # and the noncrossing reflection matches as well
            ncs = noncrossing_partitions(n)
            fixed_nc = sum(1 for p in ncs if reflect_noncrossing(p, n) == p)
            assert fixed_nc == expected_r


class TestSizeCaps:
    @pytest.mark.parametrize("family", ["handshake", "noncrossing"])
    @pytest.mark.parametrize("args", [["14"], ["13", "--cap", "700000"]])
    def test_catalan_families_are_refused_from_their_count(self, monkeypatch, capsys, family, args):
        """The cap is the only size limit of the Catalan families: C_14 =
        2,674,440 is over the default cap and C_13 = 742,900 over 700,000,
        and either is refused before SYT(n, n) is enumerated."""
        from cyclosieve import tableaux
        from cyclosieve.cli import run

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated past the cap")

        monkeypatch.delenv("CYCLOSIEVE_CAP", raising=False)
        monkeypatch.setattr(tableaux, "enumerate_syt", refuse)
        monkeypatch.setattr(sieving, "enumerate_syt", refuse)
        assert run(["csp", family, *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "exceed the cap" in err, err

    @pytest.mark.parametrize("family, n, message", [
        ("handshake", 14, "2674440 handshake patterns exceed the cap 1000000"),
        ("noncrossing", 14, "2674440 noncrossing partitions exceed the cap 1000000"),
        ("bnwords", 5, "701149020 reduced words exceed the cap 1000000"),
        ("handshake", 30000, "handshake patterns at n = 30000 exceed the cap 1000000: "
                             "there are 2674440 already at n = 14"),
        ("noncrossing", 300000, "noncrossing partitions at n = 300000 exceed the cap 1000000: "
                                "there are 2674440 already at n = 14"),
        ("bnwords", 1000, "reduced words at n = 1000 exceed the cap 1000000: "
                          "there are 701149020 already at n = 5"),
    ])
    def test_first_count_over_the_cap_refuses(self, monkeypatch, capsys, family, n, message):
        """The sizes grow with n, so they are taken at 1, 2, ... and the first
        over the cap refuses n, before any predicted side is built: C_30000
        has 18,000 digits, too many to print, and f^(1000^1000) was still
        being computed after 40 s."""
        from cyclosieve.cli import run

        def refuse(*args, **kwargs):
            raise AssertionError("computed past the cap")

        monkeypatch.delenv("CYCLOSIEVE_CAP", raising=False)
        for name in ("q_catalan_product", "q_hook_product", "enumerate_syt", "bn_reduced_words"):
            monkeypatch.setattr(sieving, name, refuse)
        assert run(["csp", family, str(n)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_bn_word_cap(self, monkeypatch):
        """701,149,020 words for n = 5 are refused before any is built."""
        from cyclosieve import CapExceeded

        def refuse(n):
            raise AssertionError("built past the cap")

        monkeypatch.setattr(sieving, "bn_reduced_words", refuse)
        with pytest.raises(CapExceeded):
            sieving.bn_word_action(5)


class TestBnWords:
    def test_lengths_and_counts(self):
        """The longest signed permutation has length n^2, and SYT(n^n) count its reduced words."""
        from cyclosieve.tableaux import syt_count

        for n in range(1, 5):
            words = bn_reduced_words(n)
            assert words.dtype == np.int8
            assert words.shape == (syt_count(Partition((n,) * n)), n * n)

    def test_word_list_small(self):
        assert bn_reduced_words_dfs(1) == [(0,)]
        assert bn_reduced_words_dfs(2) == [(0, 1, 0, 1), (1, 0, 1, 0)]
        assert len(bn_reduced_words_dfs(3)) == 42

    def test_array_words_and_rotation_match_the_dfs_oracle(self):
        """Sorted, the array's rows are the DFS words, and the rotation
        generator is that of the tuple map w -> w[1:] + w[:1] on them."""
        for n in range(1, 5):
            words = bn_reduced_words_dfs(n)
            assert sorted(map(tuple, bn_reduced_words(n).tolist())) == words, n
            by_map = action_of_map(words, lambda w: w[1:] + w[:1])
            assert sieving.bn_word_action(n).generator.tolist() == by_map.generator.tolist(), n

    def test_words_are_reduced(self):
        """Read from the identity, no letter is a right descent of what
        precedes it, so each raises the length by one, and the word ends at w0."""
        for n in range(1, 4):
            for word in bn_reduced_words(n).tolist():
                w = tuple(range(1, n + 1))
                for i in word:
                    assert i not in signed_right_descents(w), word
                    w = signed_apply_right(w, i)
                assert w == bn_longest(n), word

    def test_a_dropped_or_duplicated_word_is_refused(self, monkeypatch):
        """A word missing from the set fails the count against SYT(n^n); a
        word written over another makes rotation refuse the set."""
        build = sieving.bn_reduced_words

        def duplicate(n):
            words = build(n)
            words[1] = words[0]
            return words

        monkeypatch.setattr(sieving, "bn_reduced_words", lambda n: build(n)[1:])
        with pytest.raises(AssertionError, match="disagrees with the hook formula"):
            sieving.bn_word_action(3)
        monkeypatch.setattr(sieving, "bn_reduced_words", duplicate)
        with pytest.raises(ValueError, match="rotation does not permute"):
            sieving.bn_word_action(3)

    def test_word_rotation_sieves(self):
        for n in range(1, 4):
            assert bn_csp_report(n)["verdict"], n


class TestDihedral:
    def test_full_sweep(self):
        for lam in rectangles_up_to(8):
            for k in range(1, 7):
                assert dihedral_report(lam, k)["verdict"], (tuple(lam), k)

    def test_single_row(self):
        report = dihedral_report(Partition((3,)), 3)
        # the unique standard filling of a single row is fixed by e and ej
        assert report["syt"]["e"]["fixed"] == 1 and report["syt"]["ej"]["fixed"] == 1
        assert report["verdict"]

    def test_22_bound_3_counts(self):
        report = dihedral_report(Partition((2, 2)), 3)
        assert report["cst"]["e"]["fixed"] == 2 and report["cst"]["ej"]["fixed"] == 2
        assert report["verdict"]

    def test_cycle_type_formulas(self):
        """w0 pairs i with n + 1 - i; w0 c fixes n, and n / 2 when n is even."""
        for n in range(0, 9):
            pairs, odd = divmod(n, 2)
            assert cycle_type(long_element(n)) == Partition((2,) * pairs + (1,) * odd)
            fixed = min(n, 2 - odd)
            w0c = Partition((2,) * ((n - fixed) // 2) + (1,) * fixed)
            assert cycle_type(long_element(n) * long_cycle(n)) == w0c

    def test_non_rectangular_rejected(self):
        with pytest.raises(ValueError):
            dihedral_report(Partition((2, 1)), 3)

    def test_counts_match_per_tableau_oracle(self):
        """The set-level counts equal the per-tableau formulas
        #{T : e(T) = T} and #{T : e(pr(T)) = T}."""

        def oracle(elements, k):
            return (
                sum(1 for t in elements if evacuate(t, k) == t),
                sum(1 for t in elements if evacuate(promote(t, k), k) == t),
            )

        for lam in rectangles_up_to(8):
            syt_counts = oracle(enumerate_syt(lam), lam.size)
            for k in range(1, 6):
                report = dihedral_report(lam, k)
                assert (report["cst"]["e"]["fixed"], report["cst"]["ej"]["fixed"]) == oracle(
                    enumerate_cst(lam, k), k
                ), (tuple(lam), k)
                assert (report["syt"]["e"]["fixed"], report["syt"]["ej"]["fixed"]) == syt_counts, tuple(lam)

    @pytest.mark.parametrize("broken", [
        # demotion, the inverse of promotion: not an involution, although demote∘promote is
        lambda words, shape, k: np.argsort(promotion_permutation(words, shape, k)),
        # an involution that does not invert promotion by conjugation
        lambda words, shape, k: np.arange(len(words)),
    ], ids=["demotion", "identity"])
    def test_broken_evacuation_raises(self, monkeypatch, broken):
        from cyclosieve import sieving

        monkeypatch.setattr(sieving, "evacuation_permutation", broken)
        with pytest.raises(AssertionError):
            dihedral_report(Partition((2, 2)), 3)

    def test_promotion_replaced_by_evacuation_raises_on_odd_bounds(self, monkeypatch):
        """With evacuation's images as promotion's, both involution checks
        pass: E∘E = id.  On an odd bound P^k = E is not the identity and the
        reflection E∘P = id fixes every element, not as many as E; on an even
        bound E and P = E make a true dihedral action, and nothing is raised."""

        def evacuation_images(words, shape, k, times):
            return words[evacuation_permutation(words, Partition(shape), k)]

        monkeypatch.setattr(sieving, "_promote_words", evacuation_images)
        for lam, k in ((Partition((2, 2)), 3), (Partition((2,)), 3), (Partition((2, 2, 2)), 5)):
            with pytest.raises(AssertionError, match="conjugacy class|is not the identity"):
                dihedral_report(lam, k)
        assert not dihedral_report(Partition((2, 2)), 4)["verdict"]

    def test_certificate_on_small_dihedral_actions(self):
        """E = (1 2) and P = (0 1 2) satisfy both involution checks; P has
        order 3, so the certificate holds for k = 3 and 6 and fails for k = 5
        on P^k alone, since all reflections of D_3 fix one point.  E = id and
        P = (0 1) pass for k = 2; for k = 3 the reflection E∘P, which fixes
        no point, is in the class of E, which fixes two."""
        evac, rotation = np.array([0, 2, 1]), np.array([1, 2, 0])
        assert sieving._dihedral_certificate(evac, rotation, 3) == (1, 1)
        assert sieving._dihedral_certificate(evac, rotation, 6) == (1, 1)
        with pytest.raises(AssertionError, match="promotion to the power 5 is not the identity"):
            sieving._dihedral_certificate(evac, rotation, 5)
        identity, swap = np.array([0, 1]), np.array([1, 0])
        assert sieving._dihedral_certificate(identity, swap, 2) == (2, 0)
        with pytest.raises(AssertionError, match=r"promotion\^1 fixes 0 elements, not the 2"):
            sieving._dihedral_certificate(identity, swap, 3)

    def test_predictions_match_signed_schur_evaluations(self):
        """Both CST predictions against (-1)^kappa s_shape at +/-1 arguments,
        summed tableau by tableau: alternating signs, and for even bounds on
        oddly many rows the final sign repeated.  Bound 0 takes no arguments
        at all, so a nonempty shape predicts 0 there."""
        for lam in [Partition(())] + list(rectangles_up_to(12)):
            sign = (-1) ** kappa(lam)
            for k in range(9):
                alternating = tuple((-1) ** i for i in range(k))
                e = sign * schur_evaluate(lam, alternating)
                if k % 2 == 0 and len(lam) % 2:
                    repeated_tail = alternating[:-1] + (1,) if k else ()
                    ej = sign * schur_evaluate(lam, repeated_tail)
                else:
                    ej = e
                assert evacuation_fixed_expected(lam, k) == e, (tuple(lam), k)
                assert evacuation_promotion_fixed_expected(lam, k) == ej, (tuple(lam), k)
