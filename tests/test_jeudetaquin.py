import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import all_partitions_up_to, compositions_of, rectangles_up_to

from cyclosieve import (
    Composition,
    Partition,
    Tableau,
    enumerate_cst,
    enumerate_rst,
    enumerate_syt,
    extended_descent_set,
)
from cyclosieve.jeudetaquin import evacuation_permutation, promotion_permutation
from oracles.jeudetaquin import demote, evacuate, promote, promote_power, semistandardize, standardize
from oracles.tableaux import is_row_strict, rotated

T_EXAMPLE = Tableau([(1, 1, 3, 4), (3, 3, 4, 6), (4, 5, 5), (6,)])


def bender_knuth(t: Tableau, i: int) -> Tableau:
    """The Bender-Knuth involution t_i, computed without any sliding.

    An i is free when no i+1 sits below it, an i+1 when no i sits above it.
    The free cells of each row are contiguous; a free i's followed by b free
    (i+1)'s become b i's followed by a (i+1)'s.
    """
    rows = t.rows

    def free(r: int, c: int) -> bool:
        if rows[r][c] == i:
            return not (r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r + 1][c] == i + 1)
        return rows[r][c] == i + 1 and not (r > 0 and rows[r - 1][c] == i)

    out = []
    for r, row in enumerate(rows):
        cols = [c for c in range(len(row)) if free(r, c)]
        b = sum(1 for c in cols if row[c] == i + 1)
        new = list(row)
        for j, c in enumerate(cols):
            new[c] = i if j < b else i + 1
        out.append(new)
    return Tableau(out)


def apply_bender_knuth(t: Tableau, word) -> Tableau:
    """Apply t_w for the letters w of ``word``, first letter first."""
    for i in word:
        t = bender_knuth(t, i)
    return t


class TestPromotionExamples:
    def test_worked_display_bound_6(self):
        assert promote(T_EXAMPLE, 6).rows == ((1, 1, 2, 4), (2, 4, 5, 5), (4, 6, 6), (5,))

    def test_worked_display_bound_7(self):
        assert promote(T_EXAMPLE, 7).rows == ((2, 2, 4, 5), (4, 4, 5, 7), (5, 6, 6), (7,))

    def test_single_row_fixed(self):
        t = Tableau([(1, 2, 3)])
        assert promote(t, 3) == t

    def test_entry_above_bound_rejected(self):
        with pytest.raises(ValueError):
            promote(T_EXAMPLE, 5)


class TestRoundTripAndContent:
    def test_round_trip_and_content_rotation(self):
        """demote o promote = id and the content rotates, |shape|<=8, k<=5."""
        for size in range(1, 9):
            for lam in all_partitions_up_to(size):
                if lam.size != size:
                    continue
                for k in range(1, 6):
                    for t in enumerate_cst(lam, k):
                        jt = promote(t, k)
                        assert jt.is_column_strict(k)
                        assert jt.content(k) == rotated(t.content(k))
                        assert demote(jt, k) == t
                        assert promote(demote(t, k), k) == t

    def test_demote_is_double_promote_on_order_3_orbit(self):
        for t in enumerate_cst(Partition((2, 2)), 3):
            assert demote(t, 3) == promote(promote(t, 3), 3)


class TestBenderKnuthOracle:
    def test_promotion_demotion_evacuation_from_involutions(self):
        """On every CST with |shape| <= 7 and k <= 5:
        promotion = t_1 ... t_{k-1} (t_{k-1} applied first), demotion is the
        reverse composition, and evacuation = t_1 (t_2 t_1) ... (t_{k-1} ... t_1)."""
        for lam in all_partitions_up_to(7):
            for k in range(1, 6):
                evac_word = [i for top in range(k - 1, 0, -1) for i in range(1, top + 1)]
                for t in enumerate_cst(lam, k):
                    assert promote(t, k) == apply_bender_knuth(t, range(k - 1, 0, -1))
                    assert demote(t, k) == apply_bender_knuth(t, range(1, k))
                    assert evacuate(t, k) == apply_bender_knuth(t, evac_word)


class TestExtendedDescentRotation:
    def test_rotation_on_rectangles_up_to_10(self):
        for lam in rectangles_up_to(10):
            n = lam.size
            for t in enumerate_syt(lam):
                ext = extended_descent_set(t)
                rotated = frozenset(i % n + 1 for i in ext)
                assert extended_descent_set(promote(t, n)) == rotated


class TestPromotionOrder:
    def test_power_n_is_identity_on_rectangles_up_to_12(self):
        for lam in rectangles_up_to(12):
            n = lam.size
            for t in enumerate_syt(lam):
                assert promote_power(t, n, n) == t

    def test_cst_order_is_bound_unless_degenerate(self):
        """The order of promotion on CST(shape, k) is k whenever k exceeds the
        number of rows; with k equal to the number of rows the set is a
        singleton and the order collapses to 1."""
        for lam in rectangles_up_to(8):
            for k in range(1, 7):
                tabs = enumerate_cst(lam, k)
                if not tabs:
                    continue
                order = 1
                current = {t: promote(t, k) for t in tabs}
                state = dict(current)
                while any(state[t] != t for t in tabs):
                    order += 1
                    state = {t: promote(state[t], k) for t in tabs}
                assert order == (k if k > len(lam) else 1), (tuple(lam), k, order)

    def test_rst_order_mirrors_cst(self):
        for lam in rectangles_up_to(6):
            for k in range(1, 6):
                tabs = enumerate_rst(lam, k)
                if not tabs:
                    continue
                order = 1
                state = {t: promote(t.transpose(), k).transpose() for t in tabs}
                while any(state[t] != t for t in tabs):
                    order += 1
                    state = {t: promote(state[t].transpose(), k).transpose() for t in tabs}
                ncols = lam[0]
                assert order == (k if k > ncols else 1), (tuple(lam), k, order)


class TestEvacuation:
    def test_involution_and_content_reversal(self):
        for size in range(1, 9):
            for lam in all_partitions_up_to(size):
                if lam.size != size:
                    continue
                for k in range(1, 6):
                    for t in enumerate_cst(lam, k):
                        e = evacuate(t, k)
                        assert e.is_column_strict(k)
                        assert e.content(k) == t.content(k)[::-1]
                        assert evacuate(e, k) == t

    def test_single_column_fixed(self):
        t = Tableau([(1,), (2,), (3,)])
        assert evacuate(t) == t

    def test_rectangle_is_rotate_complement(self):
        """On rectangles no sliding happens: e is rotation plus complement."""
        for lam in [Partition((2, 2)), Partition((3, 3)), Partition((4,))]:
            k = lam.size
            for t in enumerate_syt(lam):
                nrows, ncols = len(lam), lam[0]
                rotated = [
                    [k + 1 - t.rows[nrows - 1 - r][ncols - 1 - c] for c in range(ncols)]
                    for r in range(nrows)
                ]
                assert evacuate(t, k) == Tableau(rotated)

    def test_conjugation_relation_eje(self):
        """e j e = j^{-1} on rectangles."""
        for lam in rectangles_up_to(8):
            for k in range(1, 6):
                for t in enumerate_cst(lam, k):
                    lhs = evacuate(promote(evacuate(t, k), k), k)
                    assert lhs == demote(t, k)


class TestStandardize:
    def test_displayed_standardization(self):
        p = Tableau([(1, 7, 8), (1, 9), (2, 9)])
        assert is_row_strict(p)
        assert p.content(9) == Composition((2, 1, 0, 0, 0, 0, 1, 1, 2))
        assert standardize(p).rows == ((1, 4, 5), (2, 6), (3, 7))

    def test_standard_tableau_fixed(self):
        for t in enumerate_syt(Partition((3, 2))):
            assert standardize(t) == t

    def test_injective_on_each_content_class(self):
        """std is injective on RST(shape, k, alpha) for every fixed alpha."""
        for k in range(1, 5):
            for alpha in compositions_of(4, k):
                seen = {}
                for t in enumerate_rst(Partition((2, 2)), k, alpha):
                    s = standardize(t)
                    assert s.is_standard()
                    assert s.rows not in seen
                    seen[s.rows] = t

    def test_non_row_strict_rejected(self):
        with pytest.raises(ValueError):
            standardize(Tableau([(1, 1), (2, 2)]))


class TestSemistandardize:
    def test_displayed_collapses(self):
        t = Tableau([(1, 3, 4), (2, 5), (6, 7)])
        assert semistandardize(t, Composition((1, 2, 3, 1))) is None
        u = Tableau([(1, 2, 4), (3, 5), (6, 7)])
        rst = semistandardize(u, Composition((1, 2, 3, 1)))
        assert rst is not None and rst.rows == ((1, 2, 3), (2, 3), (3, 4))

    def test_identity_content(self):
        for t in enumerate_syt(Partition((3, 1))):
            assert semistandardize(t, Composition((1,) * 4)) == t

    def test_round_trip_with_standardize(self):
        """std(rst_alpha(T)) = T on semistandardizable tableaux; every
        row-strict tableau arises this way."""
        lam = Partition((2, 2, 1))
        n = lam.size
        for k in range(1, 5):
            for alpha in compositions_of(n, k):
                via = {}
                for t in enumerate_syt(lam):
                    rst = semistandardize(t, alpha)
                    if rst is not None:
                        assert standardize(rst) == t
                        via[rst.rows] = t
                direct = {u.rows for u in enumerate_rst(lam, k, alpha)}
                assert set(via) == direct


class TestRowStrictPromotion:
    """Promotion on row-strict tableaux: transpose, promote, transpose back."""

    def test_intertwines_semistandardization(self):
        """j o rst_alpha = rst_(rotated alpha) o j^(alpha_k) on rectangles."""
        for lam in rectangles_up_to(8):
            n = lam.size
            for k in range(1, 6):
                for alpha in compositions_of(n, k):
                    rotated_alpha = rotated(alpha)
                    for t in enumerate_syt(lam):
                        lhs_in = semistandardize(t, alpha)
                        rhs_base = semistandardize(promote_power(t, n, alpha[-1]), rotated_alpha)
                        if lhs_in is None:
                            assert rhs_base is None
                            continue
                        assert rhs_base is not None
                        assert promote(lhs_in.transpose(), k).transpose() == rhs_base

    def test_round_trip(self):
        for t in enumerate_rst(Partition((2, 2)), 4):
            assert demote(promote(t.transpose(), 4), 4).transpose() == t


def _permutation_by_promote(elements, k, power=1):
    """The oracle: apply the per-tableau promote_power and look each image up."""
    index = {t: i for i, t in enumerate(elements)}
    return [index[promote_power(t, k, power)] for t in elements]


def _benchmark_content_cases():
    """(shape, content, power) of every ``csp content`` op of the benchmark's
    cst workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases = []
    for op in workloads.cst_ops():
        if op[:2] == ("csp", "content"):
            option = dict(zip(op[2::2], op[3::2]))
            cases.append((
                Partition(int(p) for p in option["--shape"].split(",")),
                Composition(int(a) for a in option["--content"].split(",")),
                int(option["--power"]),
            ))
    return cases


def _words(tableaux, k):
    """Hand-built packed words: each tableau's row word, then 0 and k + 1."""
    return np.array([[x for row in rows for x in row] + [0, k + 1] for rows in tableaux], dtype=np.int8)


class TestPromotionPermutation:
    """The set-level kernel on packed words against the per-tableau
    promote/promote_power on the decoded tableaux."""

    def test_every_syt_up_to_10_cells(self):
        for lam in all_partitions_up_to(10):
            words, tabs = enumerate_syt(lam, packed=True), enumerate_syt(lam)
            assert promotion_permutation(words, lam, lam.size).tolist() == _permutation_by_promote(tabs, lam.size)

    def test_every_cst_up_to_8_cells_and_bound_5(self):
        for lam in all_partitions_up_to(8):
            for k in range(1, 6):
                words, tabs = enumerate_cst(lam, k, packed=True), enumerate_cst(lam, k)
                assert promotion_permutation(words, lam, k).tolist() == _permutation_by_promote(tabs, k), (lam, k)

    def test_benchmark_fixed_content_powers(self):
        cases = _benchmark_content_cases()
        assert cases
        for lam, alpha, power in cases:
            k = len(alpha)
            words, tabs = enumerate_cst(lam, k, alpha, packed=True), enumerate_cst(lam, k, alpha)
            expected = _permutation_by_promote(tabs, k, power)
            assert promotion_permutation(words, lam, k, power).tolist() == expected, (lam, alpha, power)

    def test_every_power_and_demotion(self):
        """Every power from 0 to 5; a negative power, which would demote, is refused."""
        lam = Partition((3, 2))
        words, tabs = enumerate_cst(lam, 4, packed=True), enumerate_cst(lam, 4)
        for power in range(6):
            assert promotion_permutation(words, lam, 4, power).tolist() == _permutation_by_promote(tabs, 4, power)
        with pytest.raises(ValueError, match="nonnegative"):
            promotion_permutation(words, lam, 4, -1)

    def test_edge_cases(self):
        column = Partition((1, 1, 1))
        assert promotion_permutation(enumerate_cst(column, 2, packed=True), column, 2).tolist() == []
        assert promotion_permutation(_words([[(1,)]], 1), Partition((1,)), 1).tolist() == [0]
        one_row = Partition((4,))
        assert promotion_permutation(enumerate_cst(one_row, 1, packed=True), one_row, 1).tolist() == [0]
        assert promotion_permutation(_words([[]], 3), Partition(()), 3).tolist() == [0]
        assert promotion_permutation(enumerate_cst(Partition(()), 3, packed=True), Partition(()), 3).tolist() == [0]

    def test_returns_an_intp_array(self):
        """Both kernels hand the permutation on as one np.intp array."""
        lam = Partition((2, 2))
        words = enumerate_cst(lam, 3, packed=True)
        for permutation in (promotion_permutation(words, lam, 3), evacuation_permutation(words, lam, 3)):
            assert isinstance(permutation, np.ndarray)
            assert permutation.dtype == np.intp and permutation.shape == (len(words),)

    def test_entries_beyond_a_byte(self):
        """k = 200 (the set of ``csp syt --shape 200``) needs a wider type
        than int8; on two rows the big entries travel."""
        row = Partition((200,))
        words, tabs = enumerate_syt(row, packed=True), enumerate_syt(row)
        assert promotion_permutation(words, row, 200).tolist() == _permutation_by_promote(tabs, 200) == [0]
        lam = Partition((130, 1))
        words, tabs = enumerate_syt(lam, packed=True), enumerate_syt(lam)
        assert promotion_permutation(words, lam, 131).tolist() == _permutation_by_promote(tabs, 131)

    def test_rejects_non_column_strict_input(self):
        lam = Partition((2, 2))
        for bad in (
            [(2, 1), (3, 4)],  # a row decreases
            [(1, 2), (1, 3)],  # a column does not increase
            [(1, 2), (3, 5)],  # an entry above k
        ):
            with pytest.raises(ValueError, match="not a column-strict tableau"):
                promote(Tableau(bad), 4)
            with pytest.raises(ValueError, match="not a column-strict tableau"):
                promotion_permutation(_words([bad], 4), lam, 4)

    def test_rejects_a_set_promotion_does_not_permute(self):
        lam = Partition((2, 2))
        words = enumerate_cst(lam, 3, packed=True)
        with pytest.raises(ValueError, match="does not permute"):
            promotion_permutation(words[:-1], lam, 3)  # not closed
        with pytest.raises(ValueError, match="does not permute"):
            promotion_permutation(words[::-1], lam, 3)  # not sorted
        with pytest.raises(ValueError, match="does not permute"):
            promotion_permutation(np.concatenate([words, words[-1:]]), lam, 3)  # not distinct
        with pytest.raises(ValueError, match="does not permute"):
            promotion_permutation(_words([[(1, 1)]] * 2, 1), Partition((2,)), 1)  # a fixed point, twice
        zero = [(0, 1), (2, 3)]  # column-strict, but no promotion orbit stays in a set holding it
        with pytest.raises(ValueError, match="does not permute"):
            promotion_permutation(_words([zero], 3), lam, 3)

    def test_packed_words_take_the_same_path(self):
        """SYT(shape) is the standard-content class of CST(shape, n): both
        enumerators pack it into the same array, which promotes the same
        way; every malformed array is rejected."""
        for lam in all_partitions_up_to(8):
            n = lam.size
            words = enumerate_syt(lam, packed=True)
            standard = enumerate_cst(lam, n, Composition((1,) * n), packed=True)
            assert words.dtype == standard.dtype and np.array_equal(words, standard), lam
            assert promotion_permutation(words, lam, n).tolist() == promotion_permutation(standard, lam, n).tolist(), lam
        lam = Partition((2, 2))
        words = enumerate_syt(lam, packed=True)
        bad = words.copy()
        bad[0, :4] = bad[0, [1, 0, 2, 3]]  # a row decreases
        with pytest.raises(ValueError, match="not a column-strict tableau"):
            promotion_permutation(bad, lam, 4)
        with pytest.raises(ValueError, match="end with 0 and k"):
            promotion_permutation(words, lam, 5)  # words packed for k = 4
        bad = words.copy()
        bad[1, 4] = 1  # the sentinel is not 0
        with pytest.raises(ValueError, match="end with 0 and k"):
            promotion_permutation(bad, lam, 4)
        with pytest.raises(ValueError, match="entries"):
            promotion_permutation(words[:, 1:], lam, 4)
        with pytest.raises(ValueError, match="entries"):
            promotion_permutation(words[0], lam, 4)  # one word, not an array of words
        with pytest.raises(ValueError, match="does not permute"):
            promotion_permutation(words[::-1], lam, 4)  # not sorted

    def test_rejects_another_shape(self):
        """Words of a shape with fewer cells have the wrong length."""
        with pytest.raises(ValueError, match="shape"):
            promotion_permutation(enumerate_syt(Partition((2, 1)), packed=True), Partition((2, 2)), 4)
        with pytest.raises(ValueError, match="shape"):
            promotion_permutation(_words([[(1, 2), (3,)]], 4), Partition((2, 2)), 4)


def _permutation_by_evacuate(elements, k):
    """The oracle: apply the per-tableau evacuate and look each image up."""
    index = {t: i for i, t in enumerate(elements)}
    return [index[evacuate(t, k)] for t in elements]


class TestEvacuationPermutation:
    """Reverse-and-complement on packed words against the per-tableau
    evacuate on the decoded tableaux."""

    def test_every_cst_of_rectangles_up_to_8_cells_and_bound_5(self):
        for lam in rectangles_up_to(8):
            for k in range(6):
                words, tabs = enumerate_cst(lam, k, packed=True), enumerate_cst(lam, k)
                assert evacuation_permutation(words, lam, k).tolist() == _permutation_by_evacuate(tabs, k), (lam, k)

    def test_every_syt_of_rectangles_up_to_12_cells(self):
        for lam in rectangles_up_to(12):
            words, tabs = enumerate_syt(lam, packed=True), enumerate_syt(lam)
            assert evacuation_permutation(words, lam, lam.size).tolist() == _permutation_by_evacuate(tabs, lam.size), lam

    def test_empty_shape(self):
        empty = Partition(())
        for k in range(3):
            assert evacuation_permutation(enumerate_cst(empty, k, packed=True), empty, k).tolist() == [0]
        assert evacuation_permutation(enumerate_syt(empty, packed=True), empty, 0).tolist() == [0]

    def test_entries_beyond_a_byte(self):
        row = Partition((130,))
        words, tabs = enumerate_syt(row, packed=True), enumerate_syt(row)
        assert words.dtype == np.int16
        assert evacuation_permutation(words, row, 130).tolist() == _permutation_by_evacuate(tabs, 130) == [0]
        row = Partition((2,))
        words, tabs = enumerate_cst(row, 130, packed=True), enumerate_cst(row, 130)
        assert words.dtype == np.int16
        assert evacuation_permutation(words, row, 130).tolist() == _permutation_by_evacuate(tabs, 130)

    def test_rejects_a_non_rectangle(self):
        lam = Partition((2, 1))
        with pytest.raises(ValueError, match="rectangular"):
            evacuation_permutation(enumerate_syt(lam, packed=True), lam, 3)

    def test_rejects_a_set_evacuation_does_not_permute(self):
        lam = Partition((2, 2))
        words = enumerate_cst(lam, 3, packed=True)
        with pytest.raises(ValueError, match="does not permute"):
            evacuation_permutation(words[1:], lam, 3)  # not closed: drops the image of the last word
        with pytest.raises(ValueError, match="does not permute"):
            evacuation_permutation(words[::-1], lam, 3)  # not sorted
        with pytest.raises(ValueError, match="does not permute"):
            evacuation_permutation(np.concatenate([words, words[-1:]]), lam, 3)  # not distinct
        with pytest.raises(ValueError, match="not a column-strict tableau"):
            evacuation_permutation(_words([[(1, 2), (1, 3)]], 3), lam, 3)
