import math

import numpy as np
import pytest

from conftest import all_partitions_up_to, compositions_of, partitions_of

from cyclosieve import (
    CapExceeded,
    Composition,
    Partition,
    Tableau,
    css,
    cst_count,
    cst_tuple_count,
    descent_set,
    dominance_leq,
    enumerate_cst,
    enumerate_rst,
    enumerate_syt,
    extended_descent_set,
    syt_count,
)
from cyclosieve.tableaux import hook_lengths, word_dtype
from oracles.tableaux import arm_leg, contains_cell, hook_length, is_row_strict, rotated


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))
        assert Partition(()) == ()

    def test_conjugate_examples(self):
        assert Partition((4, 4, 3, 1)).conjugate() == Partition((4, 3, 3, 2))
        assert Partition((5,)).conjugate() == Partition((1,) * 5)
        assert Partition((3, 3)).conjugate() == Partition((2, 2, 2))

    def test_conjugate_involution_up_to_12(self):
        for size in range(13):
            for lam in partitions_of(size):
                assert lam.conjugate().conjugate() == lam


class TestConstructors:
    """A value already of the exact type is returned as is; anything else,
    plain tuples included, is still checked."""

    def test_own_type_is_returned_as_is(self):
        lam, alpha = Partition((3, 1, 1)), Composition((0, 2, 1))
        assert Partition(lam) is lam and Composition(alpha) is alpha
        assert Partition(()) == () and Composition(Composition(())) == ()

    @pytest.mark.parametrize("make", [list, tuple, iter], ids=["list", "tuple", "generator"])
    def test_other_inputs_are_still_checked(self, make):
        for bad in ((1, 2), (2, 0), (2, -1)):
            with pytest.raises(ValueError):
                Partition(make(bad))
        with pytest.raises(ValueError):
            Composition(make((1, -1)))
        assert type(Partition(make((2, 1)))) is Partition and Partition(make((2, 1))) == (2, 1)
        assert type(Composition(make((0, 2)))) is Composition and Composition(make((0, 2))) == (0, 2)

    def test_the_other_type_is_still_checked(self):
        with pytest.raises(ValueError):
            Partition(Composition((1, 2)))
        assert type(Composition(Partition((2, 1)))) is Composition

    def test_content_is_a_composition(self):
        content = Tableau([(1, 1, 3), (2,)]).content(4)
        assert type(content) is Composition and content == (2, 1, 1, 0)


class TestComposition:
    def test_zero_parts_kept(self):
        alpha = Composition((0, 2, 1, 0, 1))
        assert len(alpha) == 5 and alpha.size == 4

    def test_step_function(self):
        # the section-2 example: alpha = (0,2,1,0,1) maps 1,2 -> 2, 3 -> 3, 4 -> 5
        assert Composition((0, 2, 1, 0, 1)).labels() == (2, 2, 3, 5)

    def test_rotation_direction_matches_promotion(self):
        assert rotated(Composition((2, 0, 3, 3, 2, 2))) == Composition((2, 2, 0, 3, 3, 2))


class TestHooks:
    def test_hook_examples(self):
        assert hook_length(Partition((4, 4, 3, 1)), (2, 1)) == 6
        assert hook_length(Partition((1,)), (1, 1)) == 1
        assert hook_length(Partition((3, 3)), (1, 1)) == 4
        assert arm_leg(Partition((4, 4, 3, 1)), (2, 1)) == (3, 2)

    def test_outside_cell_rejected(self):
        assert contains_cell(Partition((3, 1)), (2, 1))
        for cell in ((2, 2), (3, 1), (0, 1), (1, 0)):
            assert not contains_cell(Partition((3, 1)), cell)
        with pytest.raises(ValueError):
            hook_length(Partition((3, 1)), (2, 2))

    def test_counts_match_the_hook_lengths(self):
        """hook_lengths, syt_count and cst_count against every cell's hook and content."""
        for lam in all_partitions_up_to(10):
            per_cell = [hook_length(lam, cell) for cell in lam.cells()]
            assert hook_lengths(lam) == per_cell
            assert hook_lengths(list(lam)) == per_cell
            hooks = math.prod(per_cell)
            assert syt_count(lam) == math.factorial(lam.size) // hooks
            assert syt_count(list(lam)) == syt_count(lam)
            for k in range(6):
                contents = math.prod(k + c - r for r, c in lam.cells())
                assert cst_count(lam, k) == contents // hooks, (lam, k)

    def test_counts(self):
        assert syt_count(Partition((2, 2, 2))) == 5
        assert syt_count(Partition((3, 3, 1))) == 21


def _enumerate_syt_oracle(shape):
    """The former enumerator: place values one by one, build a validated
    Tableau per filling, sort by row word."""
    n = shape.size
    results = []
    rows = [[] for _ in shape]

    def place(value):
        if value > n:
            results.append(Tableau(rows))
            return
        for r in range(len(shape)):
            c = len(rows[r])
            if c < shape[r] and (r == 0 or len(rows[r - 1]) > c):
                rows[r].append(value)
                place(value + 1)
                rows[r].pop()

    place(1)
    return sorted(results, key=Tableau.row_word)


def _row_major_oracle(shape, k):
    """The packed words of CST(shape, k), filled depth first cell by cell in
    row-major order, smallest value first, so they come out sorted with no
    sort.  A cell takes at least its west neighbour and more than its north
    neighbour, read through the always-0 sentinel at index n when it has
    none, and at most k less the number of cells below it."""
    n = shape.size
    west, north, top = [n] * n, [n] * n, [k] * n
    start = 0
    for r, length in enumerate(shape):
        for i in range(start, start + length):
            if i > start:
                west[i] = i - 1
            if r:
                north[i] = i - shape[r - 1]
        start += length
    for i in reversed(range(n)):
        if north[i] < n:
            top[north[i]] = top[i] - 1
    word = [0] * n + [0, k + 1]
    flat = []
    i, value = 0, 1
    while i >= 0:
        if i == n:
            flat.extend(word)
        else:
            value = max(value, word[west[i]], word[north[i]] + 1)
            if value <= top[i]:
                word[i] = value
                i, value = i + 1, 1
                continue
        i -= 1
        if i >= 0:
            value = word[i] + 1
    return np.array(flat, dtype=word_dtype(k)).reshape(-1, n + 2)


@pytest.fixture
def strip_calls(monkeypatch):
    """The argument tuples of every call to the strip filler from here on."""
    from cyclosieve import tableaux

    calls = []
    fill = tableaux._strip_words

    def spy(*args):
        calls.append(args)
        return fill(*args)

    monkeypatch.setattr(tableaux, "_strip_words", spy)
    return calls


class TestEnumerateSyt:
    def test_counts_match_hook_formula_up_to_10(self):
        for size in range(11):
            for lam in partitions_of(size):
                assert len(enumerate_syt(lam)) == syt_count(lam)

    def test_single_row(self):
        assert enumerate_syt(Partition((4,))) == [Tableau([(1, 2, 3, 4)])]

    def test_canonical_order(self):
        tabs = enumerate_syt(Partition((2, 2)))
        assert [t.row_word() for t in tabs] == sorted(t.row_word() for t in tabs)

    def test_equal_to_validated_tableaux(self):
        for lam in all_partitions_up_to(8):
            for t in enumerate_syt(lam):
                rebuilt = Tableau([list(row) for row in t.rows])
                assert t == rebuilt and hash(t) == hash(rebuilt), t

    def test_packed_words_are_the_oracle_row_words(self):
        shapes = [*all_partitions_up_to(9), Partition((4,) * 4), Partition((3,) * 5)]
        for lam in shapes:
            n = lam.size
            words = enumerate_syt(lam, packed=True)
            expected = [t.row_word() for t in _enumerate_syt_oracle(lam)]
            assert words.dtype == np.int8 and words.shape == (len(expected), n + 2), lam
            assert (words[:, n] == 0).all() and (words[:, n + 1] == n + 1).all(), lam
            assert [tuple(w) for w in words[:, :n].tolist()] == expected, lam

    def test_decoded_tableaux_are_the_oracle_tableaux(self):
        for lam in all_partitions_up_to(9):
            tabs = enumerate_syt(lam)
            assert tabs == _enumerate_syt_oracle(lam), lam
            assert all(type(x) is int for t in tabs for row in t.rows for x in row)

    def test_wide_entries(self):
        """n + 1 > 126 needs int16 words."""
        lam = Partition((130, 1))
        words = enumerate_syt(lam, packed=True)
        assert words.dtype == np.int16 and len(words) == 130
        assert enumerate_syt(lam) == _enumerate_syt_oracle(lam)

    def test_no_recursion_limit(self):
        """Values are placed in a loop, so a thousand cells do not reach
        Python's recursion limit."""
        words = enumerate_syt(Partition((1500,)), packed=True)
        assert words.tolist() == [[*range(1, 1501), 0, 1501]]
        assert len(enumerate_syt(Partition((1100, 1)))) == 1100

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_syt(Partition((4, 4, 4)), cap=10)
        with pytest.raises(CapExceeded):
            enumerate_syt(Partition((4, 4, 4)), cap=10, packed=True)


class TestEnumerateCst:
    def test_two_by_two_bound_three_listing(self):
        got = {t.rows for t in enumerate_cst(Partition((2, 2)), 3)}
        expected = {
            ((1, 1), (2, 2)),
            ((2, 2), (3, 3)),
            ((1, 1), (3, 3)),
            ((1, 2), (2, 3)),
            ((1, 2), (3, 3)),
            ((1, 1), (2, 3)),
        }
        assert got == expected

    def test_single_box(self):
        assert len(enumerate_cst(Partition((1,)), 7)) == 7

    def test_content_restriction_is_kostka(self):
        lam = Partition((2, 2, 2))
        alpha = Composition((2, 2, 2))
        tabs = enumerate_cst(lam, 3, alpha)
        assert all(t.content(3) == alpha for t in tabs)
        # brute-force filter oracle
        brute = [t for t in enumerate_cst(lam, 3) if t.content(3) == alpha]
        assert tabs == brute

    def test_rows_exceeding_bound_empty(self):
        assert enumerate_cst(Partition((1, 1, 1)), 2) == []

    def test_sorted_and_equal_to_validated_tableaux(self):
        """The fillings come out in strictly increasing row-word order, each
        one is the tableau the validating constructor builds from its rows,
        and the contents together give the unrestricted set.  Up to 7 cells
        the bounds n - 1 and n add the nearly standard contents."""
        for lam in all_partitions_up_to(8):
            bounds = set(range(1, 6))
            if lam.size <= 7:
                bounds |= {max(lam.size - 1, 0), lam.size}
            for k in sorted(bounds):
                unrestricted = enumerate_cst(lam, k)
                restricted = [enumerate_cst(lam, k, alpha) for alpha in compositions_of(lam.size, k)]
                assert sorted((t for tabs in restricted for t in tabs), key=Tableau.row_word) == unrestricted
                for tabs in [unrestricted, *restricted]:
                    words = [t.row_word() for t in tabs]
                    assert all(a < b for a, b in zip(words, words[1:])), (lam, k)
                    for t in tabs:
                        rebuilt = Tableau([list(row) for row in t.rows])
                        assert t == rebuilt and hash(t) == hash(rebuilt), t

    def test_packed_words_are_the_decoded_row_words(self):
        """Row i of the packed array is the row word of the i-th decoded
        tableau followed by 0 and k + 1, and the rows strictly increase."""
        for lam in all_partitions_up_to(8):
            for k in range(1, 6):
                for alpha in [None, *compositions_of(lam.size, k)]:
                    words = enumerate_cst(lam, k, alpha, packed=True)
                    tabs = enumerate_cst(lam, k, alpha)
                    assert words.shape == (len(tabs), lam.size + 2), (lam, k, alpha)
                    assert words.tolist() == [[*t.row_word(), 0, k + 1] for t in tabs], (lam, k, alpha)
                    rows = list(map(tuple, words.tolist()))
                    assert all(a < b for a, b in zip(rows, rows[1:])), (lam, k, alpha)

    def test_count_is_the_hook_content_formula(self):
        """Without a content the count is the hook-content formula, and with
        one it is the Kostka number from horizontal strips."""
        for lam in all_partitions_up_to(8):
            for k in range(0, 7):
                assert cst_count(lam, k) == len(enumerate_cst(lam, k, packed=True)), (lam, k)
            for k in range(0, 6):
                for alpha in compositions_of(lam.size, k):
                    words = enumerate_cst(lam, k, alpha, packed=True)
                    assert cst_tuple_count((lam,), alpha) == len(words), (lam, alpha)
        row = Partition((1500,))  # one peel per label, with no recursion
        assert cst_tuple_count((row,), (1,) * 1500) == 1
        assert enumerate_cst(row, 1500, Composition((1,) * 1500), packed=True).shape == (1, 1502)
        assert cst_count(Partition((6, 6, 6)), 12) == 2_530_768_240  # the Weyl dimension formula gives the same
        with pytest.raises(ValueError):
            cst_count(Partition((1,)), -1)

    def test_cap_is_checked_before_filling(self, monkeypatch):
        """With or without a content, an over-cap set is refused from its
        count before the strip filler runs; the boundary is count > cap."""
        from cyclosieve import tableaux

        lam = Partition((2, 2))
        ones = Composition((1,) * 6)  # 6^6 > 5, so the count is taken
        assert len(enumerate_cst(lam, 3, cap=6)) == 6
        assert len(enumerate_cst(lam, 4, Composition((1, 1, 1, 1)), cap=2)) == 2
        assert len(enumerate_cst(Partition((3, 3)), 6, ones, cap=5)) == 5
        with pytest.raises(CapExceeded):
            enumerate_cst(lam, 4, Composition((1, 1, 1, 1)), cap=1)

        def refuse(*args):
            raise AssertionError("the filler ran")

        monkeypatch.setattr(tableaux, "_strip_words", refuse)
        for shape, k, cap in [(lam, 3, 5), (lam, 3, 0), (Partition((6, 6, 6)), 12, None)]:
            with pytest.raises(CapExceeded):
                enumerate_cst(shape, k, cap=cap)
            with pytest.raises(CapExceeded):
                enumerate_cst(shape, k, cap=cap, packed=True)
        nearly_standard = Composition((1,) * 18 + (2,))  # 875,160 tableaux of 5^4
        for shape, alpha, cap in [(Partition((3, 3)), ones, 4),
                                  (Partition((5, 5, 5, 5)), nearly_standard, 10**5)]:
            for packed in (False, True):
                with pytest.raises(CapExceeded, match="enumeration exceeded cap"):
                    enumerate_cst(shape, len(alpha), alpha, cap=cap, packed=packed)
        with pytest.raises(AssertionError, match="the filler ran"):
            enumerate_cst(Partition((3, 3)), 6, ones, cap=5)

    def test_words_are_the_row_major_oracle_words(self, strip_calls):
        """Every call, with or without a content, runs the strip filler once,
        and its words and dtype are the row-major oracle's: all of them
        without a content, and those of the content with one."""
        for lam in all_partitions_up_to(7):
            for k in range(0, 6):
                oracle = _row_major_oracle(lam, k)
                got = enumerate_cst(lam, k, packed=True)
                assert got.dtype == oracle.dtype and np.array_equal(got, oracle), (lam, k)
                contents = [tuple(np.bincount(w[:lam.size], minlength=k + 1)[1:]) for w in oracle]
                for alpha in compositions_of(lam.size, k):
                    words = oracle[[c == alpha for c in contents]]
                    got = enumerate_cst(lam, k, alpha, packed=True)
                    assert got.dtype == words.dtype and np.array_equal(got, words), (lam, alpha)
                assert len(strip_calls) == 1 + sum(1 for _ in compositions_of(lam.size, k)), (lam, k)
                strip_calls.clear()

    def test_standard_content_is_the_syt_oracle(self, monkeypatch, strip_calls):
        """A content of n ones gives the row words of the recursive SYT
        oracle, through the strip filler behind a count check, and not
        through ``enumerate_syt``, whose results the benchmark counts; 5^4
        has 1,662,804 SYT and is refused from its count."""
        from cyclosieve import tableaux

        def refuse(*args, **kwargs):
            raise AssertionError("enumerate_syt ran")

        monkeypatch.setattr(tableaux, "enumerate_syt", refuse)
        for lam in all_partitions_up_to(7):
            n = lam.size
            ones = Composition((1,) * n)
            got = enumerate_cst(lam, n, ones, packed=True)
            expected = [[*t.row_word(), 0, n + 1] for t in _enumerate_syt_oracle(lam)]
            assert got.dtype == np.int8 and got.tolist() == expected, lam
        assert len(strip_calls) == len(list(all_partitions_up_to(7)))
        for shape, cap in [(Partition((2, 2)), 1), (Partition((5, 5, 5, 5)), None)]:
            with pytest.raises(CapExceeded, match="enumeration exceeded cap"):
                enumerate_cst(shape, shape.size, Composition((1,) * shape.size), cap=cap)
        assert len(strip_calls) == len(list(all_partitions_up_to(7)))

    def test_rst_is_transposed_cst(self):
        lam = Partition((3, 2))
        rst = enumerate_rst(lam, 4)
        assert {t.rows for t in rst} == {
            t.transpose().rows for t in enumerate_cst(lam.conjugate(), 4)
        }
        assert all(is_row_strict(t, 4) for t in rst)


class TestPackedEntriesCap:
    """The cap bounds the packed array as well as its row count: N words of
    n + 2 entries are refused past ENTRIES_PER_CAP times the cap, after the
    count check and before the strip filler."""

    @pytest.fixture
    def no_filler(self, monkeypatch):
        from cyclosieve import tableaux

        def refuse(*args):
            raise AssertionError("the filler ran")

        monkeypatch.setattr(tableaux, "_strip_words", refuse)
        return tableaux

    def test_huge_row_is_refused_before_its_count(self, monkeypatch, no_filler):
        """One word of a 10^20-cell row is over the bound, and its hook
        formula is never run: ``math.factorial`` of its size used to end in
        an OverflowError."""
        def refuse(*args):
            raise AssertionError("counted")

        for name in ("syt_count", "cst_count", "cst_tuple_count", "hook_lengths"):
            monkeypatch.setattr(no_filler, name, refuse)
        row = Partition((10**20 - 1,))
        for enumerate_huge in (lambda: enumerate_syt(row), lambda: enumerate_cst(row, 2),
                               lambda: enumerate_cst(row, 1, Composition((10**20 - 1,)))):
            with pytest.raises(CapExceeded, match=r"needs 1 x 100000000000000000001 packed word entries"):
                enumerate_huge()

    def test_boundary(self, no_filler):
        """Entries equal to 32 times the cap are allowed: one word of 64
        entries at cap 2, and 41 words of 42 at cap 54 (1,722 <= 1,728).  A
        content's Kostka number counts the words: one of 42 at cap 1."""
        assert no_filler_runs(lambda: enumerate_syt(Partition((62,)), cap=2))
        assert no_filler_runs(lambda: enumerate_cst(Partition((40,)), 2, cap=54))
        with pytest.raises(CapExceeded, match=r"SYT\(\(63,\)\) needs 1 x 65 packed word entries, over 32 times the cap 2"):
            enumerate_syt(Partition((63,)), cap=2)
        with pytest.raises(CapExceeded, match=r"CST\(\(40,\), 2\) needs 41 x 42 packed word entries, over 32 times the cap 53"):
            enumerate_cst(Partition((40,)), 2, cap=53)
        with pytest.raises(CapExceeded, match=r"needs 1 x 42 packed word entries"):
            enumerate_cst(Partition((40,)), 2, Composition((20, 20)), cap=1)

    def test_count_messages_come_first(self):
        with pytest.raises(CapExceeded, match=r"SYT\(\(4, 4, 4\)\) has 462 > cap 10 elements"):
            enumerate_syt(Partition((4, 4, 4)), cap=10)
        with pytest.raises(CapExceeded, match=r"CST\(\(20000,\), 2\) has 20001 > cap 20000 elements"):
            enumerate_cst(Partition((20000,)), 2, cap=20000)

    def test_empty_sets_are_not_refused(self):
        """More rows than the bound leave no tableau, however long the words."""
        assert enumerate_cst(Partition((40, 40)), 1, cap=1) == []


def no_filler_runs(enumerate_set) -> bool:
    """True when the call passes the cap checks and reaches the filler."""
    with pytest.raises(AssertionError, match="the filler ran"):
        enumerate_set()
    return True


class TestDescents:
    def test_three_row_display(self):
        t = Tableau([(1, 3, 5), (2, 4, 7), (6,)])
        assert descent_set(t) == frozenset({1, 3, 5})

    def test_row_and_column(self):
        assert descent_set(Tableau([(1, 2, 3, 4)])) == frozenset()
        assert descent_set(Tableau([(1,), (2,), (3,)])) == frozenset({1, 2})

    def test_non_standard_rejected(self):
        with pytest.raises(ValueError):
            descent_set(Tableau([(1, 1), (2, 2)]))


class TestExtendedDescents:
    def test_twelve_box_rectangle(self):
        p = Tableau([(1, 2, 4, 9), (3, 5, 8, 11), (6, 7, 10, 12)])
        assert extended_descent_set(p) == frozenset({2, 4, 5, 9, 11})
        jp = Tableau([(1, 2, 3, 5), (4, 6, 9, 10), (7, 8, 11, 12)])
        assert extended_descent_set(jp) == frozenset({3, 5, 6, 10, 12})

    def test_single_row(self):
        assert extended_descent_set(Tableau([(1, 2, 3)])) == frozenset()

    def test_restriction_is_plain_descent_set(self):
        from conftest import rectangles_up_to

        for lam in rectangles_up_to(8):
            n = lam.size
            for t in enumerate_syt(lam):
                ext = extended_descent_set(t)
                assert ext - {n} == descent_set(t)

    def test_non_rectangular_rejected(self):
        with pytest.raises(ValueError):
            extended_descent_set(Tableau([(1, 2), (3,)]))


class TestCss:
    def test_examples(self):
        assert css(Partition((3, 3, 2))).rows == ((1, 4, 7), (2, 5, 8), (3, 6))
        assert css(Partition((1, 1, 1))).rows == ((1,), (2,), (3,))
        assert css(Partition((2, 2))).rows == ((1, 3), (2, 4))


class TestDominance:
    def test_examples(self):
        assert dominance_leq(Partition((2, 2)), Partition((3, 1)))
        assert dominance_leq(Partition((3, 1)), Partition((3, 1)))
        assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))
        assert dominance_leq((2, 1, 0), (3, 0, 0)) and not dominance_leq((3, 0), (2, 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq(Partition((2,)), Partition((3,)))


class TestTableauBasics:
    def test_content_reports_explicit_length(self):
        t = Tableau([(1, 1), (3, 3)])
        assert t.content(4) == Composition((2, 0, 2, 0))
        with pytest.raises(ValueError):
            t.content(2)

    def test_immutability(self):
        t = Tableau([(1, 2)])
        with pytest.raises(AttributeError):
            t.rows = ((9,),)
