import collections
import importlib
from pathlib import Path

import pytest

from conftest import all_partitions_up_to, compositions_of, partitions_of

import cyclosieve
from cyclosieve import Composition, Partition, enumerate_cst, tableaux
from cyclosieve.ribbons import (
    count_ribbon_cst,
    kf_root_of_unity_check,
    reduced_content,
    spin_sign,
)
from cyclosieve.tableaux import abacus, beta_set, partition_from_beta
from oracles.ribbons import (
    Cell,
    Ribbon,
    _ribbon_height,
    _skew_cells,
    enumerate_ribbon_cst,
    enumerate_tilings,
    m_core,
)
from test_reachability import SRC, VALUE_TYPES, CallGraph

EMPTY = Partition(())


def subpartitions_of_size(outer: Partition, size: int):
    """Partitions nested inside ``outer`` with the given size."""

    def rec(row: int, prev: int, left: int, acc: tuple[int, ...]):
        if left == 0:
            yield Partition(acc)
        elif row < len(outer):
            for part in range(min(prev, outer[row], left), 0, -1):
                yield from rec(row + 1, part, left - part, acc + (part,))

    yield from rec(0, outer[0] if outer else 0, size, ())


def core_by_ribbon_removal(lam: Partition, m: int) -> Partition:
    """Strip removable m-ribbons one at a time (brute-force oracle)."""
    while True:
        for nu in subpartitions_of_size(lam, lam.size - m):
            cells: set[Cell] = set(_skew_cells(lam, nu))
            if len(cells) != m:
                continue
            if any(
                {(r, c), (r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells
                for (r, c) in cells
            ):
                continue
            start = next(iter(cells))
            queue, seen = collections.deque([start]), {start}
            while queue:
                r, c = queue.popleft()
                for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                    if nb in cells and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
            if len(seen) == m:
                lam = nu
                break
        else:
            return lam


class TestCoresAndQuotients:
    def test_core_matches_removal_oracle(self):
        for lam in all_partitions_up_to(8):
            for m in range(1, 5):
                assert m_core(lam, m) == core_by_ribbon_removal(lam, m), (lam, m)

    def test_one_core_is_empty(self):
        for lam in all_partitions_up_to(8):
            assert m_core(lam, 1) == EMPTY

    def test_31_has_empty_2_core(self):
        assert m_core(Partition((3, 1)), 2) == EMPTY

    def test_staircases_are_2_cores(self):
        for k in range(1, 5):
            lam = Partition(tuple(range(k, 0, -1)))
            assert m_core(lam, 2) == lam

    def test_quotient_size_identity(self):
        for lam in all_partitions_up_to(10):
            for m in range(1, 5):
                core = m_core(lam, m)
                quotient = abacus(lam, m)[1]
                assert m * sum(q.size for q in quotient) + core.size == lam.size

    def test_trivial_quotient(self):
        for lam in all_partitions_up_to(6):
            assert abacus(lam, 1)[1] == (lam,)

    def test_22_domino_quotient(self):
        quotient = abacus(Partition((2, 2)), 2)[1]
        assert sorted(q.size for q in quotient) in ([0, 2], [1, 1])
        assert sum(q.size for q in quotient) == 2


def uncached_abacus(shape, m):
    """The abacus read afresh on every call: bead counts and m-quotient."""
    shape = Partition(shape)
    runners = [[] for _ in range(m)]
    for b in beta_set(shape, m * ((max(len(shape), 1) + m - 1) // m)):
        runners[b % m].append(b // m)
    return tuple(map(len, runners)), tuple(map(partition_from_beta, runners))


class TestAbacusCache:
    def test_matches_the_uncached_reading(self):
        tableaux._abacus.cache_clear()
        for lam in all_partitions_up_to(8):
            for m in range(1, 6):
                expected = uncached_abacus(lam, m)
                assert abacus(list(lam), m) == expected, (lam, m)
                assert abacus(lam, m) == expected and abacus(tuple(lam), m) == expected

    def test_inputs_are_still_checked(self):
        with pytest.raises(ValueError, match="ribbon size"):
            abacus(Partition((2, 1)), 0)
        with pytest.raises(ValueError):
            abacus([1, 2], 2)

    def test_benchmark_worker_clears_the_cache(self, monkeypatch):
        """The benchmark worker clears every module-level memo cache before
        each op, so that every op starts cold."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        worker = importlib.import_module("worker")
        clears = worker.memo_caches(cyclosieve)
        assert tableaux._abacus.cache_clear in clears
        abacus([3, 1], 2)
        assert tableaux._abacus.cache_info().currsize > 0
        for clear in clears:
            clear()
        assert tableaux._abacus.cache_info().currsize == 0

    def test_count_of_the_wrong_size_is_zero(self):
        """A content of the wrong size counts 0; a ribbon size below 1 and a
        shape that is not a partition are still refused."""
        assert count_ribbon_cst(Partition((2, 2)), 2, Composition((1,))) == 0
        assert count_ribbon_cst(Partition((2, 2)), 3, Composition((1, 1))) == 0
        with pytest.raises(ValueError, match="ribbon size"):
            count_ribbon_cst(Partition((2, 2)), 0, Composition((1, 1)))
        with pytest.raises(ValueError):
            count_ribbon_cst([1, 2], 2, Composition((1,)))


class TestTilingsAndSpin:
    def test_22_has_two_domino_tilings(self):
        assert len(enumerate_tilings(Partition((2, 2)), EMPTY, 2)) == 2

    def test_spin_signs(self):
        assert spin_sign(Partition((2,)), EMPTY, 2) == 1
        assert spin_sign(Partition((1, 1)), EMPTY, 2) == -1
        assert spin_sign(Partition((1, 1, 1)), EMPTY, 3) == 1
        assert spin_sign(Partition((1,) * 4), EMPTY, 4) == -1
        assert spin_sign(Partition((2, 2)), EMPTY, 2) == 1

    def test_untileable_is_zero(self):
        assert spin_sign(Partition((2, 1)), EMPTY, 2) == 0

    def test_every_tiling_has_the_abacus_sign(self):
        """The sign read off the beads is (-1) to the total height of every
        tiling on cells, and 0 just when there is none: for every lambda of
        at most 10 cells with m <= 6, and every lambda/mu with lambda of at
        most 8 cells and m <= 4."""
        cases = [(lam, EMPTY, m) for lam in all_partitions_up_to(10) for m in range(1, 7)]
        cases += [(lam, mu, m) for lam in all_partitions_up_to(8)
                  for size in range(lam.size + 1) for mu in subpartitions_of_size(lam, size)
                  for m in range(1, 5)]
        assert len(cases) == 834 + 3448
        for outer, inner, m in cases:
            signs = {tiling_sign(tiling) for tiling in enumerate_tilings(outer, inner, m)}
            assert signs == {spin_sign(outer, inner, m)} - {0}, (outer, inner, m)

    def test_inputs_are_checked(self):
        """A shape outside the outer one, and a ribbon size below 1, are
        refused with ``ValueError``, as ``abacus`` refuses the size."""
        with pytest.raises(ValueError, match="is not contained in"):
            spin_sign(Partition((2, 1)), Partition((1, 1, 1)), 3)
        with pytest.raises(ValueError, match="is not contained in"):
            spin_sign(Partition((2, 1)), Partition((3,)), 0)
        for m in (0, -1, -3):
            with pytest.raises(ValueError, match="ribbon size"):
                spin_sign(Partition((2, 1)), EMPTY, m)


def tiling_sign(tiling: tuple[Ribbon, ...]) -> int:
    return (-1) ** sum(map(_ribbon_height, tiling))


class TestCounting:
    def test_m1_reduces_to_kostka(self):
        for lam in [(2, 1), (3, 1), (2, 2), (3, 2, 1)]:
            lam_p = Partition(lam)
            for k in range(1, 4):
                for beta in compositions_of(lam_p.size, k):
                    assert count_ribbon_cst(lam_p, 1, beta) == len(
                        enumerate_cst(lam_p, k, beta)
                    )

    def test_nonempty_core_counts_zero(self):
        # (3,2,1) is its own 2-core
        assert count_ribbon_cst(Partition((3, 2, 1)), 2, Composition((2, 1))) == 0

    def test_single_label_obstruction(self):
        # (4,1,1) has a domino tiling, but no single-label column-strict one
        assert len(enumerate_tilings(Partition((4, 1, 1)), EMPTY, 2)) == 1
        assert count_ribbon_cst(Partition((4, 1, 1)), 2, Composition((3,))) == 0

    def test_whole_shape_single_ribbon(self):
        # (2,1) is itself a 3-ribbon
        assert count_ribbon_cst(Partition((2, 1)), 3, Composition((1,))) == 1

    def test_peeling_matches_labeled_tiling_oracle(self):
        """Every partition of at most 10 cells, m = 2..5, contents of at most
        4 parts: the quotient count equals the labeled tilings on cells."""
        for lam in all_partitions_up_to(10):
            for m in range(2, 6):
                if lam.size % m:
                    continue
                r = lam.size // m
                for k in range(1, min(r, 4) + 1):
                    for beta in compositions_of(r, k):
                        assert count_ribbon_cst(lam, m, beta) == len(
                            enumerate_ribbon_cst(lam, EMPTY, m, beta)
                        ), (lam, m, beta)

    def test_counting_builds_no_cells(self):
        """The sign and the count run on the abacus: all they reach, besides
        the value types, is bead and strip code, so no cell set, tiling or
        ribbon search can run."""
        graph = CallGraph(SRC)
        abacus_level = VALUE_TYPES | {
            "ribbons.spin_sign", "ribbons.count_ribbon_cst", "tableaux.abacus", "tableaux._abacus",
            "tableaux.abacus_beads", "tableaux.beta_set", "tableaux.partition_from_beta",
            "tableaux.cst_tuple_count", "tableaux._count_strips", "tableaux._strips"}
        reached = {".".join(key.split(".")[:2]) for key in
                   graph.reached({"ribbons.spin_sign", "ribbons.count_ribbon_cst"})}
        assert reached <= abacus_level, sorted(reached - abacus_level)

    def test_quotient_factorization(self):
        """The generating function over contents factors through the quotient."""
        for lam, m in [((2, 2), 2), ((4, 2), 2), ((3, 3), 2), ((3, 1), 2),
                       ((3, 3, 3), 3), ((4, 4), 2), ((2, 2, 2), 2), ((6, 2), 2)]:
            lam_p = Partition(lam)
            if lam_p.size % m:
                continue
            for k in range(1, 4):
                for beta in compositions_of(lam_p.size // m, k):
                    direct = count_ribbon_cst(lam_p, m, beta)
                    assert direct == _quotient_coefficient(lam_p, m, beta), (lam, m, beta)


def _quotient_coefficient(lam: Partition, m: int, beta: Composition) -> int:
    """Coefficient of x^beta in the product of quotient Schur functions."""
    if m_core(lam, m).size:
        return 0
    d = len(beta)
    counts: dict[tuple[int, ...], int] = {}

    def rec(i: int, acc: tuple[int, ...]) -> None:
        quotient = abacus(lam, m)[1]
        if i == len(quotient):
            counts[acc] = counts.get(acc, 0) + 1
            return
        shape = quotient[i]
        if shape.size == 0:
            rec(i + 1, acc)
            return
        for t in enumerate_cst(shape, d):
            content = t.content(d)
            rec(i + 1, tuple(a + b for a, b in zip(acc, content)))

    rec(0, (0,) * d)
    return counts.get(tuple(beta), 0)


class TestReducedContent:
    def test_divisible(self):
        assert reduced_content(Composition((1, 1, 1, 1)), 2) == Composition((1, 1))
        assert reduced_content(Composition((2, 1, 2, 1)), 2) == Composition((2, 1))
        assert reduced_content(Composition((3,)), 1) == Composition((3,))

    def test_not_divisible(self):
        assert reduced_content(Composition((1, 1, 1)), 2) is None

    def test_zero_parts_ignored(self):
        assert reduced_content(Composition((1, 0, 1)), 2) == Composition((1,))


class TestKFRootChecks:
    def test_22_dominoes(self):
        report = kf_root_of_unity_check(Partition((2, 2)), Composition((1, 1, 1, 1)), 2)
        assert report["verdict"] and report["evaluation"] == 2 and report["ribbon_count"] == 2

    def test_zero_branch(self):
        report = kf_root_of_unity_check(Partition((2, 1)), Composition((1, 1, 1)), 2)
        assert report["verdict"] and report["evaluation"] == 0 and report["ribbon_count"] is None

    def test_order_one_is_kostka(self):
        report = kf_root_of_unity_check(Partition((2, 2)), Composition((2, 1, 1)), 1)
        assert report["verdict"]
        assert report["evaluation"] == len(enumerate_cst(Partition((2, 2)), 3, Composition((2, 1, 1))))

    def test_divisible_branch_sweep(self):
        for lam in partitions_of(4):
            for k in range(1, 5):
                for alpha in compositions_of(4, k):
                    for d in (1, 2, 3, 4):
                        report = kf_root_of_unity_check(lam, alpha, d)
                        if report["multiplicities_divisible"]:
                            assert report["verdict"], (lam, alpha, d)

    def test_zero_claim_counterexample(self):
        """No blanket vanishing holds for non-divisible multiplicities;
        frozen smallest witnesses."""
        report = kf_root_of_unity_check(Partition((4,)), Composition((3, 1)), 2)
        assert not report["multiplicities_divisible"] and report["evaluation"] == -1 and not report["verdict"]
        # the constant polynomial K at its own content survives any root
        report = kf_root_of_unity_check(Partition((2,)), Composition((2,)), 2)
        assert not report["multiplicities_divisible"] and report["evaluation"] == 1

