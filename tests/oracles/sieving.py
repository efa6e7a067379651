"""Maps between the Catalan families and their reflections (Proposition
8.3), and the classical sieving pair: subsets and multisets under rotation
against q-binomial coefficients."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from cyclosieve.sieving import FiniteAction, Matching, SetPartition, _canonical_matching, verify_csp
from cyclosieve.tableaux import Tableau

from .qpolys import q_binomial_product


def reflect_matching(matching: Matching, n: int) -> Matching:
    m = 2 * n
    return _canonical_matching(tuple((m + 1 - a, m + 1 - b) for a, b in matching))


def handshake_to_tableau(matching: Matching) -> Tableau:
    """Two-row tableau: openers across the top, closers across the bottom."""
    rows = [sorted(min(p) for p in matching), sorted(max(p) for p in matching)]
    return Tableau(rows if matching else [])


def noncrossing_to_handshake(pi: SetPartition, n: int) -> Matching:
    """Trace bijection: element i becomes points 2i-1, 2i; blocks are hugged
    by arcs."""
    pairs = []
    for block in pi:
        pairs.append((2 * block[0] - 1, 2 * block[-1]))
        for a, b in zip(block, block[1:]):
            pairs.append((2 * a, 2 * b - 1))
    return _canonical_matching(pairs)


def reflect_noncrossing(pi: SetPartition, n: int) -> SetPartition:
    """Reflection of the circle through the point 1."""
    return tuple(
        sorted(tuple(sorted((1 - x) % n + 1 for x in block)) for block in pi)
    )


def subsets_action(n: int, k: int) -> FiniteAction:
    elements = sorted(combinations(range(1, n + 1), k))
    return FiniteAction.of_map(elements, lambda s: tuple(sorted(x % n + 1 for x in s)))


def multisets_action(n: int, k: int) -> FiniteAction:
    elements = sorted(combinations_with_replacement(range(1, n + 1), k))
    return FiniteAction.of_map(elements, lambda s: tuple(sorted(x % n + 1 for x in s)))


def subsets_csp_report(n: int, k: int) -> dict:
    return verify_csp(
        subsets_action(n, k),
        q_binomial_product(n, k),
        n,
        family="subsets",
        parameters={"n": n, "k": k},
    )


def multisets_csp_report(n: int, k: int) -> dict:
    return verify_csp(
        multisets_action(n, k),
        q_binomial_product(n + k - 1, k),
        n,
        family="multisets",
        parameters={"n": n, "k": k},
    )
