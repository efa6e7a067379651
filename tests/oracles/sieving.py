"""The Catalan families as tuples: handshake patterns read off SYT(n, n)
one tableau at a time, noncrossing partitions read off the patterns,
rotation and the Kreweras complement element by element; maps between the
families and their reflections (Proposition 8.3); the reduced words of the
longest signed permutation by a descent search; the action of a map on a
list of elements; and the classical sieving pair: subsets and multisets
under rotation against q-binomial coefficients."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable, Sequence

from cyclosieve.sieving import FiniteAction, verify_csp
from cyclosieve.tableaux import Partition, Tableau, enumerate_syt

from .qpolys import q_binomial_product

_Matching = tuple[tuple[int, int], ...]
_SetPartition = tuple[tuple[int, ...], ...]


def _canonical_matching(pairs: Iterable[tuple[int, int]]) -> _Matching:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def handshake_patterns(n: int) -> tuple[_Matching, ...]:
    """All noncrossing perfect matchings of [2n], read off SYT(n, n) by
    :func:`tableau_to_handshake`."""
    return tuple(sorted(map(tableau_to_handshake, enumerate_syt(Partition((n, n) if n else ())))))


def rotate_matching(matching: _Matching, n: int) -> _Matching:
    m = 2 * n
    return _canonical_matching(tuple((a % m + 1, b % m + 1) for a, b in matching))


def tableau_to_handshake(t: Tableau) -> _Matching:
    """The matching of a two-row tableau by parenthesis matching: the top
    row opens, the bottom row closes."""
    openers = set(t.rows[0] if t.rows else ())
    stack: list[int] = []
    pairs = []
    for i in range(1, t.size + 1):
        if i in openers:
            stack.append(i)
        else:
            pairs.append((stack.pop(), i))
    return _canonical_matching(pairs)


def noncrossing_partitions(n: int) -> tuple[_SetPartition, ...]:
    """All noncrossing set partitions of [n], blocks sorted by minimum.

    They are read off the handshake patterns of [2n] through the inverse of
    the trace bijection, which turns element i into the points 2i - 1 and 2i
    and hugs each block by arcs: an arc (2a, 2b - 1) makes b the next
    element of a's block.
    """
    out = []
    for matching in handshake_patterns(n):
        successor = {a // 2: (b + 1) // 2 for a, b in matching if a % 2 == 0}
        blocks = []
        for first in sorted(set(range(1, n + 1)).difference(successor.values())):
            block = [first]
            while block[-1] in successor:
                block.append(successor[block[-1]])
            blocks.append(tuple(block))
        out.append(tuple(blocks))
    return tuple(sorted(out))


def kreweras_complement(pi: _SetPartition, n: int) -> _SetPartition:
    """The cycles of tau = pi^-1 c (Biane, "Some properties of crossings and
    partitions", 1997): pi sends each element to the next element of its
    block, cyclically, and c is the long cycle i -> i mod n + 1.
    """
    previous = {b: a for block in pi for a, b in zip(block[-1:] + block[:-1], block)}
    seen: set[int] = set()
    blocks = []
    for first in range(1, n + 1):  # each cycle is met first at its least element
        if first in seen:
            continue
        cycle = []
        i = first
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = previous[i % n + 1]
        blocks.append(tuple(sorted(cycle)))
    return tuple(blocks)


def reflect_matching(matching: _Matching, n: int) -> _Matching:
    m = 2 * n
    return _canonical_matching(tuple((m + 1 - a, m + 1 - b) for a, b in matching))


def handshake_to_tableau(matching: _Matching) -> Tableau:
    """Two-row tableau: openers across the top, closers across the bottom."""
    rows = [sorted(min(p) for p in matching), sorted(max(p) for p in matching)]
    return Tableau(rows if matching else [])


def noncrossing_to_handshake(pi: _SetPartition, n: int) -> _Matching:
    """Trace bijection: element i becomes points 2i-1, 2i; blocks are hugged
    by arcs."""
    pairs = []
    for block in pi:
        pairs.append((2 * block[0] - 1, 2 * block[-1]))
        for a, b in zip(block, block[1:]):
            pairs.append((2 * a, 2 * b - 1))
    return _canonical_matching(pairs)


def reflect_noncrossing(pi: _SetPartition, n: int) -> _SetPartition:
    """Reflection of the circle through the point 1."""
    return tuple(
        sorted(tuple(sorted((1 - x) % n + 1 for x in block)) for block in pi)
    )


def signed_right_descents(w: tuple[int, ...]) -> list[int]:
    out = []
    if w[0] < 0:
        out.append(0)
    out.extend(i for i in range(1, len(w)) if w[i - 1] > w[i])
    return out


def signed_apply_right(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    if i == 0:
        return (-w[0],) + w[1:]
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def bn_longest(n: int) -> tuple[int, ...]:
    return tuple(-i for i in range(1, n + 1))


def bn_reduced_words_dfs(n: int) -> list[tuple[int, ...]]:
    """All reduced words for the longest signed permutation, by descent DFS."""
    out: list[tuple[int, ...]] = []
    suffix: list[int] = []

    def rec(w: tuple[int, ...]) -> None:
        descents = signed_right_descents(w)
        if not descents:
            out.append(tuple(reversed(suffix)))
            return
        for i in descents:
            suffix.append(i)
            rec(signed_apply_right(w, i))
            suffix.pop()

    rec(bn_longest(n))
    return sorted(out)


def action_of_map(elements: Sequence, image: Callable) -> FiniteAction:
    """The action of the map ``image`` on the distinct ``elements``."""
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("elements are not distinct")
    return FiniteAction([index[image(x)] for x in elements])


def subsets_action(n: int, k: int) -> FiniteAction:
    elements = sorted(combinations(range(1, n + 1), k))
    return action_of_map(elements, lambda s: tuple(sorted(x % n + 1 for x in s)))


def multisets_action(n: int, k: int) -> FiniteAction:
    elements = sorted(combinations_with_replacement(range(1, n + 1), k))
    return action_of_map(elements, lambda s: tuple(sorted(x % n + 1 for x in s)))


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
