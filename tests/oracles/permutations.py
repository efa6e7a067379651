"""Inverses, lengths and descents one permutation at a time, simple
reflections, Bruhat order by rank tables, and RSK row insertion."""

from __future__ import annotations

from cyclosieve.permutations import Permutation
from cyclosieve.tableaux import Tableau


def inverse(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for i, v in enumerate(w, start=1):
        inv[v - 1] = i
    return Permutation(inv)


def length(w: Permutation) -> int:
    """Coxeter length = inversion count."""
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def right_descents(w: Permutation) -> frozenset[int]:
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Permutation) -> frozenset[int]:
    return right_descents(inverse(w))


def simple(i: int, n: int) -> Permutation:
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    values = list(range(1, n + 1))
    values[i - 1], values[i] = values[i], values[i - 1]
    return Permutation(values)


def _rank_table(w: Permutation) -> tuple[int, ...]:
    """Flattened table counting {a <= i : w(a) >= j}; monotone under Bruhat order."""
    n = len(w)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append(sum(1 for a in range(i) if w[a] >= j))
    return tuple(out)


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Strong Bruhat comparability via the rank-table criterion."""
    u, v = Permutation(u), Permutation(v)
    if len(u) != len(v):
        raise ValueError("size mismatch")
    return all(a <= b for a, b in zip(_rank_table(u), _rank_table(v)))


def rsk(w: Permutation) -> tuple[Tableau, Tableau]:
    """Row insertion: w -> (P(w), Q(w))."""
    w = Permutation(w)
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(w, start=1):
        r = 0
        while True:
            if r == len(p_rows):
                p_rows.append([value])
                q_rows.append([step])
                break
            row = p_rows[r]
            # bump the leftmost entry strictly greater than the incoming value
            lo, hi = 0, len(row)
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid] > value:
                    hi = mid
                else:
                    lo = mid + 1
            if lo == len(row):
                row.append(value)
                q_rows[r].append(step)
                break
            row[lo], value = value, row[lo]
            r += 1
    return Tableau(p_rows), Tableau(q_rows)
