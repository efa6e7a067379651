"""Permutations, Bruhat order, RSK row insertion, and reading words.

One-line notation throughout: ``w = (w_1, ..., w_n)`` sends i to w_i.
Composition is ``(u * v)(i) = u(v(i))``, so ``simple(i, n) * w`` swaps the
values i, i+1 while ``w * simple(i, n)`` swaps positions i, i+1.
"""

from __future__ import annotations

from typing import Iterable

from .tableaux import Partition, Tableau


class Permutation(tuple):
    """A permutation of [n] in one-line notation."""

    def __new__(cls, values: Iterable[int]) -> "Permutation":
        values = tuple(int(v) for v in values)
        if sorted(values) != list(range(1, len(values) + 1)):
            raise ValueError(f"not a permutation of [n]: {values}")
        return super().__new__(cls, values)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return Permutation(tuple(self[other[i] - 1] for i in range(len(self))))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def length(self) -> int:
        """Coxeter length = inversion count."""
        return sum(
            1
            for i in range(len(self))
            for j in range(i + 1, len(self))
            if self[i] > self[j]
        )

    def right_descents(self) -> frozenset[int]:
        return frozenset(i for i in range(1, len(self)) if self[i - 1] > self[i])

    def left_descents(self) -> frozenset[int]:
        return self.inverse().right_descents()

    def __repr__(self) -> str:
        return "".join(map(str, self)) if self and len(self) <= 9 else f"Permutation{tuple(self)}"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def simple(i: int, n: int) -> Permutation:
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    values = list(range(1, n + 1))
    values[i - 1], values[i] = values[i], values[i - 1]
    return Permutation(values)


def long_element(n: int) -> Permutation:
    return Permutation(range(n, 0, -1))


def long_cycle(n: int) -> Permutation:
    """The n-cycle (1, 2, ..., n) sending i to i+1; empty for n = 0."""
    return Permutation(tuple(range(2, n + 1)) + (1,) if n else ())


def cycle_type(w: Permutation) -> Partition:
    w = Permutation(w)
    seen = [False] * len(w)
    lengths = []
    for start in range(1, len(w) + 1):
        if seen[start - 1]:
            continue
        size = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = w(i)
            size += 1
        lengths.append(size)
    return Partition(sorted(lengths, reverse=True))


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


def rsk_inverse(p: Tableau, q: Tableau) -> Permutation:
    """The permutation row-inserting to the pair (p, q)."""
    if p.shape != q.shape:
        raise ValueError("tableaux must have equal shapes")
    if not (p.is_standard() and q.is_standard()):
        raise ValueError("inverse RSK expects standard tableaux")
    p_rows = [list(row) for row in p.rows]
    letters: list[int] = []
    for step in range(p.size, 0, -1):
        r, c = q.position(step)
        r -= 1
        value = p_rows[r].pop()
        if not p_rows[r]:
            p_rows.pop()
        while r > 0:
            r -= 1
            row = p_rows[r]
            # un-bump: the rightmost entry strictly smaller than the value
            lo, hi = 0, len(row)
            while lo < hi:
                mid = (lo + hi) // 2
                if row[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            row[lo - 1], value = value, row[lo - 1]
        letters.append(value)
    return Permutation(letters[::-1])
