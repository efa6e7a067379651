"""Partitions, compositions, and tableaux.

Coordinates are English / matrix style throughout: row 1 is the top row,
column 1 is the leftmost column.  Public cell arguments are 1-indexed pairs
(row, col).  All values are immutable after construction and every function
here is pure.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import cache
from itertools import accumulate, product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

DEFAULT_CAP = 10**6


class CapExceeded(RuntimeError):
    """An enumeration produced more objects than the configured cap."""


def _resolve_cap(cap: Optional[int]) -> int:
    return DEFAULT_CAP if cap is None else cap


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    def __new__(cls, parts: Sequence[int] = ()) -> "Partition":
        if type(parts) is cls:  # immutable, and checked when it was built
            return parts
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"partition parts must be positive: {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must weakly decrease: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Partition":
        if not self:
            return Partition(())
        return Partition(tuple(sum(1 for p in self if p > c) for c in range(self[0])))

    def cells(self) -> Iterator[tuple[int, int]]:
        for r, row_len in enumerate(self, start=1):
            for c in range(1, row_len + 1):
                yield (r, c)

    def is_rectangular(self) -> bool:
        return len(set(self)) <= 1

    def contains(self, other: "Partition") -> bool:
        if len(other) > len(self):
            return False
        return all(o <= s for o, s in zip(other, self))

    def __repr__(self) -> str:
        return f"Partition{tuple(self)}"


class Composition(tuple):
    """A tuple of nonnegative integers; zero parts are allowed and kept."""

    def __new__(cls, parts: Sequence[int] = ()) -> "Composition":
        if type(parts) is cls:  # immutable, and checked when it was built
            return parts
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"composition parts must be nonnegative: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def labels(self) -> tuple[int, ...]:
        """The induced step function [size] -> [len] as a tuple of labels."""
        out: list[int] = []
        for i, p in enumerate(self, start=1):
            out.extend([i] * p)
        return tuple(out)

    def sorted_partition(self) -> Partition:
        """Sort parts decreasingly and drop zeros."""
        return Partition(tuple(sorted((p for p in self if p), reverse=True)))

    def __repr__(self) -> str:
        return f"Composition{tuple(self)}"


def beta_set(shape: Partition, length: int) -> tuple[int, ...]:
    """First-column hook lengths (beta-numbers) padded to the given length."""
    shape = Partition(shape)
    if length < len(shape):
        raise ValueError("beta-set length too small")
    parts = tuple(shape) + (0,) * (length - len(shape))
    return tuple(parts[i] + (length - 1 - i) for i in range(length))


def partition_from_beta(beta: Sequence[int]) -> Partition:
    """The partition whose beta-set, in any order, is ``beta``."""
    beta = sorted(beta, reverse=True)
    length = len(beta)
    parts = [beta[i] - (length - 1 - i) for i in range(length)]
    return Partition([p for p in parts if p > 0])


def abacus_beads(shape: Partition, m: int) -> tuple[int, ...]:
    """The beads of ``shape`` on the abacus with m runners: its beta-set
    whose length is the least positive multiple of m that is at least its
    row count.  Runner i holds the beads b = i mod m, at the levels b // m."""
    if m < 1:
        raise ValueError("ribbon size must be positive")
    shape = Partition(shape)
    return beta_set(shape, m * ((max(len(shape), 1) + m - 1) // m))


def abacus(shape: Partition, m: int) -> tuple[tuple[int, ...], tuple[Partition, ...]]:
    """The bead count on each of the m runners, and the m-quotient: the
    levels of the beads on runner i (:func:`abacus_beads`) are the beta-set
    of the i-th quotient partition.  Results are memoised per (partition, m).
    """
    return _abacus(Partition(shape), m)


@cache
def _abacus(shape: Partition, m: int) -> tuple[tuple[int, ...], tuple[Partition, ...]]:
    runners: list[list[int]] = [[] for _ in range(m)]
    for b in abacus_beads(shape, m):
        runners[b % m].append(b // m)
    return tuple(map(len, runners)), tuple(map(partition_from_beta, runners))


def hook_lengths(shape: Partition) -> list[int]:
    """The hook length, arm + leg + 1, of every cell in the order of
    :meth:`Partition.cells`, read off the column heights, which are built
    from the rows bottom up.  Cell (r, c), 0-indexed, has hook (columns[c] - c) + (shape[r] - r - 1)."""
    shape = Partition(shape)
    columns: list[int] = []
    for r in range(len(shape), 0, -1):
        columns.extend([r] * (shape[r - 1] - len(columns)))
    drops = [height - c for c, height in enumerate(columns)]
    return [d + length - r - 1 for r, length in enumerate(shape) for d in drops[:length]]


def _product(factors: Iterable[int]) -> int:
    """The product of ``factors``, multiplied in pairs level by level, so that
    the large products meet only at the top: one factor at a time, like
    ``math.prod``, the 50,000 hooks of a row cost time quadratic in the digits."""
    factors = list(factors)
    while len(factors) > 1:
        odd = factors[-1:] if len(factors) % 2 else []
        factors = [*map(operator.mul, factors[::2], factors[1::2]), *odd]
    return factors[0] if factors else 1


def _product_quotient(numerator: Iterable[int], denominator: Iterable[int]) -> Optional[int]:
    """The product of ``numerator`` over that of ``denominator``, or None when
    it is not an integer.  Factors common to both cancel before any is
    multiplied, so a row's hooks 1, ..., n cancel n! outright."""
    top, bottom = Counter(numerator), Counter(denominator)
    count, rem = divmod(_product((top - bottom).elements()), _product((bottom - top).elements()))
    return None if rem else count


def syt_count(shape: Partition) -> int:
    """Number of standard fillings, by the hook length formula."""
    shape = Partition(shape)
    n = shape.size
    count = _product_quotient(range(1, n + 1), hook_lengths(shape))
    if count is None:
        raise AssertionError(f"hook product does not divide {n}! for {shape}")
    return count


def cst_count(shape: Partition, k: int) -> int:
    """Number of column-strict fillings with entries <= k, by the hook-content
    formula: the product of k + c(u) over the cells u, divided by the hook product."""
    shape = Partition(shape)
    if k < 0:
        raise ValueError("bound must be nonnegative")
    if len(shape) > k:  # a content factor k + c(u) is zero
        return 0
    # row r (0-indexed) has the contents -r, ..., length - r - 1
    contents = (k + c for r, length in enumerate(shape) for c in range(-r, length - r))
    count = _product_quotient(contents, hook_lengths(shape))
    if count is None:
        raise AssertionError(f"hook product does not divide the content product for {shape}, k = {k}")
    return count


def cst_tuple_count(shapes: Sequence[Partition], content: Sequence[int]) -> int:
    """Tuples of column-strict tableaux, one of each shape, of joint content
    ``content``.  On a single shape this is the Kostka number K_{shape, content}.

    The count is a coefficient of the product of the Schur functions of the
    shapes, which is symmetric, so it is taken at the sorted content with its
    zero parts dropped.
    """
    rows = tuple(row for shape in shapes for row in shape)
    ends = tuple(j == len(shape) - 1 for shape in shapes for j in range(len(shape)))
    return _count_strips(rows, ends, tuple(sorted(part for part in content if part)))


@cache
def _count_strips(rows: tuple[int, ...], ends: tuple[bool, ...], content: tuple[int, ...]) -> int:
    """:func:`cst_tuple_count` on the shapes whose rows are listed in turn in
    ``rows``, with ``ends`` marking each shape's last row.

    The labels are peeled off from the last: each fills a horizontal strip in
    every shape, of sizes adding up to its multiplicity, so each row keeps at
    least the row below it in its own shape.  A row that empties stays as 0,
    so every state has one key.  The peeling runs level by level rather than
    recursively, so a content of any length is counted.
    """
    counts = {rows: 1}
    for part in reversed(content):
        peeled: dict[tuple[int, ...], int] = {}
        for outer, ways in counts.items():
            floors = [0 if end else below for below, end in zip(outer[1:] + (0,), ends)]
            for inner in _strips(outer, floors, part):
                peeled[inner] = peeled.get(inner, 0) + ways
        counts = peeled
    return counts.get((0,) * len(rows), 0)


def _strips(outer: tuple[int, ...], floors: Sequence[int], size: Optional[int]) -> Iterator[tuple[int, ...]]:
    """The tuples ``inner``, with ``floors[i] <= inner[i] <= outer[i]`` in
    every row, that have ``size`` cells fewer than ``outer``, or any number
    fewer when ``size`` is None.  With each floor the length of the row
    below, outer/inner is a horizontal strip; :func:`_count_strips` and
    :func:`_strip_words` peel the same strips.
    """
    most = sum(outer) if size is None else size  # cells that one row may lose
    inners = product(*[range(max(floor, row - most), row + 1) if floor < row else (row,)
                       for floor, row in zip(floors, outer)])
    if size is None:
        return inners
    keep = sum(outer) - size
    return (inner for inner in inners if sum(inner) == keep)


def dominance_leq(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff mu <= lam in dominance order: every partial sum of mu is at
    most the partial sum of lam of the same length.  Trailing zero parts are
    allowed, and a missing part counts as 0."""
    if sum(mu) != sum(lam):
        raise ValueError("dominance order compares partitions of equal size")
    return all(map(operator.le, accumulate(mu), accumulate(lam)))


class Tableau:
    """An immutable filling of a partition shape with positive integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        object.__setattr__(self, "rows", tuple(tuple(int(x) for x in row) for row in rows))
        lengths = [len(row) for row in self.rows]
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)) or 0 in lengths:
            raise ValueError(f"rows do not form a partition shape: {lengths}")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Tableau":
        """A tableau of rows that are already int tuples of a partition shape,
        as :func:`tableaux_from_words` reads them off a packed array; skips
        the conversion and shape check."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(row) for row in self.rows))

    @property
    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def max_entry(self) -> int:
        return max((x for row in self.rows for x in row), default=0)

    def content(self, k: Optional[int] = None) -> Composition:
        """Multiplicity vector of entries, reported with explicit length k."""
        if k is None:
            k = self.max_entry()
        counts = [0] * k
        for row in self.rows:
            for x in row:
                if x > k:
                    raise ValueError(f"entry {x} exceeds content length {k}")
                counts[x - 1] += 1
        return tuple.__new__(Composition, counts)  # counts are never negative

    def position(self, value: int) -> tuple[int, int]:
        """1-indexed cell of a value that occurs exactly once."""
        hits = [(r, c) for r, row in enumerate(self.rows, 1) for c, x in enumerate(row, 1) if x == value]
        if len(hits) != 1:
            raise ValueError(f"value {value} occurs {len(hits)} times")
        return hits[0]

    def transpose(self) -> "Tableau":
        cols = self.shape.conjugate()
        return Tableau(tuple(tuple(self.rows[r][c] for r in range(cols[c])) for c in range(len(cols))))

    def row_word(self) -> tuple[int, ...]:
        """Concatenation of the rows, top to bottom; the canonical sort key."""
        return tuple(x for row in self.rows for x in row)

    def is_column_strict(self, bound: Optional[int] = None) -> bool:
        for row in self.rows:
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                return False
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(upper[i] >= lower[i] for i in range(len(lower))):
                return False
        return bound is None or self.max_entry() <= bound

    def is_standard(self) -> bool:
        n = self.size
        return self.is_column_strict() and sorted(x for row in self.rows for x in row) == list(range(1, n + 1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({list(map(list, self.rows))})"

    def pretty(self) -> str:
        width = max((len(str(x)) for row in self.rows for x in row), default=1)
        return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in self.rows)


def descent_set(t: Tableau) -> frozenset[int]:
    """D(T): i such that i+1 sits strictly south and weakly west of i."""
    if not t.is_standard():
        raise ValueError("descent sets are defined for standard tableaux")
    pos = {t.rows[r][c]: (r, c) for r in range(len(t.rows)) for c in range(len(t.rows[r]))}
    out = set()
    for i in range(1, t.size):
        (r1, c1), (r2, c2) = pos[i], pos[i + 1]
        if r2 > r1 and c2 <= c1:
            out.add(i)
    return frozenset(out)


def _slide(grid: list[list[Optional[int]]], r: int, c: int, forward: bool) -> tuple[int, int]:
    """Jeu-de-taquin: slide the hole at (r, c) until nothing can fill it.

    ``grid`` holds ragged rows of values, with ``None`` for holes.  A forward
    slide moves the hole southeast, pulling in the smaller of its south and
    east neighbours (south on ties); a backward slide moves it northwest,
    pulling in the larger of its north and west neighbours (north on ties).
    Returns the cell where the hole stops.
    """
    step = 1 if forward else -1
    while True:
        rr, cc = r + step, c + step
        vert = grid[rr][c] if 0 <= rr < len(grid) and c < len(grid[rr]) else None
        horiz = grid[r][cc] if 0 <= cc < len(grid[r]) else None
        if vert is None and horiz is None:
            return (r, c)
        if horiz is not None and (vert is None or (vert > horiz if forward else vert < horiz)):
            grid[r][c], grid[r][cc] = horiz, None
            c = cc
        else:
            grid[r][c], grid[rr][c] = vert, None
            r = rr


def extended_descent_set(t: Tableau) -> frozenset[int]:
    """D_e(T) for rectangular standard T: D(T), plus n when the slide rule puts it there.

    Membership of n: delete the 1, slide the hole to the southeast corner and
    ask whether n ends up immediately north of it.
    """
    shape = t.shape
    if not shape.is_rectangular():
        raise ValueError("extended descents are defined for rectangular shapes")
    base = set(descent_set(t))
    n = t.size
    grid: list[list[Optional[int]]] = [list(row) for row in t.rows]
    grid[0][0] = None
    r, c = _slide(grid, 0, 0, True)
    if r > 0 and grid[r - 1][c] == n:
        base.add(n)
    elif not (c > 0 and grid[r][c - 1] == n) and n > 1:
        raise AssertionError("slide did not leave n adjacent to the hole")
    return frozenset(base)


def css(shape: Partition) -> Tableau:
    """Column superstandard filling: columns filled top to bottom, left to right."""
    shape = Partition(shape)
    rows = [[0] * p for p in shape]
    counter = 1
    cols = shape.conjugate()
    for c in range(len(cols)):
        for r in range(cols[c]):
            rows[r][c] = counter
            counter += 1
    return Tableau(rows)


def word_dtype(k: int) -> type:
    """The smallest integer type of a packed word with entries <= k."""
    return np.int8 if k < 2**7 - 1 else np.int16 if k < 2**15 - 1 else np.int64


def enumerate_syt(
    shape: Partition, cap: Optional[int] = None, packed: bool = False
) -> list[Tableau] | np.ndarray:
    """All standard tableaux of the given shape, sorted by row-reading word.

    With ``packed`` no ``Tableau`` is built: row i of the N x (n + 2) result
    is the row-reading word of the i-th tableau followed by 0 and n + 1, the
    layout in which :func:`jeudetaquin.promotion_permutation` promotes a set.
    The words are those of the content 1^n from :func:`_strip_words`, which
    peels the values n, n - 1, ..., 1 off the shape one corner at a time,
    after the count and the words' entries are held against the cap, as in
    :func:`enumerate_cst`.
    """
    shape = Partition(shape)
    limit, n = _resolve_cap(cap), shape.size
    _check_entries(1, shape, None, limit)  # before the hook formula, which takes O(n)
    # n! bounds the count, and is far cheaper to compute on small shapes; its
    # first limit.bit_length() + 2 factors already pass the limit.
    most = math.factorial(min(n, limit.bit_length() + 2))
    if most > limit or most * (n + 2) > ENTRIES_PER_CAP * limit:
        count = syt_count(shape)
        if count > limit:
            raise CapExceeded(f"SYT({tuple(shape)}) has {count} > cap {limit} elements")
        _check_entries(count, shape, None, limit)
    words = _strip_words(shape, n, Composition((1,) * n))
    return words if packed else tableaux_from_words(words, shape)


# Packed-word entries that an enumeration may hold per unit of the cap: the
# N x (n + 2) array of N words is refused past ENTRIES_PER_CAP times the cap.
# SYT(8, 8, 8) at a cap of 30,000,000 holds 23,371,634 words of 26 entries,
# 20.3 times its cap; CST((20000,), 2), whose filler peaks past 1.5 GB,
# holds 20,001 words of 20,002 entries, 400 times the default cap.
ENTRIES_PER_CAP = 32


def _check_entries(count: int, shape: Partition, k: Optional[int], limit: int) -> None:
    """Refuse ``count`` packed words of SYT(shape), or of CST(shape, k) when
    k is given, past ENTRIES_PER_CAP times the cap."""
    entries = shape.size + 2
    if count * entries > ENTRIES_PER_CAP * limit:
        what = f"SYT({tuple(shape)})" if k is None else f"CST({tuple(shape)}, {k})"
        raise CapExceeded(f"{what} needs {count} x {entries} packed word entries, "
                          f"over {ENTRIES_PER_CAP} times the cap {limit}")


def _strip_words(shape: Partition, k: int, content: Optional[Composition]) -> np.ndarray:
    """The packed, sorted row-reading words of the column-strict tableaux of
    the given shape with entries <= k, of the given content unless it is
    None, as :func:`enumerate_cst` returns them with ``packed``.

    The cells labelled v of such a tableau form a horizontal strip nu/rho,
    where nu is the shape of its entries <= v.  The labels k, k - 1, ..., 1
    are peeled off in turn, and the partial fillings of each inner shape are
    one array: each strip off nu writes v into a copy of nu's array, one
    slice per row it touches, and the copies are grouped by rho.  A rho that
    no filling with entries < v completes is dropped: one with v or more
    nonzero rows, or, with a content a, one that does not dominate the sorted
    (a_1, ..., a_{v-1}), as the Kostka number K_{rho mu} is positive just
    when rho dominates mu.  So every partial filling completes, no level
    holds more fillings than the result, and one sort orders the words.
    """
    n = shape.size
    starts = list(accumulate(shape, initial=0))
    dtype = word_dtype(k)
    blank = np.zeros((1, n + 2), dtype)
    blank[0, n + 1] = k + 1
    level = {tuple(shape): [blank]}
    if content is not None:
        # A rho has len(shape) parts, so only that many partial sums of the
        # sorted (a_1, ..., a_{v-1}) decide dominance: tops[v - 1] holds its
        # largest len(shape) parts and then the sum of the rest.
        tops, top = [], ()
        for total, part in zip(accumulate(content, initial=0), content):
            tops.append(top + (total - sum(top),))
            top = tuple(sorted(top + (part,), reverse=True)[:len(shape)])
    for v in range(k, 0, -1):
        if content is None:
            size, completes = None, lambda rho: len(rho) < v or not rho[v - 1]
        else:
            mu = tops[v - 1]
            size, completes = content[v - 1], lambda rho: dominance_leq(mu, rho)
        peeled: dict[tuple[int, ...], list[np.ndarray]] = {}
        for nu, arrays in level.items():
            words = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
            rhos = list(filter(completes, _strips(nu, nu[1:] + (0,), size)))
            for rho in rhos:
                out = words.copy() if rho != rhos[-1] else words  # the last strip takes nu's own array
                for r, (lo, hi) in enumerate(zip(rho, nu)):
                    if lo < hi:
                        out[:, starts[r] + lo:starts[r] + hi] = v
                peeled.setdefault(rho, []).append(out)
        level = peeled
    arrays = level.get((0,) * len(shape), [np.zeros((0, n + 2), dtype)])
    words = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    if len(words) > 1:
        words = words[np.lexsort(words.T[n - 1::-1])]
    return words


def tableaux_from_words(words: np.ndarray, shape: Partition) -> list[Tableau]:
    """The tableaux whose packed row-reading words are the rows of ``words``."""
    if not shape:
        return [Tableau._trusted(()) for _ in range(len(words))]
    rows, start = [], 0
    for length in shape:
        rows.append(map(tuple, words[:, start:start + length].tolist()))
        start += length
    return list(map(Tableau._trusted, zip(*rows)))


def enumerate_cst(
    shape: Partition,
    k: int,
    content: Optional[Composition] = None,
    cap: Optional[int] = None,
    packed: bool = False,
) -> list[Tableau] | np.ndarray:
    """All column-strict tableaux with entries <= k, sorted by row-reading word.

    When ``content`` is given it must have length k and size |shape|, and
    the enumeration is restricted to that content.  Either way the labels
    k, ..., 1 are peeled off the shape as horizontal strips
    (:func:`_strip_words`), after an exact count, the Kostka number
    :func:`cst_tuple_count` or the hook-content count :func:`cst_count`, is
    held against the cap, and the packed words' entries against
    ENTRIES_PER_CAP times the cap.  With ``packed`` no ``Tableau`` is built: row i of
    the N x (n + 2) result is the row-reading word of the i-th tableau
    followed by 0 and k + 1, as :func:`enumerate_syt` returns it.
    """
    shape = Partition(shape)
    if content is not None:
        content = Composition(content)
        if len(content) != k:
            raise ValueError(f"content length {len(content)} != bound {k}")
        if content.size != shape.size:
            raise ValueError("content size must match shape size")
    if k < 0:
        raise ValueError("bound must be nonnegative")
    limit, n = _resolve_cap(cap), shape.size
    if len(shape) <= k:  # else the set is empty
        _check_entries(1, shape, k, limit)  # before the counts, which take O(n)
    # k^n bounds either count, and is far cheaper to compute on small sets;
    # its first limit.bit_length() + 1 factors already pass the limit.
    most = k ** min(n, limit.bit_length() + 1)
    if most > limit or most * (n + 2) > ENTRIES_PER_CAP * limit:
        count = cst_count(shape, k) if content is None else cst_tuple_count((shape,), content)
        if count > limit:
            raise CapExceeded(f"CST({tuple(shape)}, {k}) has {count} > cap {limit} elements"
                              if content is None else f"enumeration exceeded cap {limit}")
        _check_entries(count, shape, k, limit)
    words = _strip_words(shape, k, content)
    return words if packed else tableaux_from_words(words, shape)


def enumerate_rst(
    shape: Partition,
    k: int,
    content: Optional[Composition] = None,
    cap: Optional[int] = None,
) -> list[Tableau]:
    """All row-strict tableaux with entries <= k (transposes of CSTs)."""
    shape = Partition(shape)
    out = [t.transpose() for t in enumerate_cst(shape.conjugate(), k, content, cap)]
    out.sort(key=lambda t: t.row_word())
    return out
