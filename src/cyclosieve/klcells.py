"""Kazhdan-Lusztig polynomials, the mu function, cellular matrices, and
KL immanants for small symmetric groups.

A table holds P_{u,w} for u and w in a set X: all of S_n, or, for a set J
of positions, the coset maxima X_J = {w : w(i) > w(i + 1) for every i in J},
the longest elements of the cosets w W_J.  For w in X_J and t in J,
P_{u,w} = P_{ut,w} for every u, so the P_{u,w} with u, w in X_J, Deodhar's
parabolic polynomials with u = -1 (J. Algebra 111, 1987), carry all of P_{.,w}.
The cell with recording tableau css(shape) lies in X_J for J = Des(css(shape)),
so the mu-matrix of a cellular module is read off that table.  X_J is
enumerated directly: the positions joined by J fall into blocks, one per
column of css(shape), each a decreasing run, and |X_J| = n!/prod m! over the
block sizes m.

The table is built along increasing length.  Within the column of w, u
runs from the longest down.  If some left descent t of w is not a left
descent of u, or some right descent t of w is not a right descent of u,
then P_{u,w} = P_{tu,w} or P_{ut,w} (Kazhdan-Lusztig 1979, 2.3), a value
already stored since tu and ut are longer.  The t taken, the lowest missing
left descent, else the lowest missing right one, depends only on the
descent masks of w and u, so a step table per side, built once, maps the
two masks to the neighbour list of t: a copy step is two list lookups and a
dict get.  Such a pair has mu(u, w) = 0 unless tu = w (or ut = w), that
is, unless u is a coatom of w, since P_{tu,w} has degree at most
(l(w) - l(tu) - 1)/2 < (l(w) - l(u) - 1)/2; on a coatom mu(u, w) = 1, so a
copy step reads no coefficient.  Only where u has every left and every
right descent of w does the descent recursion run, with s the smallest left
descent of w; s is then a left descent of u too, so
P_{u,w} = P_{su,sw} + q P_{u,sw} - sum mu(z,sw) q^((l(w)-l(z))/2) P_{u,z}.
The Bruhat table comes from the lifting property: for s a left descent of
w, u <= w iff min(u, su) <= sw, one gather of the row of sw per w.

On X_J three rules keep the build inside X:
- the recursion's s is the smallest left descent of w with sw in X, and the
  lifting gathers row sw at su when su is in X and su < u, and at u
  otherwise;
- where su is not in X, su = ut with t in J, and P_{su,v} is read as
  P_{u,v}, since t is a right descent of v;
- the descent masks of u count a neighbour outside X as a descent.  A left
  neighbour outside X is shorter, so left copy steps and the mu-sum never
  leave X; a right copy step along t is taken only when ut is in X.
With J empty no neighbour leaves X, and the build is the one of S_n.

P_{u,w} = P_{u^-1,w^-1} = P_{w0 u w0, w0 w w0} (Kazhdan-Lusztig 1979), and
these maps keep length and Bruhat order.  So the columns fall into classes
{w, w^-1, w0 w w0, w0 w^-1 w0}, under those of the three maps that send X
to itself (all three when J is empty): only the column of lowest index in
each class is computed, and the others are filled from it by relabelling.

The index tables are built from the one list of X at list level: its
columns are zipped, with two columns or two values swapped, and looked up
with ``map``, so no Python code runs per neighbour; a neighbour outside X
is read as the element itself.  w0 w has the mirrored index, and w^-1 and
w0 w w0 follow w = s v along the smallest left descent s, in the loop that
fills the Bruhat table.

The table's one resource limit is the enumeration cap: ``kl_table`` holds
the n! x n! entries of the Bruhat table of S_n against it before anything
is built, also for a table over X_J, so the default cap admits rank 6 and
rank 7 needs a cap of 7!^2.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, permutations as _itertools_permutations, repeat
from operator import add, ge, gt, lshift, or_, sub
from typing import Optional, TextIO

import numpy as np

from .jeudetaquin import promotion_permutation
from .permutations import Permutation, rsk_inverse
from .tableaux import CapExceeded, Composition, Partition, Tableau, _resolve_cap, css
from .tableaux import descent_set, enumerate_syt, extended_descent_set, tableaux_from_words

# pairs (w, v) stacked per block of vanishing_criterion_check
_BLOCK_ROWS = 1 << 16

_Coeffs = tuple[int, ...]
_ONE: _Coeffs = (1,)
_ZERO: _Coeffs = ()


def _plus_q_times(a: _Coeffs, b: _Coeffs) -> _Coeffs:
    """a + q * b."""
    if not b:
        return a
    if not a:
        return (0, *b)
    return (a[0], *map(add, a[1:], b), *b[len(a) - 1:], *a[len(b) + 1:])


def _minus_monomial_times(a: _Coeffs, c: int, k: int, b: _Coeffs) -> _Coeffs:
    """a - c * q^k * b, without trailing zeros."""
    out = list(a)
    top = k + len(b)
    if len(out) < top:
        out.extend([0] * (top - len(out)))
    for j, x in enumerate(b, k):
        out[j] -= c * x
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _step_table(neighbours: list[list[int]]) -> list[list[Optional[list[int]]]]:
    """table[dw][du] is the neighbour list of the lowest descent in the mask dw
    that the mask du lacks, or None when du contains dw; bit i - 1 of a mask
    stands for s_i, whose neighbour list is ``neighbours[i - 1]``."""
    masks = range(1 << len(neighbours))
    by_missing = [None, *(neighbours[(m & -m).bit_length() - 1] for m in masks[1:])]
    return [[by_missing[dw & ~du] for du in masks] for dw in masks]


def _coset_maxima(n: int, descents: frozenset[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """X_J for J = ``descents``, the w with w(i) > w(i + 1) for every i in J,
    in one-line order, and the length of each.

    The positions joined by J fall into blocks, each one decreasing run, so
    |X_J| = n!/prod m! over the block sizes m.  The blocks of one position
    after the last one of J take their k values in every order: S_k, which
    ``permutations`` lists in one-line order, where a first entry a + 1 adds
    a inversions to the rest's.  The other blocks are put in front, last
    first.  A block of m positions, with k values for it and the blocks
    after it, takes m of the ranks 1..k, largest first, and the word after
    it is read in the ranks left.  In one-line order the block's rank tuples
    are the descending m-tuples in increasing order, and ranks
    r_1 > ... > r_m add (r_1 - 1) + ... + (r_m - 1) inversions: r_j - 1 -
    (m - j) with the values after the block, and m - j within it.  With J
    empty, X_J is S_n.
    """
    head = max(descents) + 1 if descents else 0  # positions before the blocks of one
    k = n - head
    words = list(_itertools_permutations(range(1, k + 1)))
    lengths = [0]
    for size in range(2, k + 1):
        lengths = [a + length for a in range(size) for length in lengths]
    bounds = [0, *(i for i in range(1, head) if i not in descents), head] if descents else [0]
    for m in reversed(list(map(sub, bounds[1:], bounds))):
        k += m
        out_words, out_lengths = [], []
        for ranks in list(combinations(range(k, 0, -1), m))[::-1]:
            rest = (0, *(r for r in range(1, k + 1) if r not in ranks)).__getitem__
            out_words += [(*ranks, *map(rest, word)) for word in words]
            added = sum(ranks) - m
            out_lengths += [added + length for length in lengths]
        words, lengths = out_words, out_lengths
    return words, lengths


def _descent_masks(neighbours: list[list[int]], compare, size: int) -> list[int]:
    """Bit i - 1 of mask w is set iff compare(w, neighbours[i - 1][w])."""
    masks, ids = [0] * size, range(size)
    for bit, s in enumerate(neighbours):
        masks = list(map(or_, masks, map(lshift, map(compare, ids, s), repeat(bit))))
    return masks


class KLTable:
    """Kazhdan-Lusztig polynomials P_{u,w} for u, w in X, all of S_n or the
    coset maxima X_J = {w : w(i) > w(i + 1) for every i in J}, J = ``descents``.

    Permutations are addressed by their index in ``perms`` (sorted by length,
    then one-line order).  ``_left[i - 1][w]`` is the index of s_i * w,
    ``_right[i - 1][w]`` that of w * s_i, ``_w0_left[w]`` that of w0 * w
    (full table only), ``_inverse[w]`` that of w^-1 and ``_conj[w]`` that of
    w0 * w * w0, so the build and the queries never rebuild a permutation
    tuple.  A neighbour outside X is stored as w itself; ``_inverse`` and
    ``_conj`` are None unless the map sends X to itself.  These tables come
    from the one list of X that ``_coset_maxima`` gives: lengths from its
    blocks, neighbours by zipping its columns.

    The build fills each column w from the longest u down.  P_{u,w} is
    copied from P_{tu,w} or P_{ut,w} when a left or right descent t of w is
    missing from u: ``_step_table`` gives, for the descent masks of w and u,
    the neighbour list that takes u to tu or ut.  Where that neighbour is w,
    u is a coatom of w, P_{u,w} = 1 and mu(u, w) = 1; elsewhere on a copied
    pair mu(u, w) = 0.  The descent recursion runs only on the remaining u.
    Columns are computed only for the lowest index of each class
    {w, w^-1, w0 w w0, w0 w^-1 w0}, under those of the three maps that send
    X to itself; the other columns of the class are that column relabelled.

    On X_J (Deodhar 1987) three rules keep the build inside X:
    - the recursion's s is the smallest left descent of w with sw in X, and
      the lifting gathers row sw at su when su is in X and su < u, and at u
      otherwise;
    - where su is not in X, su = ut with t in J, and P_{su,v} is read as
      P_{u,v}, since t is a right descent of v;
    - the masks of u count a neighbour outside X as a descent (``_ldesc``
      and ``_rclosed``), so left copy steps and the mu-sum never leave X,
      and a right copy step along t is taken only when ut is in X.  The
      right mask of w, ``_rdesc``, is its descents t with wt in X: a t in J
      is in the mask of every u.
    With J empty there is no neighbour outside X, and every map sends X to
    itself.
    """

    def __init__(self, n: int, descents: frozenset[int] = frozenset()):
        if not descents <= frozenset(range(1, n)):
            raise ValueError(f"the descents {sorted(descents)} are not positions 1..{n - 1}")
        self.n = n
        self.descents = descents
        words, word_lengths = _coset_maxima(n, descents)
        ids = range(len(words))
        order = sorted(ids, key=word_lengths.__getitem__)
        self.perms: list[tuple[int, ...]] = list(map(words.__getitem__, order))
        self.lengths: list[int] = sorted(word_lengths)
        self.index: dict[tuple[int, ...], int] = dict(zip(self.perms, ids))
        get = self.index.get
        cols = list(zip(*self.perms))
        # w * s_i swaps two columns, s_i * w swaps two values in every column;
        # a neighbour outside X is read as w itself
        self._right: list[list[int]] = [
            list(map(get, zip(*cols[:i - 1], cols[i], cols[i - 1], *cols[i + 1:]), ids))
            for i in range(1, n)
        ]
        self._left: list[list[int]] = [
            list(map(get, zip(*[map(swap.__getitem__, c) for c in cols]), ids))
            for swap in ([*range(i), i + 1, i, *range(i + 2, n + 1)] for i in range(1, n))
        ]
        # descent bitmasks: bit i-1 of down[w] (_rdesc[w]) is set iff s_i * w
        # (w * s_i) is in X and shorter than w, that is, has a smaller index;
        # of _ldesc[w] (_rclosed[w]) iff it is shorter or outside X, that is,
        # has an index not above w's.  A left neighbour outside X is shorter,
        # so _ldesc has the left descents; _rdesc leaves out J, which every u
        # has in _rclosed.  With J empty the two kinds are the same.
        size = len(self.perms)
        down = _descent_masks(self._left, gt, size)
        self._rdesc: list[int] = _descent_masks(self._right, gt, size)
        self._ldesc, self._rclosed = down, self._rdesc
        if descents:
            self._ldesc = _descent_masks(self._left, ge, size)
            self._rclosed = _descent_masks(self._right, ge, size)
        # below[w] marks the u <= w.  With s the smallest left descent of w
        # with v = sw in X, u <= w iff min(u, su) <= v (Deodhar 1977); where
        # su = ut is outside X, ut <= v iff u <= v.  The shorter of u and su
        # has the smaller index, and su outside X is stored as u, so row w is
        # row v gathered at min(u, su).  Also w^-1 = v^-1 s and
        # w0 w w0 = s' w0 v w0 with s' = w0 s w0, that is, s_{n-i} for s = s_i.
        ids = np.arange(size)
        if not descents:
            # w0 * w complements every value, which reverses length and
            # one-line order, so it reverses index order
            self._w0_left = ids[::-1]
        lifts = [np.minimum(ids, s) for s in self._left]
        below = np.zeros((size, size), dtype=bool)
        below[0, 0] = True
        left, right = self._left, self._right
        self._s = s_index = [0] * size  # i - 1 for the recursion's s = s_i
        inverse, conj = [0] * size, [0] * size
        for w in range(1, size):
            s_index[w] = i = (down[w] & -down[w]).bit_length() - 1
            v = left[i][w]
            below[v].take(lifts[i], out=below[w])
            inverse[w] = right[i][inverse[v]]
            conj[w] = left[n - 2 - i][conj[v]]
        self._leq = below.T  # _leq[u, w] is u <= w; a view, never copied
        # w -> w0 w w0 sends X_J to X_{n - J}, and w -> w^-1 sends X_J to
        # itself only when J is empty (or X_J = {w0}); a map is kept, and
        # its recurrence above is valid, only when it sends X to itself
        self._inverse: Optional[list[int]] = None if descents else inverse
        self._conj: Optional[list[int]] = conj if descents == {n - j for j in descents} else None
        self._parity = np.bitwise_and(self.lengths, 1)  # l(w) mod 2
        # _polys[w] maps u to P_{u,w}; only polynomials other than 1 are stored
        self._polys: list[dict[int, _Coeffs]] = [{} for _ in self.perms]
        self._mu_lists: dict[int, tuple[tuple[int, int], ...]] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _coeffs(self, u: int, w: int) -> _Coeffs:
        if u == w:
            return _ONE
        if not self._leq[u, w]:
            return _ZERO
        return self._polys[w].get(u, _ONE)

    def _build(self) -> None:
        leq = self._leq
        lengths = self.lengths
        left, right = self._left, self._right
        ldesc, rdesc, rclosed, s_of = self._ldesc, self._rdesc, self._rclosed, self._s
        polys, mu_lists = self._polys, self._mu_lists
        # the maps of {w^-1, w0 w w0, w0 w^-1 w0} that send X to itself
        inverse, conj = self._inverse, self._conj
        images = [f for f in (inverse, conj) if f is not None]
        if inverse is not None:
            images.append(list(map(conj.__getitem__, inverse)))
        ids = range(len(self.perms))
        lowest = list(map(min, ids, *images)) if images else ids  # of each class
        # bit u of lower[w] is set iff u <= w; build-time only
        lower = list(map(int.from_bytes, np.packbits(leq.T, axis=1, bitorder="little"), repeat("little")))
        lsteps_of, rsteps_of = _step_table(left), _step_table(right)
        for w, pw in enumerate(self.perms):
            if w == 0:  # the shortest element of X
                mu_lists[w] = ()
                continue
            if lowest[w] < w:
                continue  # filled along with the lowest index of its class
            lsteps, rsteps = lsteps_of[ldesc[w]], rsteps_of[rdesc[w]]
            i = s_of[w] + 1  # smallest left descent with sw in X
            s = left[i - 1]
            v = s[w]
            bit = 1 << (i - 1)
            lw = lengths[w]
            lower_v, col_v, col_w = lower[v], polys[v], polys[w]
            get = col_w.get
            mu_v = [
                (z, mu, (lw - lengths[z]) // 2, lower[z], polys[z])
                for z, mu in mu_lists[v]
                if ldesc[z] & bit
            ]
            mus: list[tuple[int, int]] = []
            # longest first, so tu and ut are done before u; w itself is last
            # in index order and is skipped
            for u in leq[:, w].nonzero()[0][-2::-1].tolist():
                step = lsteps[ldesc[u]] or rsteps[rclosed[u]]
                if step:  # P_{u,w} = P_{tu,w} or P_{ut,w}
                    t = step[u]
                    if t == w:  # a coatom: P_{u,w} = 1 and mu(u, w) = 1
                        mus.append((u, 1))
                    elif (total := get(t)) is not None:  # else P_{u,w} = 1
                        col_w[u] = total
                    continue
                # s is a left descent of u: c = 1 in the recursion, and
                # su <= sw = v since s is a left descent of both u and w;
                # s[u] is u where su = ut is outside X, and P_{ut,v} = P_{u,v}
                p_su = col_v.get(s[u], _ONE)
                p_u = col_v.get(u, _ONE) if lower_v >> u & 1 else _ZERO
                total = _plus_q_times(p_su, p_u)
                for z, mu, half, lower_z, col_z in mu_v:
                    if lower_z >> u & 1:
                        total = _minus_monomial_times(total, mu, half, col_z.get(u, _ONE))
                bound = (lw - lengths[u] - 1) // 2
                if len(total) - 1 > bound:
                    raise AssertionError(
                        f"degree bound violated at {self.perms[u]} <= {pw}: {total}"
                    )
                if total != _ONE:
                    col_w[u] = total
                if (lw - lengths[u]) % 2 == 1:
                    mu_val = total[bound] if bound < len(total) else 0
                    if mu_val:
                        mus.append((u, mu_val))
            mu_lists[w] = tuple(reversed(mus))
            for f in images:
                if f[w] != w:
                    polys[f[w]] = dict(zip(map(f.__getitem__, col_w), col_w.values()))
                    mu_lists[f[w]] = tuple(sorted((f[u], mu) for u, mu in mu_lists[w]))

    # -- queries ------------------------------------------------------------

    def _idx(self, w: Permutation) -> int:
        try:
            return self.index[tuple(w)]
        except KeyError:
            where = f" with w(i) > w(i + 1) at {sorted(self.descents)}" if self.descents else ""
            raise ValueError(f"{w} is not a permutation of [{self.n}]{where}") from None

    def mu(self, u: Permutation, w: Permutation) -> int:
        """Directed mu(u, w): top allowed coefficient of P_{u,w}."""
        ui, wi = self._idx(u), self._idx(w)
        diff = self.lengths[wi] - self.lengths[ui]
        if diff <= 0 or diff % 2 == 0 or not self._leq[ui, wi]:
            return 0
        coeffs = self._coeffs(ui, wi)
        bound = (diff - 1) // 2
        return coeffs[bound] if bound < len(coeffs) else 0

    def _signed_support(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """The v >= w, as indices, and (-1)^(l(v)-l(w)) P_{w0 v, w0 w}(1) for
        each, as an int64 array; no value is 0, since P_{u,x}(0) = 1 for u <= x."""
        x = self._w0_left[w]
        below = np.flatnonzero(self._leq[:, x])  # u <= w0 w, that is, w0 u >= w
        values = np.ones(len(below), dtype=np.int64)
        col = self._polys[x]
        if col:
            values[np.searchsorted(below, list(col))] = [sum(c) for c in col.values()]
        values[self._parity[below] != self._parity[x]] *= -1
        return self._w0_left[below], values

    def mu_sym(self, u: Permutation, w: Permutation) -> int:
        return max(self.mu(u, w), self.mu(w, u))

    def comparable_pairs(self) -> int:
        return int(self._leq.sum())

    def dump_triples(self, out: TextIO, as_json: bool) -> int:
        """Write every P_{u,v} with u < v to ``out`` and return the pair count.

        Rows come column by column: v ascending, then u ascending.  In JSON
        the whole document is ``{"n": n, "polynomials": [...]}`` with each row
        ``{"coeffs": [...], "u": [...], "v": [...]}``, the bytes that
        ``json.dumps(..., sort_keys=True)`` gives; as text each row is a line
        ``u v coeffs``.  Each permutation and each distinct coefficient tuple
        is formatted once (``str`` of a list of ints is its JSON), and so is
        every row head: in JSON ``{"coeffs": C, "u": `` per tuple, ``U, "v": ``
        per permutation and, for P = 1, the two joined per permutation; as
        text ``U `` per permutation and ``C`` plus a newline per tuple.  A row
        is then a head or two and the column's tail.  One string is written
        per column, so the dump is never held whole.
        """
        perm_text = [str(list(p)) for p in self.perms]
        coeff_text = {
            c: str(list(c)) for c in set().union(*map(dict.values, self._polys), [_ONE])
        }
        pairs = 0
        if as_json:
            coeff_rows = {c: '{"coeffs": ' + text + ', "u": ' for c, text in coeff_text.items()}
            u_rows = [text + ', "v": ' for text in perm_text]
            one_rows = [coeff_rows[_ONE] + row for row in u_rows]
            out.write(f'{{"n": {self.n}, "polynomials": [')
        else:
            heads = [text + " " for text in perm_text]
            coeff_lines = {c: text + "\n" for c, text in coeff_text.items()}
        for w, col in enumerate(self._polys):
            # w itself comes last: every u < w is shorter, so has a smaller index
            below = np.flatnonzero(self._leq[:, w]).tolist()[:-1]
            if not below:
                continue
            v = perm_text[w]
            get = col.get  # None where P_{u,w} = 1
            if as_json:
                tail = v + "}"
                rows = ", ".join([
                    (one_rows[u] if (c := get(u)) is None else coeff_rows[c] + u_rows[u]) + tail
                    for u in below
                ])
                out.write(f", {rows}" if pairs else rows)
            else:
                v_head = v + " "
                one_tail = v_head + coeff_lines[_ONE]
                out.write("".join([
                    heads[u] + (one_tail if (c := get(u)) is None else v_head + coeff_lines[c])
                    for u in below
                ]))
            pairs += len(below)
        if as_json:
            out.write("]}\n")
        return pairs


def kl_table(n: int, cap: Optional[int] = None, descents: frozenset[int] = frozenset()) -> KLTable:
    """The memoized KL table for S_n, or for its coset maxima X_J with
    J = ``descents``; either way the n! x n! Bruhat table of S_n is held
    against the cap before anything is built.

    The full table's memo is keyed by the rank alone, so every call form for
    one rank shares one build; ``kl_table.cache_info()`` reports on it.  The
    tables over X_J have a memo of their own.  The cap is checked on every
    call, so a table built under a larger cap is not returned past a smaller
    one.
    """
    if n < 0:
        raise ValueError(f"the rank must be nonnegative, got {n}")
    if n > 7:
        raise ValueError("ranks above 7 are not supported")
    entries = math.factorial(n) ** 2
    if entries > (limit := _resolve_cap(cap)):
        raise CapExceeded(
            f"the Bruhat table of S_{n} has {entries} > cap {limit} entries "
            "(--cap on the command line)"
        )
    return _coset_table(n, descents) if descents else _kl_table(n)


_kl_table = cache(KLTable)
_coset_table = cache(KLTable)
kl_table.cache_info = _kl_table.cache_info
kl_table.cache_clear = _kl_table.cache_clear


# -- cellular modules --------------------------------------------------------


def _cell_table(shape: Partition, cap: Optional[int] = None) -> KLTable:
    """The KL table over X_J, J = Des(css(shape)), where the cell with
    recording tableau css(shape) lies; the cap is held against n!^2."""
    return kl_table(shape.size, cap, descent_set(css(shape)))


def _cell_basis(shape: Partition, table: KLTable):
    """SYT(shape), the basis of the cellular module: its packed words, its
    tableaux, their descent sets and the mu-matrix over them
    (mu[a][b] = mu[(T, P_a), (T, P_b)] for any recording tableau T), read
    from ``table`` with T = css(shape): the full table or ``_cell_table``.
    The caller asks for the table first: its cap check covers SYT(shape),
    since |SYT(shape)| <= |X_J| <= n! <= n!^2."""
    words = enumerate_syt(shape, packed=True)
    basis = tableaux_from_words(words, shape)
    t = css(shape)
    perms = [rsk_inverse(p, t) for p in basis]
    mu = [[table.mu_sym(x, y) for y in perms] for x in perms]
    return words, basis, [descent_set(t) for t in basis], mu


def _generator_matrix(
    descents: list[frozenset[int]], mu: list[list[int]], i: int
) -> tuple[tuple[int, ...], ...]:
    """Matrix of s_i on the cellular module, in a basis with the given descent sets.

    Entry (r, c) is the coefficient of basis tableau r in s_i applied to
    basis tableau c: -1 on the diagonal at descents, otherwise +1 plus
    mu-coupled off-diagonal terms at tableaux having i as a descent.  With
    extended descent sets and i = n this is the formula for s_n.
    """
    dim = len(descents)
    matrix = [[0] * dim for _ in range(dim)]
    for col in range(dim):
        if i in descents[col]:
            matrix[col][col] = -1
        else:
            matrix[col][col] = 1
            for row in range(dim):
                if row != col and i in descents[row]:
                    matrix[row][col] = mu[col][row]
    return tuple(map(tuple, matrix))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def _identity_matrix(n: int):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


# -- long-cycle promotion identity verification ------------------------------


def _kl_basis_long_cycle_coefficient(base: Tableau, promoted: Tableau, table: KLTable) -> int:
    """Coefficient of the promoted superstandard KL basis element after
    multiplying C'_u(1) by the long cycle.

    ``base`` is the column superstandard tableau and ``promoted`` its
    promotion.  C'_u(1) = sum_x (-1)^(l(u)-l(x)) P_{x,u}(1) x over the
    x <= u, the signed support of w0 u read back through w0; the long cycle
    c, applied after x, shifts its entries by one cyclically.  By the
    inversion formula (Kazhdan-Lusztig 1979, (3.1)) the group element y has
    coefficient P_{w0 y, w0 v}(1) on C'_v(1), the absolute value of the
    signed support of v at y, so the coefficient is one dot product.
    """
    n = base.size
    u = table._idx(rsk_inverse(base, base))
    v = table._idx(rsk_inverse(promoted, base))
    xs, values = table._signed_support(table._w0_left[u])  # w0 x for each x <= u
    shifted = [table.index[tuple(w % n + 1 for w in table.perms[x])]
               for x in table._w0_left[xs].tolist()]
    ys, inverse = table._signed_support(v)
    row = dict(zip(ys.tolist(), np.abs(inverse).tolist()))
    return sum(value * row.get(y, 0) for value, y in zip(values.tolist(), shifted))


def verify_promotion_identity(shape: Partition, cap: Optional[int] = None) -> dict:
    """Check rho(c_n) = (-1)^(a-1) J on the cellular module of an a x b
    rectangle with a >= 1.

    Also checks the induced formula for the affine generator (1, n) against
    extended descents, and the KL-basis coefficient pinned by the
    superstandard tableau computation.
    """
    shape = Partition(shape)
    if not shape or not shape.is_rectangular():
        raise ValueError("the promotion identity concerns a x b rectangles with a >= 1")
    n = shape.size
    sign = (-1) ** (len(shape) + 1)
    # the KL-basis coefficient reads P over all of S_n, so the full table
    table = kl_table(n, cap)
    words, basis, descents, mu = _cell_basis(shape, table)
    promotion = promotion_permutation(words, shape, n).tolist()
    dim = len(promotion)
    gens = [_generator_matrix(descents, mu, i) for i in range(1, n)]
    rho_cn = _identity_matrix(dim)
    for gen in gens:
        rho_cn = _mat_mul(rho_cn, gen)
    # sign * J, where J sends each basis tableau to its promotion
    expected = tuple(tuple(sign if promotion[c] == r else 0 for c in range(dim)) for r in range(dim))
    long_cycle_matches = rho_cn == expected

    # rho(s_n) = rho(c_n) rho(s_{n-1}) rho(c_n)^{-1}; compare with the
    # extended-descent formula.
    if n > 1:
        rho_sn = _mat_mul(_mat_mul(rho_cn, gens[-1]), tuple(zip(*expected)))
        exts = [extended_descent_set(t) for t in basis]
        affine_matches = rho_sn == _generator_matrix(exts, mu, n)
        base = css(shape)
        promoted = basis[promotion[basis.index(base)]]
        coefficient = _kl_basis_long_cycle_coefficient(base, promoted, table)
    else:
        affine_matches = True
        coefficient = sign
    return {
        "family": "kl-promotion-identity",
        "parameters": {"shape": list(shape)},
        "sign": sign,
        "long_cycle_matches": long_cycle_matches,
        "affine_generator_matches": affine_matches,
        "kl_basis_coefficient": coefficient,
        "kl_basis_coefficient_matches": coefficient == sign,
        "verdict": long_cycle_matches and affine_matches and coefficient == sign,
    }


# -- mu invariance under promotion -------------------------------------------


def mu_promotion_invariance(shape: Partition, cap: Optional[int] = None) -> dict:
    """Exhaustively compare mu[P,Q] with mu[j(P),j(Q)] over a shape; each
    failure lists the pair of tableaux and both values."""
    shape = Partition(shape)
    words, basis, _, mu = _cell_basis(shape, _cell_table(shape, cap))
    promotion = promotion_permutation(words, shape, shape.size).tolist()
    pairs = list(combinations(range(len(basis)), 2))
    failures = [
        {
            "p": [list(r) for r in basis[a].rows],
            "q": [list(r) for r in basis[b].rows],
            "mu": mu[a][b],
            "mu_after_promotion": mu[promotion[a]][promotion[b]],
        }
        for a, b in pairs
        if mu[a][b] != mu[promotion[a]][promotion[b]]
    ]
    return {
        "family": "kl-mu-invariance",
        "parameters": {"shape": list(shape)},
        "pairs_checked": len(pairs),
        "failures": failures,
        "verdict": not failures,
    }


# -- KL immanants and the vanishing criterion --------------------------------


def _compositions(n: int) -> list[Composition]:
    """All compositions of n in lexicographic order, one per set of cuts
    among 1, ..., n - 1; the empty composition is the one of 0."""
    if not n:
        return [Composition()]
    cut_sets = (cuts for k in range(n) for cuts in combinations(range(1, n), k))
    return sorted(Composition(map(sub, (*cuts, n), (0, *cuts))) for cuts in cut_sets)


def _support_blocks(table: KLTable, words):
    """The signed supports of ``words`` in order, in runs of whole supports
    that stop once they hold _BLOCK_ROWS pairs (w, v)."""
    block, size = [], 0
    for word in words:
        block.append(table._signed_support(table.index[word]))
        size += len(block[-1][0])
        if size >= _BLOCK_ROWS:
            yield block
            block, size = [], 0
    if block:
        yield block


def _vanishing_matrix(table: KLTable, words, labels) -> np.ndarray:
    """vanishes[i, a] is True iff Imm_w(x_{alpha,1^n}) = 0, for w = words[i]
    and alpha the composition whose row labels are labels[a].

    The signed supports of a block of w are stacked, and for each alpha
    every v is keyed by its monomial, sum_p 2^((row_alpha(p) - 1) n + v(p) - 1),
    above which sit the bits of the position of w in the block; with
    n! < 2^13 that fits in int64 for n <= 7.  One sort and one integer
    ``add.reduceat`` give every coefficient of every Imm_w(x_{alpha,1^n}) in
    the block; w vanishes iff all of them are 0.
    """
    n = table.n
    # weights[p, a] shifts the bit of v(p) into the n bits of row_alpha(p)
    weights = np.array([[1 << (r - 1) * n for r in rows] for rows in labels],
                       dtype=np.int64).reshape(len(labels), n).T
    oneline = np.array(table.perms, dtype=np.int8).reshape(len(table.perms), n)
    vanishes = np.ones((len(words), len(labels)), dtype=bool)
    start = 0
    for block in _support_blocks(table, words):
        owner = np.repeat(np.arange(len(block), dtype=np.int64) << n * n,
                          [len(v) for v, _ in block])
        bits = np.left_shift(1, oneline[np.concatenate([v for v, _ in block])] - 1,
                             dtype=np.int64)
        coeffs = np.concatenate([c for _, c in block])
        out = vanishes[start:start + len(block)]
        for a in range(len(labels)):
            keys = owner | bits @ weights[:, a]
            order = np.argsort(keys)
            keys = keys[order]
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            sums = np.add.reduceat(coeffs[order], starts)
            out[keys[starts[sums != 0]] >> n * n, a] = False
        start += len(block)
    return vanishes


def vanishing_criterion_check(
    n: int, table: Optional[KLTable] = None, cap: Optional[int] = None
) -> dict:
    """Imm_w(x_{alpha,1^n}) = 0 iff the recording tableau is not
    alpha-semistandardizable, checked over all w and alpha.

    The content labelling alpha is read off the rows of the repeated-row
    matrix itself: that is the only reading consistent with the vanishing
    rule, and the report's ``note`` says so.

    Both sides are read at set level: the immanants by ``_vanishing_matrix``
    (the per-pair ``kl_immanant`` of ``tests/oracles/klcells.py`` is its
    oracle), semistandardizability by comparing the descent bitmask of each
    w, which is that of its recording tableau, with the positions i that
    share a block of alpha with i + 1.
    """
    if table is None:
        table = kl_table(n, cap)
    if table.n != n:
        raise ValueError(f"the table is for rank {table.n}, not {n}")
    alphas = _compositions(n)
    labels = [alpha.labels() for alpha in alphas]
    words = list(_itertools_permutations(range(1, n + 1)))
    # bit i - 1 of inside[a] is set iff i and i + 1 fall in one block of alpha
    inside = np.array([sum(1 << i - 1 for i in range(1, n) if r[i - 1] == r[i]) for r in labels])
    # Des(Q(w)) = Des(w), the i with w(i) > w(i + 1) (Stanley, EC2 Lemma 7.23.1)
    descents = np.array([sum(1 << i - 1 for i in range(1, n) if p[i - 1] > p[i]) for p in words])
    semistandard = (inside & ~descents[:, None]) == 0
    vanishes = _vanishing_matrix(table, words, labels)
    mismatches = [
        {"w": list(words[w]), "alpha": list(alphas[a])}
        for w, a in np.argwhere(vanishes == semistandard).tolist()
    ]
    return {
        "family": "kl-immanant-vanishing",
        "parameters": {"n": n},
        "cases_checked": vanishes.size,
        "mismatches": mismatches,
        "note": "the content labelling is read off the rows of the repeated-row matrix "
                "itself, which is the only reading consistent with the vanishing rule",
        "verdict": not mismatches,
    }
