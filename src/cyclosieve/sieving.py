"""The sieving engine: finite cyclic actions, exact fixed-point vs
root-of-unity comparison tables, and the derived combinatorial actions
(promotion families, handshake rotation, Kreweras complementation, signed
permutation words).

Every action acts on its whole set at once and yields the permutation of
it as one array, through ``jeudetaquin._image_permutation``.  The two Catalan
families are partner arrays read off the packed words of SYT(n, n):
rotation shifts each row, and the Kreweras complement is one scatter and
one gather on the next-in-block arrays; neither goes through jeu de
taquin.  C_n, held against the cap, is their only size limit.  The reduced
words of the longest signed permutation are built as one array from their
ends, and rotation shifts its columns.  The tuple versions of these
families are the test oracles in ``tests/oracles/sieving.py``.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .cyclotomic import as_integer, eval_at_root
from .jeudetaquin import (
    _image_permutation,
    _promote_words,
    evacuation_permutation,
    promotion_permutation,
)
from .permutations import cycle_type, long_cycle, long_element
from .qpolys import (
    IntPolynomial,
    QProduct,
    hook_content_product,
    kappa,
    kostka_foulkes,
    mn_character,
    q_catalan_product,
    q_hook_product,
    totient,
)
from .tableaux import (
    CapExceeded,
    Composition,
    Partition,
    enumerate_cst,
    enumerate_syt,
    syt_count,
    _resolve_cap,
)


class FiniteAction:
    """A cyclic action on a finite set, held as the permutation that
    generates it: the ``np.intp`` array of the indices of the elements'
    images.  By cyclic sieving every verdict reads only its cycle sizes, so
    the action keeps them as ``histogram``, {cycle size: number of cycles}."""

    def __init__(self, generator: Sequence[int] | np.ndarray):
        self.generator: np.ndarray = np.asarray(generator, dtype=np.intp)
        n = self.generator.size
        # Viewed as unsigned, a negative index is huge, so one comparison
        # bounds every entry to 0..n-1; a bijection then hits every index.
        if (self.generator.ndim != 1 or np.count_nonzero(self.generator.view(np.uintp) >= n)
                or np.count_nonzero(np.bincount(self.generator, minlength=n)) != n):
            raise ValueError("the generator is not a bijection of the elements")
        # Label every element with the least index on its cycle by pointer
        # doubling: label[i] is the least of the first `span` points of i's
        # walk and step = generator^span.  A round that changes no label, or
        # a span of n, which covers every cycle, settles them all.
        label, step, span = np.arange(n), self.generator, 1
        while span < n:
            least = np.minimum(label, label.take(step))
            if not np.count_nonzero(least != label):
                break
            label, step, span = least, step.take(step), 2 * span
        # Entry s of counts is the number of cycles of size s; entry 0, the
        # number of elements that are not the least of their cycle, is dropped.
        counts = np.bincount(np.bincount(label, minlength=n))
        counts[:1] = 0
        sizes = counts.nonzero()[0]
        self.histogram: dict[int, int] = dict(zip(sizes.tolist(), counts[sizes].tolist()))
        self.order = lcm(*self.histogram)

    def orbit_sizes(self) -> list[int]:
        return [size for size, count in self.histogram.items() for _ in range(count)]

    def fixed_count(self, power: int) -> int:
        """Number of elements fixed by the generator raised to ``power``."""
        return sum(size * count for size, count in self.histogram.items() if power % size == 0)


def verify_csp(
    action: FiniteAction,
    polynomial: IntPolynomial | QProduct,
    modulus: int,
    family: str = "custom",
    parameters: Optional[dict] = None,
    modulus_comparison: bool = False,
) -> dict:
    """Compare |X^(c^d)| with X(zeta_m^d) for every power d in 0..m-1.

    With ``modulus_comparison`` the match uses |evaluation| instead, which is
    the form taken by the fixed-content promotion results.  A polynomial in
    factored form is reduced mod q^m - 1 first, by multiplication alone.
    The report has one row per power: ``eval`` is the integer value of the
    evaluation, or None when it is not rational, and ``eval_repr`` its
    residue.
    """
    if modulus < 1 or modulus % action.order:
        raise ValueError(
            f"the action's order {action.order} must divide the modulus {modulus}"
        )
    if isinstance(polynomial, QProduct):
        polynomial = polynomial.cyclic_reduction(modulus)
    rows = []
    for d in range(modulus):
        # X(zeta^d) is a Galois conjugate of X(zeta^g), g = gcd(d, m), and the
        # fixed count of d depends only on g: an integer row is copied.
        g = gcd(d, modulus) % modulus
        if g != d and rows[g]["eval"] is not None:
            rows.append({**rows[g], "d": d})
            continue
        fixed = action.fixed_count(d)
        value = eval_at_root(polynomial, modulus, d)
        as_int = as_integer(value)
        match = as_int is not None and (abs(as_int) if modulus_comparison else as_int) == fixed
        rows.append({"d": d, "fixed": fixed, "eval": as_int, "eval_repr": repr(value),
                     "match": match})
    return {
        "family": family,
        "parameters": parameters or {},
        "m": modulus,
        "modulus_comparison": modulus_comparison,
        "rows": rows,
        "verdict": all(row["match"] for row in rows),
    }


# -- promotion actions -------------------------------------------------------


def syt_promotion_action(shape: Partition, cap: Optional[int] = None) -> FiniteAction:
    """Promotion on SYT(shape), computed on the packed words."""
    shape = Partition(shape)
    words = enumerate_syt(shape, cap=cap, packed=True)
    return FiniteAction(promotion_permutation(words, shape, shape.size))


def promotion_action(
    shape: Partition,
    bound: int,
    content: Optional[Composition] = None,
    power: int = 1,
    cap: Optional[int] = None,
) -> FiniteAction:
    """The action of promotion (or of its ``power``-th power on a fixed
    content class) on column-strict tableaux, computed on the packed words."""
    shape = Partition(shape)
    if power < 1:
        raise ValueError(f"the promotion power must be positive, got {power}")
    if content is None:
        if power != 1:
            raise ValueError("powers other than 1 require a fixed content")
    else:
        content = Composition(content)
        if bound % power:
            raise ValueError(f"power {power} must divide the bound {bound}")
        k = len(content)
        if k != bound:
            raise ValueError("content length must equal the bound")
        if any(content[i] != content[(i + power) % k] for i in range(k)):
            places = "place" if power == 1 else "places"
            raise ValueError(
                f"content {tuple(content)} is not invariant under rotation by {power} {places}"
            )
    words = enumerate_cst(shape, bound, content, cap=cap, packed=True)
    return FiniteAction(promotion_permutation(words, shape, bound, power))


def syt_csp_report(
    shape: Partition, modulus: Optional[int] = None, cap: Optional[int] = None
) -> dict:
    """Promotion on standard tableaux against the q-hook length formula.

    The modulus defaults to n when the promotion order divides it (always
    the case on rectangles) and to the empirical order otherwise, so that
    non-rectangular shapes can be explored directly; the empty shape takes
    modulus 1.  The q-hook formula stays in factored form, so [n]!_q is
    never expanded.  A modulus m above the cap is refused, since every power
    below it is evaluated, and so is one whose m rows of up to phi(m)
    residue terms each exceed TERMS_PER_CAP times the cap: a given modulus
    before enumerating, the default one as soon as the promotion order is
    known.
    """
    shape = Partition(shape)
    n = shape.size
    if modulus is not None:
        _check_modulus(modulus, "the modulus", cap)
    action = syt_promotion_action(shape, cap=cap)
    if modulus is None:
        modulus = n if n and n % action.order == 0 else action.order
        _check_modulus(modulus, "the default modulus (the promotion order)", cap)
    return verify_csp(
        action,
        q_hook_product(shape),
        modulus,
        family="syt",
        parameters={"shape": list(shape), "orbit_sizes": action.orbit_sizes()},
    )


# Residue terms that a report may print per unit of the cap.  The default
# modulus of 6,2,1, 3,696 with 3,696 * phi(3,696) = 3,548,160 terms (11.5 MB
# of --json), fits under the default cap; that of 5,2,1,1,1, 16,744 with
# 106,089,984 terms (478 MB), does not.
TERMS_PER_CAP = 10


def _check_modulus(modulus: int, what: str, cap: Optional[int]) -> None:
    if modulus < 1:
        raise ValueError("the modulus must be positive")
    limit = _resolve_cap(cap)
    if modulus > limit:
        raise ValueError(
            f"{what} {modulus} exceeds the cap {limit}; "
            "pass a smaller --modulus or a larger --cap"
        )
    terms = modulus * totient(modulus)
    if terms > TERMS_PER_CAP * limit:
        raise ValueError(
            f"{what} {modulus} gives {modulus} * phi({modulus}) = {terms} "
            f"residue terms, over {TERMS_PER_CAP} times the cap {limit}; "
            "pass a smaller --modulus or a larger --cap"
        )


def cst_csp_report(shape: Partition, bound: int, cap: Optional[int] = None) -> dict:
    """Promotion on bounded column-strict tableaux against the shifted
    principal specialization of the Schur function, in its hook-content
    form (zero when the shape has more rows than the bound).  The bound is
    also the modulus, so it must be positive."""
    if bound < 1:
        raise ValueError("bound must be positive")
    shape = Partition(shape)
    action = promotion_action(shape, bound, cap=cap)
    poly = hook_content_product(shape, bound) if len(shape) <= bound else IntPolynomial.zero()
    return verify_csp(
        action,
        poly,
        bound,
        family="cst",
        parameters={"shape": list(shape), "bound": bound,
                    "orbit_sizes": action.orbit_sizes()},
    )


def content_csp_report(
    shape: Partition, alpha: Composition, power: int, cap: Optional[int] = None
) -> dict:
    """Fixed content: |X^(j^(d m))| against |K_{shape,alpha}(zeta^m)|."""
    shape = Partition(shape)
    alpha = Composition(alpha)
    action = promotion_action(shape, len(alpha), alpha, power, cap=cap)
    modulus = len(alpha) // power
    return verify_csp(
        action,
        kostka_foulkes(shape, alpha, cap),
        modulus,
        family="content",
        parameters={"shape": list(shape), "content": list(alpha), "power": power},
        modulus_comparison=True,
    )


# -- dihedral fixed points ---------------------------------------------------


def evacuation_fixed_expected(shape: Partition, bound: int) -> int:
    """(-1)^kappa s_shape(1, -1, 1, ...) with ``bound`` arguments.

    This is the hook-content product at q = -1 (Stembridge's q = -1
    phenomenon), and zero when the shape has more rows than the bound.
    """
    shape = Partition(shape)
    if len(shape) > bound:
        return 0
    return hook_content_product(shape, bound).cyclic_reduction(2)(-1)


def evacuation_promotion_fixed_expected(shape: Partition, bound: int) -> int:
    """Predicted fixed count of evacuation-after-promotion on CST(shape, bound).

    For odd bounds this agrees with the evacuation count.  For even bounds
    the argument list follows the parity of the number of rows: alternating
    signs for evenly many rows, the final sign repeated for oddly many, with
    no further sign correction; the exhaustive sweep over all four
    side-parity classes pins this form exactly.

    The repeated sign is a last argument 1, so by the Pieri rule
    s_shape(1, -1, ..., 1, 1) is the sum of s_mu(1, -1, ..., 1) over the mu
    below the shape by a horizontal strip; below a rectangle b^a these are
    mu_j = (b^(a-1), j) for j = 0..b.
    """
    shape = Partition(shape)
    if not shape.is_rectangular():
        raise ValueError("dihedral predictions concern rectangular shapes")
    if bound % 2 or len(shape) % 2 == 0:
        return evacuation_fixed_expected(shape, bound)
    strips = [Partition(shape[:-1] + ((j,) if j else ())) for j in range(shape[0] + 1)]
    total = sum((-1) ** kappa(mu) * evacuation_fixed_expected(mu, bound - 1) for mu in strips)
    return (-1) ** kappa(shape) * total


@cache
def _syt_dihedral_expected(shape: Partition, promoted: bool) -> int:
    """The predicted #Fix(e) on SYT(shape), or #Fix(e after promotion) when
    ``promoted``: a signed character value at the cycle type of the longest
    element w0, or of w0 times the long cycle."""
    n = shape.size
    w = long_element(n) * long_cycle(n) if promoted else long_element(n)
    ncols, nrows = (shape[0], len(shape)) if shape else (0, 0)
    half = nrows // 2 + (promoted and nrows % 2 == 0)
    return (-1) ** (half * (ncols % 2)) * mn_character(shape, cycle_type(w))


def _dihedral_fixed_counts(words: np.ndarray, shape: Partition, k: int) -> tuple[int, int]:
    """#Fix(evacuation) and #Fix(evacuation after promotion) on a rectangular
    set given by its sorted packed words.

    Evacuation and promotion are applied to the whole set, as two index
    permutations E and P.  Before any count is read, the dihedral relations
    are checked on the whole set: both E and E∘P must be involutions
    (ε∘ε = id and ε∘∂∘ε = ∂⁻¹).  Since E is an involution, ε∘∂ fixes
    element i exactly when P[i] = E[i].
    """
    evac = evacuation_permutation(words, shape, k)
    # The words passed evacuation's check.
    prom = _image_permutation(words, _promote_words(words, tuple(shape), k, 1), "promotion")
    identity = np.arange(len(words))
    if (evac[evac] != identity).any():
        raise AssertionError("evacuation is not an involution on the set")
    reflection = evac[prom]
    if (reflection[reflection] != identity).any():
        raise AssertionError("evacuation does not conjugate promotion to its inverse")
    return int(np.count_nonzero(evac == identity)), int(np.count_nonzero(prom == evac))


def dihedral_report(shape: Partition, bound: int, cap: Optional[int] = None) -> dict:
    """Fixed points of evacuation (``e``) and of evacuation-after-promotion
    (``ej``) on CST(shape, bound) and on SYT(shape), with their predicted
    values.

    On bounded column-strict tableaux the predictions are signed Schur
    evaluations at +/-1 arguments, read off hook-content products at q = -1;
    for even bounds the argument list for the composite operator repeats the
    final sign when the shape has an odd number of rows, and the correction
    sign depends on the parities of the rectangle sides.  On standard
    tableaux the predictions are character values at the cycle types of the
    longest element and its product with the long cycle.
    """
    shape = Partition(shape)
    if not shape.is_rectangular():
        raise ValueError("the dihedral comparisons concern rectangular shapes")
    csts = enumerate_cst(shape, bound, cap=cap, packed=True)
    cst_e, cst_ej = _dihedral_fixed_counts(csts, shape, bound)
    syts = enumerate_syt(shape, cap=cap, packed=True)
    syt_e, syt_ej = _dihedral_fixed_counts(syts, shape, shape.size)
    sides = {
        "cst": {
            "e": {"fixed": cst_e, "expected": evacuation_fixed_expected(shape, bound)},
            "ej": {"fixed": cst_ej, "expected": evacuation_promotion_fixed_expected(shape, bound)},
        },
        "syt": {
            "e": {"fixed": syt_e, "expected": _syt_dihedral_expected(shape, False)},
            "ej": {"fixed": syt_ej, "expected": _syt_dihedral_expected(shape, True)},
        },
    }
    return {
        "family": "dihedral",
        "parameters": {"shape": list(shape), "bound": bound},
        **sides,
        "verdict": all(op["fixed"] == op["expected"] for side in sides.values()
                       for op in side.values()),
    }


# -- handshake patterns and noncrossing partitions ---------------------------


def handshake_partners(n: int, cap: Optional[int] = None) -> np.ndarray:
    """The noncrossing perfect matchings of the points 0..2n-1, one per row
    of an N x 2n array: entry i of a row is the point matched with i.

    They are read off the packed words of SYT(n, n), as parentheses: point
    i opens an arc when i + 1 is in the top row, and a closer pairs with the
    last opener at its depth.  One pass over the 2n points does every row
    at once, keeping the latest opener at each depth; the rows follow the
    words' order.
    """
    words = enumerate_syt(Partition((n, n) if n else ()), cap=cap, packed=True)
    count, m = len(words), 2 * n
    rows = np.arange(count)
    opener = np.zeros((count, m), dtype=bool)
    for column in range(n):
        opener[rows, words[:, column] - 1] = True
    partner = np.empty((count, m), dtype=words.dtype)
    # Row r's latest opener at depth d is latest[r * n + d], and ``at`` is
    # each row's r * n + current depth.
    latest = np.empty(count * max(n, 1), dtype=words.dtype)
    flat, starts, at = partner.reshape(-1), rows * m, rows * n
    for i in range(m):
        opens = opener[:, i]
        at -= ~opens  # a closer pairs one level below the depth before it
        mate = np.where(opens, i, latest.take(at))  # an opener is its own mate until it closes
        partner[:, i] = mate
        flat[starts + mate] = i
        latest[at] = i  # a closer's level is written again before it is read
        at += opens
    return partner


def _rows_action(elements: np.ndarray, images: np.ndarray, action: str) -> FiniteAction:
    """The action that sends row i of ``elements`` to row i of ``images``,
    on the elements in lexicographic order."""
    if not elements.shape[1]:  # n = 0: one empty element, which is fixed
        return FiniteAction(np.arange(len(elements)))
    order = np.lexsort(elements.T[::-1])
    return FiniteAction(_image_permutation(elements[order], images[order], action))


def handshake_action(n: int, cap: Optional[int] = None) -> FiniteAction:
    """Rotation i -> i + 1 mod 2n of the handshake patterns, on their
    partner arrays in lexicographic order: the arc (i, j) goes to
    (i + 1, j + 1)."""
    partner = handshake_partners(n, cap)
    image = np.roll(partner, 1, axis=1)
    image += 1
    image[image == 2 * n] = 0
    return _rows_action(partner, image, "rotation")


def noncrossing_action(n: int, cap: Optional[int] = None) -> FiniteAction:
    """Kreweras complementation of the noncrossing partitions of 0..n-1, on
    their next-in-block arrays in lexicographic order.

    A partition is read off a handshake pattern by the inverse of the trace
    bijection, which turns element i into the points 2i and 2i + 1 and hugs
    each block by arcs: the partner of 2i + 1 is 2j for the next element j
    of i's block, the largest element pointing back to the smallest.  The
    complement is the cycles of tau = succ^-1 c (Biane, "Some properties of
    crossings and partitions", 1997), for c the long cycle i -> i + 1 mod n;
    its cycles increase, so tau is the complement's next-in-block array.
    """
    succ = handshake_partners(n, cap)[:, 1::2] // 2
    inverse = np.empty_like(succ)
    flat, starts = inverse.reshape(-1), np.arange(len(succ)) * n
    for i in range(n):
        flat[starts + succ[:, i]] = i
    return _rows_action(succ, np.roll(inverse, -1, axis=1), "Kreweras complementation")


def _check_cap(counts: Iterable[int], n: int, what: str, cap: Optional[int]) -> None:
    """Hold a family's size at n against the cap.  ``counts`` are its sizes
    at 1, 2, ..., which grow with n, so the first one over the cap refuses
    n: a huge n costs no more than the cap does, and the message names a
    count short enough to print."""
    limit = _resolve_cap(cap)
    for k, count in zip(range(1, n + 1), counts):
        if count > limit:
            raise CapExceeded(f"{count} {what} exceed the cap {limit}" if k == n else
                              f"{what} at n = {n} exceed the cap {limit}: "
                              f"there are {count} already at n = {k}")


def _catalan_report(
    family: str, what: str, action: Callable[..., FiniteAction], n: int, cap: Optional[int]
) -> dict:
    """The rotation CSP of a Catalan family against the q-Catalan product.
    C_n is held against the cap before SYT(n, n) is enumerated, and is the
    family's only size limit."""
    # C_1, C_2, ... by C_{k+1} = C_k * 2 (2k + 1) / (k + 2)
    _check_cap(accumulate(range(1, n), lambda c, k: c * 2 * (2 * k + 1) // (k + 2), initial=1),
               n, what, cap)
    predicted = q_catalan_product(n)
    return verify_csp(action(n, cap), predicted, 2 * n, family=family, parameters={"n": n})


def handshake_csp_report(n: int, cap: Optional[int] = None) -> dict:
    return _catalan_report("handshake", "handshake patterns", handshake_action, n, cap)


def noncrossing_csp_report(n: int, cap: Optional[int] = None) -> dict:
    return _catalan_report("noncrossing", "noncrossing partitions", noncrossing_action, n, cap)


# -- reduced words for the hyperoctahedral longest element -------------------


def bn_reduced_words(n: int) -> np.ndarray:
    """The reduced words of the longest signed permutation w0 = (-1, ..., -n),
    one per row of an N x n^2 ``int8`` array.  Letter 0 negates the first
    entry and letter i >= 1 swaps entries i and i + 1.

    The words are built from their ends: a row carries the signed
    permutation that its suffix leaves of w0, and each of the n^2 steps
    extends every row by each of its right descents, written in the column
    before the suffix.  Every partial word completes, and distinct ones
    complete to distinct words, so no step holds more rows than the result.
    """
    perms = -np.arange(1, n + 1, dtype=np.int8)[None]
    words = np.zeros((1, n * n), dtype=np.int8)
    for column in reversed(range(n * n)):
        grown = []
        for i in range(n):
            rows = perms[:, 0] < 0 if i == 0 else perms[:, i - 1] > perms[:, i]
            below, longer = perms[rows], words[rows]
            if i == 0:
                below[:, 0] *= -1
            else:
                below[:, [i - 1, i]] = below[:, [i, i - 1]]
            longer[:, column] = i
            grown.append((below, longer))
        perms, words = (np.concatenate(part) for part in zip(*grown))
    if (perms != np.arange(1, n + 1)).any():
        raise AssertionError("a reduced word does not end at the identity")
    return words


def bn_word_action(n: int, cap: Optional[int] = None) -> FiniteAction:
    if n < 1:
        raise ValueError(f"signed permutation words need n >= 1, got {n}")
    _check_cap((syt_count(Partition((k,) * k)) for k in range(1, n + 1)), n, "reduced words", cap)
    expected = syt_count(Partition((n,) * n))
    words = bn_reduced_words(n)
    if len(words) != expected:
        raise AssertionError(
            f"reduced word count {len(words)} disagrees with the hook formula {expected}"
        )
    return _rows_action(words, np.roll(words, -1, axis=1), "rotation")


def bn_csp_report(n: int, cap: Optional[int] = None) -> dict:
    return verify_csp(
        bn_word_action(n, cap=cap),
        q_hook_product(Partition((n,) * n)),
        n * n,
        family="bnwords",
        parameters={"n": n},
    )
