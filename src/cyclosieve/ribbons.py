"""m-ribbons on the abacus: ribbon signs, column-strict ribbon tableau
counting, and the Kostka-Foulkes root-of-unity comparison.

A ribbon is a connected skew shape with no 2x2 square.  Every function here
reads the beads of :func:`tableaux.abacus` and builds no cell.  Removing an
m-ribbon from a shape moves one bead one level down its runner, past as
many beads as the ribbon's height, so the sign of a tiling of lambda/mu by
m-ribbons is the sign of a bead permutation (:func:`spin_sign`).  A skew
shape lambda/mu carries a single-label column-strict m-ribbon tiling (a
horizontal m-ribbon strip) exactly when both shapes have the same bead
count on every runner and each pair of their m-quotient partitions differs
by an ordinary horizontal strip (Lascoux, Leclerc and Thibon, J. Math.
Phys. 38, 1997).  Counting therefore runs on the quotient:
:func:`tableaux.cst_tuple_count` peels the last label off as one horizontal
strip per quotient shape.  The tilings enumerated on cells, labeled or not,
are the independent check in ``tests/oracles/ribbons.py``.
"""

from __future__ import annotations

from typing import Optional

from .cyclotomic import as_integer, eval_at_root
from .qpolys import kostka_foulkes
from .tableaux import Composition, Partition, abacus, abacus_beads, beta_set, cst_tuple_count


def spin_sign(outer: Partition, inner: Partition, m: int) -> int:
    """(-1) to the total height of any m-ribbon tiling of outer/inner, or 0
    when it has none, read off the beads of both shapes at the length that
    :func:`tableaux.abacus` uses for ``outer``.

    Removing an m-ribbon moves one bead down one level on its runner, past
    as many beads as the ribbon's height.  So a tiling exists exactly when
    every runner holds as many beads of ``inner`` as of ``outer`` and, on
    each runner, the j-th highest bead of ``inner`` is no higher than the
    j-th highest of ``outer``; its sign is that of the permutation that
    sorts ``outer``'s beads into runner order times that of ``inner``'s (James
    and Kerber, 2.7; van Leeuwen, "Edge sequences, ribbon tableaux, and an
    action of affine permutations", 1999).
    """
    outer, inner = Partition(outer), Partition(inner)
    if not outer.contains(inner):
        raise ValueError(f"{tuple(inner)} is not contained in {tuple(outer)}")
    beads = abacus_beads(outer, m)
    if (outer.size - inner.size) % m:
        return 0
    # Each bead as (runner, level), in decreasing order of the beads.
    outer_keys, inner_keys = ([(b % m, b // m) for b in beta]
                              for beta in (beads, beta_set(inner, len(beads))))
    if any(o[0] != i[0] or o[1] < i[1] for o, i in zip(sorted(outer_keys), sorted(inner_keys))):
        return 0
    inversions = sum(a > b for keys in (outer_keys, inner_keys)
                     for j, a in enumerate(keys) for b in keys[j + 1:])
    return -1 if inversions % 2 else 1


def count_ribbon_cst(shape: Partition, m: int, beta: Composition) -> int:
    """K^m_{shape,beta}: column-strict m-ribbon tableaux of the full shape.

    They are counted as m-tuples of column-strict tableaux of the m-quotient
    shapes, none when the m-core is not empty (the quotient is then too
    small).
    """
    _, quotient = abacus(shape, m)
    if sum(shape) != m * Composition(beta).size:
        return 0
    return cst_tuple_count(quotient, beta)


def reduced_content(alpha: Composition, d: int) -> Optional[Composition]:
    """Divide every part multiplicity of alpha by d, or None if not divisible."""
    mult: dict[int, int] = {}
    for part in alpha:
        if part:
            mult[part] = mult.get(part, 0) + 1
    if any(count % d for count in mult.values()):
        return None
    parts: list[int] = []
    for value in sorted(mult, reverse=True):
        parts.extend([value] * (mult[value] // d))
    return Composition(parts)


def kf_root_of_unity_check(
    shape: Partition, alpha: Composition, d: int, cap: Optional[int] = None
) -> dict:
    """Compare |K_{shape,alpha}| at an order-d root of unity with the
    d-ribbon tableau count of the reduced content.

    When every part multiplicity of alpha is divisible by d this is a
    theorem and the verdict asserts the equality.  When it is not, the
    report still evaluates the claimed vanishing, but that claim is false
    in general (K at its own content is constant 1, and e.g. shape (4),
    content (3,1), d=2 evaluates to -1); none of the sieving results depend
    on it, and the report ends in a ``note`` saying so.
    """
    shape = Partition(shape)
    alpha = Composition(alpha)
    if d < 1:
        raise ValueError("the root order must be positive")
    value = as_integer(eval_at_root(kostka_foulkes(shape, alpha, cap), d, 1))
    reduced = reduced_content(alpha, d)
    expected = None if reduced is None else count_ribbon_cst(shape, d, reduced)
    report = {
        "family": "kostka-foulkes-root-of-unity",
        "parameters": {"shape": list(shape), "content": list(alpha), "order": d},
        "evaluation": value,
        "multiplicities_divisible": reduced is not None,
        "ribbon_count": expected,
        "verdict": value == 0 if reduced is None else value is not None and abs(value) == expected,
    }
    if reduced is None:
        report["note"] = (
            "claimed vanishing outside the divisible branch; the claim fails "
            "in general and is reported as observed"
        )
    return report
