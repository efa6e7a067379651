"""Acceptance suite: one test per verification family, each printing a
PASS/FAIL line.  All comparisons are exact; there are no tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

from __future__ import annotations

import time
from functools import cache

from conftest import all_partitions_up_to, compositions_of, rectangles_up_to

from cyclosieve import (
    Composition,
    Partition,
    Permutation,
    Tableau,
    as_integer,
    enumerate_cst,
    enumerate_syt,
    eval_at_root,
    kappa,
    long_element,
    rsk_inverse,
    zeta,
)
from cyclosieve.klcells import (
    kl_table,
    mu_promotion_invariance,
    vanishing_criterion_check,
    verify_promotion_identity,
)
from cyclosieve.qpolys import q_hook_product
from cyclosieve.ribbons import count_ribbon_cst, kf_root_of_unity_check
from cyclosieve.sieving import (
    bn_csp_report,
    content_csp_report,
    cst_csp_report,
    dihedral_report,
    handshake_csp_report,
    noncrossing_csp_report,
    promotion_action,
    syt_csp_report,
    syt_promotion_action,
)
from cyclosieve.tableaux import descent_set, extended_descent_set
from oracles.jeudetaquin import demote, evacuate, promote, promote_power
from oracles.klcells import kl_immanant, mu_tableaux
from oracles.permutations import inverse, left_descents, right_descents, rsk
from oracles.qpolys import expand
from oracles.sieving import (
    handshake_patterns,
    multisets_csp_report,
    reflect_matching,
    rotate_matching,
    subsets_csp_report,
)
from oracles.tableaux import rotated


def report(number: int, label: str, started: float) -> None:
    print(f"[criterion {number:>2}] PASS  {label}  ({time.time() - started:.1f}s)")


@cache
def symmetric_contents(n: int, k: int, d: int) -> tuple[Composition, ...]:
    """Compositions of n with length k fixed by the d-th cyclic shift."""
    if (n * d) % k:
        return ()
    out = []
    for head in compositions_of(n * d // k, d):
        out.append(Composition(tuple(head) * (k // d)))
    return tuple(out)


def test_criterion_01_promotion_table_222():
    started = time.time()
    rep = syt_csp_report(Partition((2, 2, 2)))
    assert rep["verdict"]
    assert [r["fixed"] for r in rep["rows"]] == [5, 0, 2, 3, 2, 0]
    assert [r["eval"] for r in rep["rows"]] == [5, 0, 2, 3, 2, 0]
    assert time.time() - started < 1.0
    report(1, "promotion on SYT((2,2,2)) sieves with the q-hook formula", started)


def test_criterion_02_promotion_table_22_bound_3():
    started = time.time()
    rep = cst_csp_report(Partition((2, 2)), 3)
    assert rep["verdict"]
    assert [r["fixed"] for r in rep["rows"]] == [6, 0, 0]
    assert time.time() - started < 1.0
    report(2, "promotion on CST((2,2),3) sieves with 1+q+2q^2+q^3+q^4", started)


def test_criterion_03_standard_tableaux_all_rectangles_up_to_12():
    started = time.time()
    for lam in rectangles_up_to(12):
        assert syt_csp_report(lam)["verdict"], tuple(lam)
    assert time.time() - started < 60
    report(3, "q-hook formula CSP on all rectangles with at most 12 boxes", started)


def test_criterion_04_bounded_cst_all_rectangles_up_to_8():
    started = time.time()
    for lam in rectangles_up_to(8):
        for k in range(1, 7):
            assert cst_csp_report(lam, k)["verdict"], (tuple(lam), k)
    assert time.time() - started < 120
    report(4, "Schur-specialization CSP on rectangles <= 8 boxes, bounds <= 6", started)


def test_criterion_05_fixed_content_modulus_form():
    started = time.time()
    for lam in rectangles_up_to(8):
        n = lam.size
        for k in range(1, 7):
            for d in range(1, k + 1):
                if k % d:
                    continue
                for alpha in symmetric_contents(n, k, d):
                    rep = content_csp_report(lam, alpha, d)
                    assert rep["verdict"], (tuple(lam), k, d, tuple(alpha))
    assert time.time() - started < 300
    report(5, "Kostka-Foulkes modulus sieving for all symmetric contents", started)


def test_criterion_06_subsets_and_multisets():
    started = time.time()
    for n in range(1, 9):
        for k in range(1, 5):
            if k <= n:
                assert subsets_csp_report(n, k)["verdict"], (n, k)
            assert multisets_csp_report(n, k)["verdict"], (n, k)
    assert time.time() - started < 10
    report(6, "subset and multiset rotation against Gaussian binomials", started)


def test_criterion_07_long_cycle_matrix_identity():
    started = time.time()
    for lam in rectangles_up_to(6):
        rep = verify_promotion_identity(lam)
        assert rep["verdict"], (tuple(lam), rep)
        assert rep["sign"] == (-1) ** (len(lam) - 1)
    assert time.time() - started < 120
    report(7, "long cycle acts as signed promotion on all rectangles n <= 6", started)


def test_criterion_08_mu_invariance():
    started = time.time()
    shapes = set()
    for lam in rectangles_up_to(6):
        shapes.add(lam)
        if lam.size > 1:
            last = lam[-1] - 1  # drop the box at the end of the last row
            shapes.add(Partition(lam[:-1] + ((last,) if last else ())))
    for lam in sorted(shapes):
        if not lam:
            continue
        assert mu_promotion_invariance(lam)["verdict"], tuple(lam)
    # the smallest failing shape reproduces the documented values
    t1 = Tableau([(1, 2, 3), (4,)])
    t2, t3 = promote(t1, 4), promote_power(t1, 4, 2)
    cycle = (mu_tableaux(t1, t2), mu_tableaux(t2, t3), mu_tableaux(t3, t1))
    assert sorted(cycle) == [0, 1, 1]
    assert not mu_promotion_invariance(Partition((3, 1)))["verdict"]
    report(8, "promotion preserves mu on rectangles and near-rectangles", started)


def test_criterion_09_negative_control_331():
    started = time.time()
    action = syt_promotion_action(Partition((3, 3, 1)))
    assert action.orbit_sizes() == [3, 5, 13]
    value = eval_at_root(expand(q_hook_product(Partition((3, 3, 1)))), 195, 1)
    assert as_integer(value) is None
    rep = syt_csp_report(Partition((3, 3, 1)), modulus=195)
    assert not rep["verdict"]
    report(9, "shape (3,3,1): orbits {3,5,13} and non-integral 195th-root value", started)


def test_criterion_10_vanishing_criterion_and_displays():
    started = time.time()
    for n in (3, 4):
        assert vanishing_criterion_check(n)["verdict"]
    rows, cols = Composition((2, 1)), Composition((1, 1, 1))
    imm213 = kl_immanant(Permutation((2, 1, 3)), rows, cols)
    assert imm213.terms == {
        ((1, 1), (1, 2), (2, 3)): 1,
        ((1, 1), (1, 3), (2, 2)): -1,
    }
    assert kl_immanant(Permutation((2, 3, 1)), rows, cols).is_zero()
    ones = Composition((1, 1, 1, 1))
    assert kl_immanant(Permutation((3, 4, 1, 2)), ones, ones).terms == {
        ((1, 3), (2, 4), (3, 1), (4, 2)): 1,
        ((1, 3), (2, 4), (3, 2), (4, 1)): -1,
        ((1, 4), (2, 3), (3, 1), (4, 2)): -1,
        ((1, 4), (2, 3), (3, 2), (4, 1)): 1,
    }
    assert len(kl_immanant(Permutation((3, 1, 4, 2)), ones, ones).terms) == 8
    report(10, "immanant vanishing matches semistandardizability (n <= 4)", started)


def test_criterion_11_ribbon_counts():
    started = time.time()
    for lam in rectangles_up_to(10):
        n = lam.size
        # fixed points of promotion powers on standard tableaux
        action = syt_promotion_action(lam)
        for d in range(1, n + 1):
            if n % d:
                continue
            expected = count_ribbon_cst(lam, n // d, Composition((1,) * d))
            assert action.fixed_count(d) == expected, (tuple(lam), d)
        # bounded column-strict tableaux
        for k in range(1, 7):
            if len(lam) > k:
                continue
            cst_action = promotion_action(lam, k)
            for d in range(1, k + 1):
                if k % d:
                    continue
                m = k // d
                total = 0
                if n % m == 0:
                    for beta in compositions_of(n // m, d):
                        total += count_ribbon_cst(lam, m, beta)
                assert cst_action.fixed_count(d) == total, (tuple(lam), k, d)
                # fixed content: ribbon count and Kostka-Foulkes modulus
                for alpha in symmetric_contents(n, k, d):
                    fixed = sum(
                        1
                        for t in enumerate_cst(lam, k, alpha)
                        if promote_power(t, k, d) == t
                    )
                    ribbons = count_ribbon_cst(lam, m, Composition(alpha[:d]))
                    assert fixed == ribbons, (tuple(lam), k, d, tuple(alpha))
                    kf = kf_root_of_unity_check(lam, alpha, m)
                    assert kf["multiplicities_divisible"] and kf["verdict"], (tuple(lam), k, d, tuple(alpha))
                    assert kf["ribbon_count"] == ribbons
    assert time.time() - started < 300
    report(11, "ribbon tableau counts match all root-of-unity fixed points", started)


def test_criterion_12_twisted_schur_identity():
    """Twisted Schur evaluations factor through ribbon counts.

    The exact prefactor on the Schur side is the ribbon spin sign of the
    shape; on rectangles (the only shapes the sieving arguments need) it
    agrees with the root-of-unity power of kappa, and that agreement is
    asserted below.  Off rectangles the kappa-power form is not even real
    (shape (2,1), k=3, d=1 is the smallest witness).
    """
    from cyclosieve.ribbons import spin_sign

    started = time.time()
    points = (2, 3, 5, 7, 11, 13)  # d can reach 6, extending the prime list
    for size in range(1, 9):
        for lam in all_partitions_up_to(size):
            if lam.size != size:
                continue
            for k in range(1, 7):
                contents = [tuple(t.content(k)) for t in enumerate_cst(lam, k)]
                for d in range(1, k + 1):
                    if k % d:
                        continue
                    m = k // d
                    values = [
                        zeta(k, d * j) * points[i] for i in range(d) for j in range(m)
                    ]
                    total = zeta(k, 0) * 0
                    for content in contents:
                        term = zeta(k, 0)
                        for value, mult in zip(values, content):
                            term = term * value ** mult
                        total = total + term
                    rhs = 0
                    if size % m == 0:
                        for beta in compositions_of(size // m, d):
                            coeff = count_ribbon_cst(lam, m, beta)
                            if coeff:
                                prod = 1
                                for i, b in enumerate(beta):
                                    prod *= points[i] ** (m * b)
                                rhs += coeff * prod
                    eps = spin_sign(lam, Partition(()), m)
                    if eps == 0:
                        assert total.is_zero() and rhs == 0, (tuple(lam), k, d)
                    else:
                        assert as_integer(eps * total) == rhs, (tuple(lam), k, d)
                        if lam.is_rectangular():
                            prefactor = zeta(k, d) ** kappa(lam)
                            assert as_integer(prefactor) == eps, (tuple(lam), k, d)
    assert time.time() - started < 120
    report(12, "twisted Schur evaluations factor through ribbon counts", started)


def test_criterion_13_dihedral_fixed_points():
    started = time.time()
    for lam in rectangles_up_to(8):
        for k in range(1, 7):
            rep = dihedral_report(lam, k)
            assert rep["verdict"], (tuple(lam), k, rep)
    assert time.time() - started < 120
    report(13, "evacuation and evacuation-promotion counts match characters", started)


def test_criterion_14_catalan_actions():
    started = time.time()
    for n in range(1, 7):
        assert handshake_csp_report(n)["verdict"], n
        assert noncrossing_csp_report(n)["verdict"], n
    from cyclosieve.permutations import cycle_type, long_cycle, long_element
    from cyclosieve.qpolys import mn_character

    for n in range(1, 7):
        hs = handshake_patterns(n)
        chi_wo = mn_character(Partition((n, n)), cycle_type(long_element(2 * n)))
        expected = chi_wo if n % 2 == 0 else -chi_wo
        assert sum(1 for h in hs if reflect_matching(h, n) == h) == expected
        chi_woc = mn_character(Partition((n, n)), cycle_type(long_element(2 * n) * long_cycle(2 * n)))
        assert (
            sum(1 for h in hs if rotate_matching(reflect_matching(h, n), n) == h)
            == chi_woc
        )
    assert time.time() - started < 30
    report(14, "handshake rotation and Kreweras complementation sieve (n <= 6)", started)


def test_criterion_15_signed_permutation_words():
    started = time.time()
    for n in range(1, 5):
        assert bn_csp_report(n)["verdict"], n
    assert time.time() - started < 300
    report(15, "reduced words for the longest signed permutation (n <= 4)", started)


def test_criterion_16_property_suites():
    started = time.time()
    # promotion/demotion round trip and content rotation, |shape| <= 8, k <= 5
    for size in range(1, 9):
        for lam in all_partitions_up_to(size):
            if lam.size != size:
                continue
            for k in range(1, 6):
                for t in enumerate_cst(lam, k):
                    jt = promote(t, k)
                    assert demote(jt, k) == t
                    assert jt.content(k) == rotated(t.content(k))
                    e = evacuate(t, k)
                    assert evacuate(e, k) == t
    # e j e = j^{-1} on rectangles at the same scale
    for lam in rectangles_up_to(8):
        for k in range(1, 6):
            for t in enumerate_cst(lam, k):
                assert evacuate(promote(evacuate(t, k), k), k) == demote(t, k)
    # extended descent rotation on rectangles with at most 10 boxes
    for lam in rectangles_up_to(10):
        n = lam.size
        for t in enumerate_syt(lam):
            rotated_descents = frozenset(i % n + 1 for i in extended_descent_set(t))
            assert extended_descent_set(promote(t, n)) == rotated_descents
    # RSK round trip on all of S_n for n <= 6
    from itertools import permutations as perms

    for n in range(1, 7):
        for w in map(Permutation, perms(range(1, n + 1))):
            p, q = rsk(w)
            assert rsk_inverse(p, q) == w
    # inverse swap, long-element twists, and descent matching on S_n, n <= 5
    for n in range(1, 6):
        wo = long_element(n)
        for w in map(Permutation, perms(range(1, n + 1))):
            p, q = rsk(w)
            assert rsk(inverse(w)) == (q, p)
            assert rsk(w * wo) == (p.transpose(), evacuate(q, n).transpose())
            assert rsk(wo * w) == (evacuate(p, n).transpose(), q.transpose())
            assert rsk(wo * w * wo) == (evacuate(p, n), evacuate(q, n))
            assert left_descents(w) == descent_set(p)
            assert right_descents(w) == descent_set(q)
    # Kazhdan-Lusztig table axioms for n <= 6 and mu symmetries for n <= 5
    for n in range(2, 7):
        table = kl_table(n)
        for wi, column in enumerate(table._polys):
            for ui, coeffs in column.items():
                assert table._leq[ui, wi]
                assert len(coeffs) - 1 <= (table.lengths[wi] - table.lengths[ui] - 1) // 2
    for n in range(2, 6):
        table = kl_table(n)
        wo = long_element(n)
        for u in map(Permutation, perms(range(1, n + 1))):
            for v in map(Permutation, perms(range(1, n + 1))):
                m = table.mu(u, v)
                assert m == table.mu(wo * v, wo * u)
                assert m == table.mu(v * wo, u * wo)
                assert m == table.mu(wo * u * wo, wo * v * wo)
                assert m == table.mu(inverse(u), inverse(v))
    assert time.time() - started < 300
    report(16, "exhaustive property suites (round trips, rotations, axioms)", started)
