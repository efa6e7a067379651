import io
import json
import operator
from itertools import combinations, permutations as itertools_permutations
from math import factorial

import numpy as np
import pytest

from conftest import all_partitions_up_to, compositions_of, partitions_of, rectangles_up_to

from cyclosieve import (
    CapExceeded,
    Composition,
    IntPolynomial,
    Partition,
    Permutation,
    Tableau,
    enumerate_syt,
    long_element,
)
from cyclosieve.klcells import (
    KLTable,
    kl_table,
    mu_promotion_invariance,
    vanishing_criterion_check,
    verify_promotion_identity,
    _compositions,
    _identity_matrix,
    _mat_mul,
    _vanishing_matrix,
)
from cyclosieve import klcells
from cyclosieve.permutations import rsk_inverse
from cyclosieve.tableaux import css, descent_set
from oracles.jeudetaquin import evacuate, is_semistandardizable, promote
from oracles.klcells import Immanant, kl_immanant, leq, mu_tableaux, poly, representation_matrix
from oracles.permutations import bruhat_leq, inverse, left_descents, length, right_descents, rsk, simple
from oracles.qpolys import shift


def all_perms(n):
    return [Permutation(p) for p in itertools_permutations(range(1, n + 1))]


def _promotion_orbits(shape):
    orbits = []
    seen = set()
    for t in enumerate_syt(shape):
        if t in seen:
            continue
        orbit = [t]
        cur = promote(t, shape.size)
        while cur != t:
            orbit.append(cur)
            cur = promote(cur, shape.size)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def _delete_corner(t: Tableau) -> Tableau:
    rows = [list(row) for row in t.rows]
    assert rows[-1][-1] == t.size
    rows[-1].pop()
    if not rows[-1]:
        rows.pop()
    return Tableau(rows)


class TestTableAxioms:
    def test_s3_polynomials_are_comparability_indicators(self):
        table = kl_table(3)
        for u in all_perms(3):
            for w in all_perms(3):
                expected = IntPolynomial((1,)) if leq(table, u, w) else IntPolynomial.zero()
                assert poly(table, u, w) == expected

    def test_s4_singular_loci(self):
        table = kl_table(4)
        one_plus_q = IntPolynomial((1, 1))
        # P_{x,3412} = 1+q exactly for x <= 1324; P_{x,4231} = 1+q for x <= 2143
        w3412, w4231 = Permutation((3, 4, 1, 2)), Permutation((4, 2, 3, 1))
        for x in all_perms(4):
            if leq(table, x, w3412):
                expected = one_plus_q if leq(table, x, Permutation((1, 3, 2, 4))) else IntPolynomial((1,))
                assert poly(table, x, w3412) == expected
            if leq(table, x, w4231):
                expected = one_plus_q if leq(table, x, Permutation((2, 1, 4, 3))) else IntPolynomial((1,))
                assert poly(table, x, w4231) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_defining_axioms(self, n):
        table = kl_table(n)
        for u in all_perms(n):
            assert poly(table, u, u) == IntPolynomial((1,))  # normalization
        for wi, column in enumerate(table._polys):
            for ui, coeffs in column.items():
                lu, lw = table.lengths[ui], table.lengths[wi]
                assert table._leq[ui, wi]  # Bruhat compatibility of storage
                assert len(coeffs) - 1 <= (lw - lu - 1) // 2  # degree bound
                assert coeffs[0] >= 1  # constant term positive for u <= w
        # vanishing outside the order
        for u in all_perms(n):
            for w in all_perms(n):
                if not leq(table, u, w) and u != w:
                    assert poly(table, u, w).is_zero()

    def test_s6_degree_bound_holds_storewide(self):
        table = kl_table(6)
        for wi, column in enumerate(table._polys):
            for ui, coeffs in column.items():
                assert len(coeffs) - 1 <= (table.lengths[wi] - table.lengths[ui] - 1) // 2

    def test_rank_cap(self):
        """At the default cap rank 7's 7!^2 Bruhat entries are refused;
        above rank 7 no cap helps."""
        with pytest.raises(CapExceeded, match="25401600 > cap 1000000"):
            kl_table(7)
        for cap in (None, 1, factorial(8) ** 2):
            with pytest.raises(ValueError, match="ranks above 7 are not supported"):
                kl_table(8, cap)

    def test_the_cap_bounds_the_bruhat_table(self, monkeypatch):
        """The cap is held against the n!^2 Bruhat entries, exactly, and
        before anything is built."""
        from cyclosieve import klcells

        assert kl_table(6, cap=518400) is kl_table(6)

        def refuse(n):
            raise AssertionError(f"built a table for S_{n}")

        monkeypatch.setattr(klcells, "_kl_table", refuse)
        with pytest.raises(CapExceeded, match="518400 > cap 518399"):
            kl_table(6, cap=518399)

    def test_a_cached_table_is_not_returned_past_a_smaller_cap(self):
        kl_table.cache_clear()
        table = kl_table(4, cap=10**6)
        assert kl_table.cache_info().currsize == 1
        for cap in (575, 1, 0, -1):
            with pytest.raises(CapExceeded):
                kl_table(4, cap)
        assert kl_table(4, 576) is table

    def test_one_build_per_rank(self):
        """Every call form of kl_table for one rank shares one memo entry."""
        kl_table.cache_clear()
        assert verify_promotion_identity(Partition((2, 2)))["verdict"]
        assert kl_table.cache_info().misses == 1
        assert kl_table(4) is kl_table(4, cap=576) is kl_table(n=4)
        assert kl_table.cache_info().misses == 1

    def test_index_tables(self):
        for n in range(1, 7):
            table = kl_table(n)
            wo = long_element(n)
            assert table.perms == sorted(table.perms, key=lambda p: (length(Permutation(p)), p))
            for w in all_perms(n):
                wi = table._idx(w)
                assert table.perms[table._w0_left[wi]] == wo * w
                assert table.perms[table._inverse[wi]] == inverse(w)
                assert table.perms[table._conj[wi]] == wo * w * wo
                for i in range(1, n):
                    assert table.perms[table._left[i - 1][wi]] == simple(i, n) * w
                    assert table.perms[table._right[i - 1][wi]] == w * simple(i, n)
                assert table._ldesc[wi] == sum(1 << (i - 1) for i in left_descents(w))
                assert table._rdesc[wi] == sum(1 << (i - 1) for i in right_descents(w))

    @pytest.mark.parametrize("n", range(8))
    def test_index_tables_match_the_tuple_built_ones(self, n):
        table = KLTable(n)
        perms, lengths, index, left, right, w0_left, ldesc, rdesc = _tuple_index_tables(n)
        assert table.perms == perms
        assert table.lengths == lengths
        assert table.index == index
        assert table._left == left
        assert table._right == right
        assert table._w0_left.tolist() == w0_left
        assert table._ldesc == ldesc
        assert table._rdesc == rdesc

    @pytest.mark.parametrize("n", range(7))
    def test_build_matches_the_full_descent_recursion(self, n):
        table = KLTable(n)
        polys, mu_lists = _reference_build(table)
        assert table._polys == polys
        assert table._mu_lists == mu_lists

    @pytest.mark.parametrize("n", range(6))
    def test_signed_supports_invert_the_kl_matrix(self, n):
        """Row t of |_signed_support(t)|, P_{w0 v, w0 t}(1) at each v >= t, is
        the two-sided inverse of M[x, y] = (-1)^(l(y)-l(x)) P_{x,y}(1)
        (Kazhdan-Lusztig 1979, (3.1)); the KL-basis coefficient of the
        promotion identity is read through it."""
        table = kl_table(n)
        size = len(table.perms)
        m = np.array([[(-1) ** (table.lengths[y] - table.lengths[x]) * sum(table._coeffs(x, y))
                       for y in range(size)] for x in range(size)], dtype=np.int64)
        inverse = np.zeros((size, size), dtype=np.int64)
        for t in range(size):
            vs, values = table._signed_support(t)
            inverse[t, vs] = np.abs(values)
        identity = np.eye(size, dtype=np.int64)
        assert (m @ inverse == identity).all() and (inverse @ m == identity).all()

    @pytest.mark.parametrize("n", range(6))
    def test_inversion_identity(self, n):
        """q^(l(w)-l(u)) P_{u,w}(1/q) = sum over u <= z <= w of R_{u,z} P_{z,w},
        with R from its own recursion."""
        table = kl_table(n)
        r = _r_polynomials(table)
        size = len(table.perms)
        for u in range(size):
            above = [(z, rz) for z, rz in enumerate(r[u]) if rz]
            for w in range(size):
                rhs = IntPolynomial.zero()
                for z, rz in above:
                    if z == w or table._leq[z, w]:
                        rhs = rhs + IntPolynomial(rz) * IntPolynomial(table._coeffs(z, w))
                diff = table.lengths[w] - table.lengths[u]
                lhs = IntPolynomial.zero()
                for k, c in enumerate(table._coeffs(u, w)):
                    lhs = lhs + IntPolynomial((0,) * (diff - k) + (c,))
                assert lhs == rhs, (table.perms[u], table.perms[w])

    def test_recursion_runs_only_where_u_has_every_descent_of_w(self, monkeypatch):
        """Every other pair u < w copies P_{tu,w} or P_{ut,w}, and only the
        column of lowest index in each class {w, w^-1, w0 w w0, w0 w^-1 w0}
        is computed."""
        from cyclosieve import klcells

        calls = []
        original = klcells._plus_q_times
        monkeypatch.setattr(
            klcells, "_plus_q_times", lambda a, b: calls.append(None) or original(a, b)
        )
        table = KLTable(6)
        perms = [Permutation(p) for p in table.perms]
        left = [left_descents(p) for p in perms]
        right = [right_descents(p) for p in perms]
        wo = long_element(6)
        lowest = [
            min(table.index[x] for x in (p, inverse(p), wo * p * wo, wo * inverse(p) * wo))
            for p in perms
        ]
        expected = sum(
            1
            for w in range(len(perms))
            if lowest[w] == w
            for u in np.flatnonzero(table._leq[:, w]).tolist()
            if u != w and left[w] <= left[u] and right[w] <= right[u]
        )
        assert len(calls) == expected == 811

    @pytest.mark.parametrize("n", range(7))
    def test_mu_off_the_recursion_is_one_on_coatoms(self, n):
        """Where u lacks a left or right descent of w, the full recursion gives
        mu(u, w) != 0 exactly on the coatoms u = t w and u = w t, t a descent of
        w, and there mu = 1 (Kazhdan-Lusztig 1979), the rule the build's copy
        steps use instead of reading the top coefficient."""
        table = KLTable(n)
        _, mu_lists = _reference_build(table)
        perms = [Permutation(p) for p in table.perms]
        for w, pw in enumerate(perms):
            copied = {
                perms[u]: mu for u, mu in mu_lists[w]
                if not (left_descents(pw) <= left_descents(perms[u])
                        and right_descents(pw) <= right_descents(perms[u]))
            }
            coatoms = {simple(t, n) * pw for t in left_descents(pw)}
            coatoms |= {pw * simple(t, n) for t in right_descents(pw)}
            assert copied == dict.fromkeys(coatoms, 1), pw


def _rank_criterion_leq(table):
    """Test oracle: leq[u, w] iff r_u(i, j) <= r_w(i, j) for all i, j, where
    r_w(i, j) counts the a <= i with w(a) >= j."""
    n, size = table.n, len(table.perms)
    above = np.array(table.perms, dtype=np.int8).reshape(size, n, 1) >= np.arange(1, n + 1)
    rank = np.cumsum(above, axis=1, dtype=np.int8).reshape(size, n * n)
    return np.array([np.all(rank <= rank[w], axis=1) for w in range(size)]).T


class TestBruhatTable:
    @pytest.mark.parametrize("n", range(6))
    def test_matches_bruhat_leq(self, n):
        table = KLTable(n)
        perms = [Permutation(p) for p in table.perms]
        expected = [[bruhat_leq(u, w) for w in perms] for u in perms]
        assert table._leq.tolist() == expected

    def test_matches_the_rank_criterion_at_rank_6(self):
        table = kl_table(6)
        assert np.array_equal(table._leq, _rank_criterion_leq(table))

    def test_rows_are_contiguous(self):
        """_leq is the transposed view of a table whose row w marks the u <= w."""
        leq = kl_table(5)._leq
        assert leq.T.flags.c_contiguous and leq.base is not None


def _restriction(full, table):
    """Test oracle: the full table's columns, mu lists and Bruhat table on the
    elements of ``table``, in ``table``'s indices."""
    idx = [full.index[p] for p in table.perms]
    pos = {f: i for i, f in enumerate(idx)}
    polys = [{pos[u]: c for u, c in full._polys[w].items() if u in pos} for w in idx]
    mu_lists = {i: tuple((pos[u], mu) for u, mu in full._mu_lists[w] if u in pos)
                for i, w in enumerate(idx)}
    return polys, mu_lists, full._leq[np.ix_(idx, idx)]


def _cell_descents(shape):
    return descent_set(css(shape))


class TestCosetTable:
    """KLTable(n, J) over the coset maxima X_J against the full table, which
    stays the oracle."""

    @pytest.mark.parametrize("n", range(8))
    def test_every_cell_matches_the_full_table(self, n):
        """Every P and mu on X_J, J = Des(css(shape)), for every partition of n."""
        cap = factorial(7) ** 2
        try:
            full = kl_table(n, cap)
            for shape in partitions_of(n):
                table = kl_table(n, cap, _cell_descents(shape))
                polys, mu_lists, leq = _restriction(full, table)
                assert np.array_equal(table._leq, leq), shape
                assert table._polys == polys, shape
                assert table._mu_lists == mu_lists, shape
        finally:
            kl_table.cache_clear()  # drop the rank-7 table
            klcells._coset_table.cache_clear()

    @pytest.mark.parametrize("n", range(7))
    def test_every_descent_set_matches_the_full_table(self, n):
        """Every J, not only the descent sets of css(shape): J need not be
        symmetric, nor end in a block of one."""
        full = kl_table(n)
        for k in range(n):
            for descents in combinations(range(1, n), k):
                table = KLTable(n, frozenset(descents))
                polys, mu_lists, leq = _restriction(full, table)
                assert np.array_equal(table._leq, leq), descents
                assert (table._polys, table._mu_lists) == (polys, mu_lists), descents

    @pytest.mark.parametrize("n", range(7))
    def test_elements_are_the_coset_maxima(self, n):
        """X_J is enumerated without S_n: n!/prod m! elements, sorted by
        length, then one-line order, each decreasing on every block of J."""
        for shape in partitions_of(n):
            descents = _cell_descents(shape)
            table = KLTable(n, descents)
            expected = sorted(
                (length(Permutation(p)), p) for p in itertools_permutations(range(1, n + 1))
                if all(p[i - 1] > p[i] for i in descents)
            )
            assert table.perms == [p for _, p in expected]
            assert table.lengths == [length for length, _ in expected]
            columns = shape.conjugate()
            assert len(table.perms) == factorial(n) // int(np.prod([factorial(c) for c in columns]))

    def test_the_three_three_cell_table(self):
        """The figures of the 3,3 cell: 90 elements and 2,442 Bruhat pairs
        against 720 and 98,407, with w -> w0 w w0 the one symmetry kept."""
        table = KLTable(6, _cell_descents(Partition((3, 3))))
        assert (len(table.perms), table.comparable_pairs()) == (90, 2442)
        assert kl_table(6).comparable_pairs() == 98407
        assert table._inverse is None and table._conj is not None

    def test_an_empty_descent_set_reads_the_full_table_memo(self):
        assert kl_table(5, descents=frozenset()) is kl_table(5)

    def test_queries_outside_the_coset_maxima_are_refused(self):
        table = KLTable(4, frozenset({1}))
        assert table.mu(Permutation((2, 1, 3, 4)), Permutation((3, 1, 2, 4))) == 1
        with pytest.raises(ValueError, match=r"w\(i\) > w\(i \+ 1\) at \[1\]"):
            table.mu(Permutation((1, 2, 3, 4)), Permutation((2, 1, 3, 4)))
        with pytest.raises(ValueError, match="are not positions"):
            KLTable(3, frozenset({3}))

    @pytest.mark.parametrize("n", range(8))
    def test_mu_invariance_reports_what_the_full_table_gives(self, monkeypatch, n):
        cap = factorial(7) ** 2
        try:
            reports = [mu_promotion_invariance(shape, cap) for shape in partitions_of(n)]
            monkeypatch.setattr(klcells, "_cell_table", lambda shape, cap=None: kl_table(shape.size, cap))
            assert reports == [mu_promotion_invariance(shape, cap) for shape in partitions_of(n)]
        finally:
            kl_table.cache_clear()  # drop the rank-7 table
            klcells._coset_table.cache_clear()

    def test_mu_invariance_never_builds_the_full_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"built the full table of S_{args[0]}")

        klcells._coset_table.cache_clear()
        monkeypatch.setattr(klcells, "_kl_table", refuse)
        for shape, verdict in [((3, 3), True), ((3, 2), True), ((2, 2, 1), True), ((3, 1), False)]:
            assert mu_promotion_invariance(Partition(shape))["verdict"] is verdict, shape
        assert klcells._coset_table.cache_info().misses == 4

    def test_the_cap_is_held_against_the_full_bruhat_table(self, monkeypatch):
        """A table over X_J is refused from the n!^2 entries of S_n, as the
        full table is, before anything is built."""
        def refuse(*args):
            raise AssertionError("built a table past the cap")

        monkeypatch.setattr(klcells, "_coset_table", refuse)
        with pytest.raises(CapExceeded, match="518400 > cap 518399"):
            kl_table(6, 518399, _cell_descents(Partition((3, 3))))


class TestMu:
    def test_spec_examples_in_s4(self):
        table = kl_table(4)
        assert table.mu_sym(Permutation((4, 1, 2, 3)), Permutation((2, 1, 3, 4))) == 0
        assert table.mu_sym(Permutation((2, 1, 3, 4)), Permutation((3, 1, 2, 4))) == 1
        assert table.mu_sym(Permutation((3, 1, 2, 4)), Permutation((4, 1, 2, 3))) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_long_element_and_inverse_symmetries(self, n):
        table = kl_table(n)
        wo = long_element(n)
        for u in all_perms(n):
            for v in all_perms(n):
                m = table.mu(u, v)
                assert m == table.mu(wo * v, wo * u)
                assert m == table.mu(v * wo, u * wo)
                assert m == table.mu(wo * u * wo, wo * v * wo)
                assert m == table.mu(inverse(u), inverse(v))

    def test_mu_tableaux_independent_of_recording_choice(self):
        """Both change-of-label forms give the same value for every choice of
        the auxiliary tableau."""
        lam = Partition((3, 2))
        basis = enumerate_syt(lam)
        table = kl_table(5)
        for p in basis:
            for q in basis:
                values = {
                    table.mu_sym(rsk_inverse(p, t), rsk_inverse(q, t)) for t in basis
                } | {
                    table.mu_sym(rsk_inverse(t, p), rsk_inverse(t, q)) for t in basis
                }
                assert len(values) == 1
                assert values.pop() == mu_tableaux(p, q, table)

    def test_mu_tableaux_enumerates_nothing(self, monkeypatch):
        """The recording tableau is css(shape), not the first enumerated SYT."""
        from cyclosieve import klcells

        calls = []
        original = klcells.enumerate_syt
        monkeypatch.setattr(klcells, "enumerate_syt", lambda *a, **kw: calls.append(a) or original(*a, **kw))
        basis = enumerate_syt(Partition((3, 2)))
        table = kl_table(5)
        for p in basis:
            for q in basis:
                mu_tableaux(p, q, table)
        assert calls == []

    def test_mu_diagonal_vanishes(self):
        for p in enumerate_syt(Partition((2, 2))):
            assert mu_tableaux(p, p) == 0


class TestCellMatrices:
    def test_one_dimensional_modules(self):
        assert representation_matrix(Partition((4,)), simple(2, 4)) == ((1,),)
        assert representation_matrix(Partition((1, 1, 1, 1)), simple(2, 4)) == ((-1,),)

    def test_22_matrix_against_direct_formula(self):
        lam = Partition((2, 2))
        basis = enumerate_syt(lam)
        from cyclosieve.tableaux import descent_set

        for i in (1, 2, 3):
            m = representation_matrix(lam, simple(i, 4))
            for col, t in enumerate(basis):
                if i in descent_set(t):
                    assert m[col][col] == -1
                    assert all(m[r][col] == 0 for r in range(len(basis)) if r != col)
                else:
                    assert m[col][col] == 1

    def test_involutions_and_braid_relations(self):
        for size in range(2, 7):
            for lam in all_partitions_up_to(size):
                if lam.size != size:
                    continue
                dim = len(enumerate_syt(lam))
                ident = _identity_matrix(dim)
                mats = {i: representation_matrix(lam, simple(i, size)) for i in range(1, size)}
                for i, m in mats.items():
                    assert _mat_mul(m, m) == ident, (lam, i)
                for i in range(1, size):
                    for j in range(i + 1, size):
                        a, b = mats[i], mats[j]
                        if j - i > 1:
                            assert _mat_mul(a, b) == _mat_mul(b, a), (lam, i, j)
                        else:
                            assert _mat_mul(_mat_mul(a, b), a) == _mat_mul(
                                _mat_mul(b, a), b
                            ), (lam, i, j)

    def test_long_element_is_signed_evacuation_matrix(self):
        """The longest element acts as evacuation up to one global sign,
        on arbitrary shapes."""
        for lam in [Partition(s) for s in [(2, 2), (3, 1), (2, 1), (3, 2), (2, 2, 1), (4, 2)]]:
            n = lam.size
            basis = enumerate_syt(lam)
            idx = {t: i for i, t in enumerate(basis)}
            rho = representation_matrix(lam, long_element(n))
            evac = [[0] * len(basis) for _ in basis]
            for t in basis:
                evac[idx[evacuate(t, n)]][idx[t]] = 1
            plus = tuple(tuple(r) for r in evac)
            minus = tuple(tuple(-x for x in r) for r in evac)
            assert rho in (plus, minus), lam


class TestPromotionIdentity:
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (1, 1), (3,), (1, 1, 1), (4,), (2, 2), (1, 1, 1, 1)]
    )
    def test_small_rectangles(self, shape):
        report = verify_promotion_identity(Partition(shape))
        assert report["verdict"]
        assert report["sign"] == (-1) ** (len(shape) - 1)

    def test_every_rectangle_up_to_six_cells_and_rank_seven(self):
        shapes = [(shape, None) for shape in rectangles_up_to(6)]
        shapes += [(Partition((7,)), factorial(7) ** 2), (Partition((1,) * 7), factorial(7) ** 2)]
        try:
            for shape, cap in shapes:
                report = verify_promotion_identity(shape, cap=cap)
                assert report["verdict"] and report["kl_basis_coefficient"] == report["sign"], shape
        finally:
            kl_table.cache_clear()  # drop the rank-7 table

    def test_222_sign_and_cycle_structure(self):
        report = verify_promotion_identity(Partition((2, 2, 2)))
        assert report["verdict"] and report["sign"] == 1

    def test_non_rectangular_rejected(self):
        with pytest.raises(ValueError):
            verify_promotion_identity(Partition((2, 1)))

    def test_the_cap_reaches_the_table(self):
        """The given cap, not the default, bounds the table each check reads:
        S_4 has 576 Bruhat entries."""
        assert verify_promotion_identity(Partition((2, 2)), cap=576)["verdict"]
        assert mu_promotion_invariance(Partition((2, 2)), cap=576)["verdict"]
        assert vanishing_criterion_check(4, cap=576)["verdict"]
        for check in (verify_promotion_identity, mu_promotion_invariance):
            with pytest.raises(CapExceeded, match="576 > cap 575"):
                check(Partition((2, 2)), cap=575)
        with pytest.raises(CapExceeded, match="576 > cap 575"):
            vanishing_criterion_check(4, cap=575)


class TestMuInvariance:
    def test_holds_on_rectangles_and_near_rectangles(self):
        for shape in [(2, 2), (2, 1), (3, 2), (2, 2, 1), (3, 3), (2, 2, 2), (5,), (1, 1, 1, 1)]:
            assert mu_promotion_invariance(Partition(shape))["verdict"], shape

    def test_31_counterexample(self):
        report = mu_promotion_invariance(Partition((3, 1)))
        assert not report["verdict"]

    def test_31_cycle_values(self):
        t1 = Tableau([(1, 2, 3), (4,)])
        t2 = promote(t1, 4)
        t3 = promote(t2, 4)
        assert promote(t3, 4) == t1
        cycle = [mu_tableaux(t1, t2), mu_tableaux(t2, t3), mu_tableaux(t3, t1)]
        assert sorted(cycle) == [0, 1, 1]

    def test_cross_orbit_constancy_222(self):
        """Coprime orbits (sizes 2 and 3) have constant mu across them."""
        lam = Partition((2, 2, 2))
        orbits = _promotion_orbits(lam)
        assert sorted(len(o) for o in orbits) == [2, 3]
        two = next(o for o in orbits if len(o) == 2)
        three = next(o for o in orbits if len(o) == 3)
        assert {mu_tableaux(p, q) for p in two for q in three} == {1}

    def test_cross_orbit_constancy_all_coprime_pairs(self):
        from math import gcd

        for lam in rectangles_up_to(6):
            orbits = _promotion_orbits(lam)
            for i, first in enumerate(orbits):
                for second in orbits[i + 1:]:
                    if gcd(len(first), len(second)) != 1:
                        continue
                    values = {mu_tableaux(p, q) for p in first for q in second}
                    assert len(values) == 1, (tuple(lam), len(first), len(second))

    def test_mu_preserved_by_corner_deletion(self):
        """Dropping the largest entry from a rectangular tableau (always the
        bottom-right corner) preserves mu, rectangles up to 6 boxes."""
        for lam in rectangles_up_to(6):
            if lam.size < 2:
                continue
            basis = enumerate_syt(lam)
            for a, p in enumerate(basis):
                for q in basis[a + 1:]:
                    assert mu_tableaux(p, q) == mu_tableaux(
                        _delete_corner(p), _delete_corner(q)
                    ), (tuple(lam), p, q)


class TestImmanants:
    def test_identity_gives_determinant(self):
        ones = Composition((1, 1, 1))
        det = kl_immanant(Permutation((1, 2, 3)), ones, ones)
        assert len(det.terms) == 6
        for mono, coeff in det.terms.items():
            w = Permutation(tuple(b for _, b in sorted(mono)))
            assert coeff == (-1) ** length(w)

    def test_repeated_row_displays(self):
        """The repeated-row matrix has row pattern (1,1,2); two of the four
        substituted permutation monomials coincide and cancel."""
        rows = Composition((2, 1))
        cols = Composition((1, 1, 1))
        imm213 = kl_immanant(Permutation((2, 1, 3)), rows, cols)
        assert imm213.terms == {
            ((1, 1), (1, 2), (2, 3)): 1,
            ((1, 1), (1, 3), (2, 2)): -1,
        }
        assert kl_immanant(Permutation((2, 3, 1)), rows, cols).is_zero()

    def test_rank_four_expansions(self):
        ones = Composition((1, 1, 1, 1))
        imm3412 = kl_immanant(Permutation((3, 4, 1, 2)), ones, ones)
        expected = {
            ((1, 3), (2, 4), (3, 1), (4, 2)): 1,
            ((1, 4), (2, 3), (3, 1), (4, 2)): -1,
            ((1, 3), (2, 4), (3, 2), (4, 1)): -1,
            ((1, 4), (2, 3), (3, 2), (4, 1)): 1,
        }
        assert imm3412.terms == {tuple(sorted(k)): v for k, v in expected.items()}
        imm3142 = kl_immanant(Permutation((3, 1, 4, 2)), ones, ones)
        expected = {
            ((1, 3), (2, 1), (3, 4), (4, 2)): 1,
            ((1, 3), (2, 2), (3, 4), (4, 1)): -1,
            ((1, 3), (2, 4), (3, 1), (4, 2)): -1,
            ((1, 4), (2, 1), (3, 3), (4, 2)): -1,
            ((1, 4), (2, 2), (3, 3), (4, 1)): 1,
            ((1, 3), (2, 4), (3, 2), (4, 1)): 1,
            ((1, 4), (2, 3), (3, 1), (4, 2)): 1,
            ((1, 4), (2, 3), (3, 2), (4, 1)): -1,
        }
        assert imm3142.terms == {tuple(sorted(k)): v for k, v in expected.items()}

    @pytest.mark.parametrize("n", [3, 4])
    def test_row_swap_action(self, n):
        """Row swaps act by the descent formula, with position-side simple
        reflections and the directed mu; pinned by this exhaustive check."""
        table = kl_table(n)
        ones = Composition((1,) * n)
        imms = {
            tuple(w): kl_immanant(w, ones, ones, table) for w in all_perms(n)
        }
        for w in all_perms(n):
            for i in range(1, n):
                lhs = imms[tuple(w)].swap_rows(i)
                sw = w * simple(i, n)
                if length(sw) > length(w):
                    rhs = imms[tuple(w)].scale(-1)
                else:
                    rhs = imms[tuple(w)] + imms[tuple(sw)]
                    for z in all_perms(n):
                        if z == w or length(z * simple(i, n)) <= length(z):
                            continue
                        m = table.mu(w, z)
                        if m:
                            rhs = rhs + imms[tuple(z)].scale(m)
                assert lhs == rhs, (w, i)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_permutation_walk_oracle(self, n):
        """The memoized signed supports give the same immanants as walking
        every permutation of S_n."""
        table = kl_table(n)
        betas = [Composition((1,) * n)]
        if n >= 2:
            betas.append(Composition((2,) + (1,) * (n - 2)))
        alphas = [
            alpha
            for length in range(1, n + 1)
            for alpha in compositions_of(n, length, allow_zero=False)
        ]
        for w in all_perms(n):
            for alpha in alphas:
                for beta in betas:
                    expected = _kl_immanant_by_walk(w, alpha, beta, table)
                    assert kl_immanant(w, alpha, beta, table).terms == expected.terms


def _kl_immanant_by_walk(w, alpha, beta, table):
    """Test oracle: Imm_w(x_{alpha,beta}) by walking all n! permutations v and
    keeping those with w <= v, each weighted by
    (-1)^(l(v)-l(w)) P_{w0 v, w0 w}(1)."""
    n = len(w)
    rows, cols = alpha.labels(), beta.labels()
    wo = long_element(n)
    terms = {}
    for v in all_perms(n):
        if not leq(table, w, v):
            continue
        coeff = sum(poly(table, wo * v, wo * w).coeffs)
        if not coeff:
            continue
        coeff *= (-1) ** (length(v) - length(w))
        mono = tuple(sorted((rows[i], cols[v[i] - 1]) for i in range(n)))
        terms[mono] = terms.get(mono, 0) + coeff
    return Immanant(terms)


class TestVanishingCriterion:
    def test_compositions_in_lexicographic_order(self):
        for n in range(9):
            expected = sorted(alpha for k in range(n + 1) for alpha in compositions_of(n, k, False))
            assert _compositions(n) == expected, n

    def test_n3_matches_semistandardizability(self):
        report = vanishing_criterion_check(3)
        assert report["verdict"] and report["cases_checked"] == 24

    def test_n4_exhaustive(self):
        report = vanishing_criterion_check(4)
        assert report["verdict"] and report["cases_checked"] == 192

    def test_n5_exhaustive(self):
        report = vanishing_criterion_check(5)
        assert report["verdict"] and report["cases_checked"] == 1920

    @pytest.mark.parametrize("n", range(6))
    def test_matrix_matches_the_per_pair_immanants(self, n):
        table = kl_table(n)
        vanishes, mismatches = _vanishing_by_pairs(n, table)
        words = list(itertools_permutations(range(1, n + 1)))
        labels = [alpha.labels() for alpha in _compositions(n)]
        assert _vanishing_matrix(table, words, labels).tolist() == vanishes
        assert vanishing_criterion_check(n, table)["mismatches"] == mismatches

    def test_blocks_cut_anywhere(self, monkeypatch):
        """Cutting the stacked supports into blocks of any size leaves the
        matrix as it is."""
        from cyclosieve import klcells

        table = kl_table(5)
        words = list(itertools_permutations(range(1, 6)))
        labels = [alpha.labels() for alpha in _compositions(5)]
        whole = _vanishing_matrix(table, words, labels)
        for rows in (1, 7, 100, 1000):
            monkeypatch.setattr(klcells, "_BLOCK_ROWS", rows)
            assert np.array_equal(_vanishing_matrix(table, words, labels), whole), rows

    @pytest.mark.parametrize("n", [4, 5])
    def test_keys_separate_monomials(self, monkeypatch, n):
        """Give each w the support {v, v'} with coefficients 1 and -1, for
        every pair v != v' of S_n: Imm_w(x_{alpha,1^n}) vanishes iff v and
        v' give the same monomial, so no two monomials may share a key."""
        table = kl_table(n)
        words = list(itertools_permutations(range(1, n + 1)))
        labels = [alpha.labels() for alpha in _compositions(n)]
        size = len(words)
        for shift in range(1, size):
            partner = {table.index[w]: table.index[words[(i + shift) % size]]
                       for i, w in enumerate(words)}
            monkeypatch.setattr(
                KLTable, "_signed_support",
                lambda self, w: (np.array([w, partner[w]]), np.array([1, -1], dtype=np.int64)),
            )
            vanishes = _vanishing_matrix(table, words, labels)
            expected = [
                [sorted(zip(rows, v)) == sorted(zip(rows, words[(i + shift) % size]))
                 for rows in labels]
                for i, v in enumerate(words)
            ]
            assert vanishes.tolist() == expected, shift

    def test_a_flipped_sign_is_caught(self, monkeypatch):
        """Flipping the sign of one coefficient of one signed support, for any
        w but w0, makes Imm_w(x_{(n),1^n}) nonzero: the verdict fails and
        lists that w alone, with alpha = (n) among its mismatches."""
        n = 4
        table = KLTable(n)
        original = KLTable._signed_support
        for word in itertools_permutations(range(1, n + 1)):
            if word == tuple(range(n, 0, -1)):
                continue
            target = table.index[word]

            def flipped(self, w, target=target):
                vs, coeffs = original(self, w)
                if w == target:
                    coeffs = coeffs.copy()
                    coeffs[len(coeffs) // 2] *= -1
                return vs, coeffs

            monkeypatch.setattr(KLTable, "_signed_support", flipped)
            report = vanishing_criterion_check(n, table)
            assert not report["verdict"], word
            assert {"w": list(word), "alpha": [n]} in report["mismatches"], word
            assert {tuple(m["w"]) for m in report["mismatches"]} == {word}

    def test_table_of_another_rank_is_rejected(self):
        with pytest.raises(ValueError, match="rank 5, not 4"):
            vanishing_criterion_check(4, kl_table(5))

    def test_all_ones_never_vanishes(self):
        table = kl_table(4)
        ones = Composition((1, 1, 1, 1))
        for w in all_perms(4):
            assert not kl_immanant(w, ones, ones, table).is_zero()

    def test_recording_tableaux_of_213_231(self):
        q213 = rsk(Permutation((2, 1, 3)))[1]
        q231 = rsk(Permutation((2, 3, 1)))[1]
        assert is_semistandardizable(q213, Composition((2, 1)))
        assert not is_semistandardizable(q231, Composition((2, 1)))


def _vanishing_by_pairs(n, table):
    """Test oracle: the vanishing rule read one immanant at a time.

    Returns the matrix of kl_immanant(w, alpha, 1^n).is_zero() over w in
    one-line order and alpha in _compositions order, and the (w, alpha)
    where it disagrees with is_semistandardizable, as the report lists them.
    """
    ones = Composition((1,) * n)
    vanishes, mismatches = [], []
    for w in all_perms(n):
        q = rsk(w)[1]
        row = []
        for alpha in _compositions(n):
            row.append(kl_immanant(w, alpha, ones, table).is_zero())
            if row[-1] == is_semistandardizable(q, alpha):
                mismatches.append({"w": list(w), "alpha": list(alpha)})
        vanishes.append(row)
    return vanishes, mismatches


def _reference_build(table):
    """Test oracle: every P_{u,w} by the descent recursion, with no copying.

    P_{u,w} = q^(1-c) P_{su,sw} + q^c P_{u,sw} - sum mu(z,sw) q^((l(w)-l(z))/2) P_{u,z}
    over z < sw with s a left descent of z, for s the smallest left descent of
    w and c = 1 if s is a left descent of u, else 0.  Returns the columns
    (u -> coefficients, 1 left out) and the mu lists in the table's layout.
    """
    lengths, left, ldesc = table.lengths, table._left, table._ldesc
    polys = [{} for _ in table.perms]
    mu_lists = {}

    def coeffs(u, w):
        if u == w:
            return (1,)
        return polys[w].get(u, (1,)) if table._leq[u, w] else ()

    for w in range(len(table.perms)):
        if lengths[w] == 0:
            mu_lists[w] = ()
            continue
        i = (ldesc[w] & -ldesc[w]).bit_length()
        s = left[i - 1]
        v = s[w]
        mu_v = [
            (z, mu, (lengths[w] - lengths[z]) // 2)
            for z, mu in mu_lists[v]
            if ldesc[z] >> (i - 1) & 1
        ]
        mus = []
        for u in np.flatnonzero(table._leq[:, w]).tolist():
            if u == w:
                continue
            p_su, p_u = IntPolynomial(coeffs(s[u], v)), IntPolynomial(coeffs(u, v))
            if ldesc[u] >> (i - 1) & 1:
                total = p_su + shift(p_u, 1)
            else:
                total = shift(p_su, 1) + p_u
            for z, mu, half in mu_v:
                if table._leq[u, z]:
                    total = total - shift(IntPolynomial(coeffs(u, z)), half) * mu
            bound = (lengths[w] - lengths[u] - 1) // 2
            assert total.degree <= bound
            if total != IntPolynomial((1,)):
                polys[w][u] = tuple(total.coeffs)
            if (lengths[w] - lengths[u]) % 2 == 1 and total.coefficient(bound):
                mus.append((u, total.coefficient(bound)))
        mu_lists[w] = tuple(mus)
    return polys, mu_lists


def _tuple_index_tables(n):
    """Test oracle: the index tables built one permutation tuple at a time.

    Returns perms sorted by (length, one-line), their lengths, the index of
    each, the neighbours s_i w and w s_i as lists per i, w0 w, and the left
    and right descent bitmasks.
    """
    by_length = sorted(
        (sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j]), p)
        for p in itertools_permutations(range(1, n + 1))
    )
    perms = [p for _, p in by_length]
    index = {p: i for i, p in enumerate(perms)}
    left = [
        [index[tuple(i + 1 if v == i else i if v == i + 1 else v for v in p)] for p in perms]
        for i in range(1, n)
    ]
    right = [[index[(*p[:i - 1], p[i], p[i - 1], *p[i + 1:])] for p in perms] for i in range(1, n)]
    w0_left = [index[tuple(n + 1 - v for v in p)] for p in perms]
    ldesc = [sum(1 << i for i, s in enumerate(left) if s[w] < w) for w in range(len(perms))]
    rdesc = [sum(1 << i for i, s in enumerate(right) if s[w] < w) for w in range(len(perms))]
    return perms, [length for length, _ in by_length], index, left, right, w0_left, ldesc, rdesc


def _r_polynomials(table):
    """Test oracle: r[u][w] is R_{u,w} as a coefficient tuple, () off the order.

    R_{u,e} is 1 at u = e; for s a left descent of w, R_{u,w} = R_{su,sw} if s
    is a left descent of u, else (q - 1) R_{u,sw} + q R_{su,sw}.
    """
    size = len(table.perms)
    left, ldesc = table._left, table._ldesc
    cols = []
    for w in range(size):
        if table.lengths[w] == 0:
            cols.append([(1,) if u == w else () for u in range(size)])
            continue
        i = (ldesc[w] & -ldesc[w]).bit_length()
        s = left[i - 1]
        prev = cols[s[w]]
        col = []
        for u in range(size):
            if ldesc[u] >> (i - 1) & 1:
                col.append(prev[s[u]])
            else:
                value = (IntPolynomial((-1, 1)) * IntPolynomial(prev[u])
                         + shift(IntPolynomial(prev[s[u]]), 1))
                col.append(tuple(value.coeffs))
        cols.append(col)
    return [[cols[w][u] for w in range(size)] for u in range(size)]


def _reference_columns(table) -> list[list[dict]]:
    """The rows u < v of the dump as dicts, one list per v that has any."""
    columns = [
        [{"u": list(table.perms[u]), "v": list(table.perms[w]),
          "coeffs": list(table._coeffs(u, w))}
         for u in np.flatnonzero(table._leq[:, w]).tolist()
         if u != w]
        for w in range(len(table.perms))
    ]
    return [rows for rows in columns if rows]


def _reference_dump(table, as_json: bool) -> str:
    """The dump as it was built before it was streamed: a list of dicts,
    then one ``json.dumps`` or one ``print`` per row."""
    triples = [row for rows in _reference_columns(table) for row in rows]
    out = io.StringIO()
    if as_json:
        print(json.dumps({"n": table.n, "polynomials": triples}, sort_keys=True), file=out)
    else:
        for entry in triples:
            print(entry["u"], entry["v"], entry["coeffs"], file=out)
        print("pairs:", len(triples), file=out)
    return out.getvalue()


class _Writes(list):
    """A stream that keeps every string written to it, one item per write."""

    write = list.append


class TestDump:
    def test_json_triples_shape(self):
        table = kl_table(3)
        out = io.StringIO()
        table.dump_triples(out, as_json=True)
        triples = json.loads(out.getvalue())["polynomials"]
        assert all(set(t) == {"u", "v", "coeffs"} for t in triples)
        assert all(t["coeffs"] == [1] for t in triples)

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize("n", range(7))
    def test_stream_matches_the_list_of_dicts(self, n, as_json):
        table = kl_table(n)
        out = io.StringIO()
        pairs = table.dump_triples(out, as_json)
        assert pairs == table.comparable_pairs() - len(table.perms)
        if not as_json:
            print("pairs:", pairs, file=out)
        assert out.getvalue() == _reference_dump(table, as_json)

    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    @pytest.mark.parametrize("n", range(7))
    def test_one_write_per_column(self, n, as_json):
        """The dump is streamed: one write per column that has rows, plus the
        document's head and foot in JSON, and no write holds more than its
        own column's rows (after the ", " that joins it to the one before)."""
        table = kl_table(n)
        writes = _Writes()
        table.dump_triples(writes, as_json)
        if as_json:
            head, *writes, foot = writes
            assert (head, foot) == (f'{{"n": {n}, "polynomials": [', "]}\n")
            columns = [", ".join(json.dumps(row, sort_keys=True) for row in rows)
                       for rows in _reference_columns(table)]
        else:
            columns = ["".join(f"{row['u']} {row['v']} {row['coeffs']}\n" for row in rows)
                       for rows in _reference_columns(table)]
        assert len(writes) == len(columns)
        joiner = len(", ") if as_json else 0
        assert all(len(w) <= len(rows) + joiner for w, rows in zip(writes, columns))


class TestStepRows:
    """The copy steps' table is filled row by row on first use."""

    @staticmethod
    def full_row(neighbours, dw):
        """Entry du: the neighbour list of the lowest s_i in dw but not in du."""
        return [next((neighbours[i] for i in range(len(neighbours)) if dw >> i & 1 and not du >> i & 1),
                     None)
                for du in range(1 << len(neighbours))]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_used_rows_match_the_full_table(self, n, monkeypatch):
        built = []

        class Recording(klcells._StepTable):
            def __init__(self, neighbours):
                super().__init__(neighbours)
                built.append((neighbours, self))

        monkeypatch.setattr(klcells, "_StepTable", Recording)
        for size in range(n):
            for descents in combinations(range(1, n), size):
                built.clear()
                table = KLTable(n, frozenset(descents))
                (left, lrows), (right, rrows) = built
                assert left is table._left and right is table._right
                assert set(lrows) <= set(table._ldesc) and set(rrows) <= set(table._rdesc)
                for neighbours, rows in built:
                    for dw, row in rows.items():
                        expected = self.full_row(neighbours, dw)
                        assert len(row) == len(expected) and all(map(operator.is_, row, expected))
                if n == 6 and not descents:
                    assert 0 < len(lrows) < 1 << (n - 1)
