from itertools import permutations as itertools_permutations

import pytest

from cyclosieve import (
    Partition,
    Permutation,
    Tableau,
    cycle_type,
    descent_set,
    enumerate_syt,
    long_cycle,
    long_element,
    rsk_inverse,
)
from oracles.jeudetaquin import evacuate
from oracles.permutations import bruhat_leq, inverse, left_descents, length, right_descents, rsk, simple


def all_perms(n):
    return [Permutation(p) for p in itertools_permutations(range(1, n + 1))]


class TestPermutationBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_composition_convention(self):
        # (u * v)(i) = u(v(i)): left factor acts on values
        w = Permutation((2, 3, 1))
        s1 = simple(1, 3)
        assert (s1 * w) == Permutation((1, 3, 2))  # swaps the values 1, 2
        assert (w * s1) == Permutation((3, 2, 1))  # swaps the first two positions

    def test_long_cycle(self):
        c = long_cycle(4)
        assert c == Permutation((2, 3, 4, 1))
        # c = s_1 s_2 s_3 under the value-acting convention
        assert simple(1, 4) * simple(2, 4) * simple(3, 4) == c

    def test_length_and_descents(self):
        w = Permutation((6, 2, 3, 4, 1, 5))
        assert length(w) == sum(
            1 for i in range(6) for j in range(i + 1, 6) if w[i] > w[j]
        )
        assert left_descents(w) == right_descents(inverse(w))

    def test_trivial_descents(self):
        identity = Permutation((1, 2, 3, 4))
        for w, expected in ((identity, frozenset()), (long_element(4), frozenset({1, 2, 3}))):
            assert left_descents(w) == right_descents(w) == expected

    def test_cycle_type(self):
        assert cycle_type(long_element(4)) == Partition((2, 2))
        assert cycle_type(long_element(5)) == Partition((2, 2, 1))
        assert cycle_type(long_element(4) * long_cycle(4)) == Partition((2, 1, 1))
        assert cycle_type(long_element(5) * long_cycle(5)) == Partition((2, 2, 1))


class TestBruhat:
    def _brute_force_leq(self, n):
        """Transitive closure of the reflection covers."""
        perms = all_perms(n)
        leq = {(u, u) for u in perms}
        covers = []
        for u in perms:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    t = list(range(1, n + 1))
                    t[i - 1], t[j - 1] = j, i
                    v = u * Permutation(t)
                    if length(v) == length(u) + 1:
                        covers.append((u, v))
        changed = True
        leq.update(covers)
        while changed:
            changed = False
            for (a, b) in covers:
                for (c, d) in list(leq):
                    if d == a and (c, b) not in leq:
                        leq.add((c, b))
                        changed = True
        return leq

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank_criterion_matches_brute_force(self, n):
        oracle = self._brute_force_leq(n)
        for u in all_perms(n):
            for v in all_perms(n):
                assert bruhat_leq(u, v) == ((u, v) in oracle), (u, v)

    def test_extremes(self):
        for w in all_perms(4):
            assert bruhat_leq(Permutation((1, 2, 3, 4)), w)
            assert bruhat_leq(w, long_element(4))

    def test_s3_example(self):
        assert bruhat_leq(Permutation((2, 1, 3)), Permutation((2, 3, 1)))


class TestRsk:
    def test_display_623415(self):
        p, q = rsk(Permutation((6, 2, 3, 4, 1, 5)))
        assert p.rows == ((1, 3, 4, 5), (2,), (6,))
        assert q.rows == ((1, 3, 4, 6), (2,), (5,))
        assert p.shape == Partition((4, 1, 1))

    def test_identity_and_reversal(self):
        p, q = rsk(Permutation((1, 2, 3, 4, 5)))
        assert p.shape == Partition((5,)) and p == q
        p, q = rsk(long_element(4))
        assert p.shape == Partition((1, 1, 1, 1))

    def test_round_trip_up_to_6(self):
        for n in range(1, 7):
            for w in all_perms(n):
                p, q = rsk(w)
                assert rsk_inverse(p, q) == w

    def test_inverse_pairs_of_shape_22(self):
        tabs = enumerate_syt(Partition((2, 2)))
        for p in tabs:
            for q in tabs:
                w = rsk_inverse(p, q)
                assert rsk(w) == (p, q)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rsk_inverse(
                Tableau([(1, 2), (3, 4)]), Tableau([(1, 2, 3), (4,)])
            )

    def test_inverse_and_long_element_twists_up_to_5(self):
        for n in range(1, 6):
            wo = long_element(n)
            for w in all_perms(n):
                p, q = rsk(w)
                # 1. inverse swaps the tableaux
                assert rsk(inverse(w)) == (q, p)
                # 2-4. long-element twists give conjugate evacuations; under
                # value-side composition the reversal attaches on the right
                # for the recording tableau and on the left for insertion
                pw, qw = rsk(w * wo)
                assert pw == p.transpose() and qw == evacuate(q, n).transpose()
                pw, qw = rsk(wo * w)
                assert pw == evacuate(p, n).transpose() and qw == q.transpose()
                pw, qw = rsk(wo * w * wo)
                assert pw == evacuate(p, n) and qw == evacuate(q, n)
                # 5-6. descent sets match the tableaux
                dl, dr = left_descents(w), right_descents(w)
                assert dl == descent_set(p)
                assert dr == descent_set(q)

    @pytest.mark.parametrize("n", range(8))
    def test_recording_tableau_has_the_descents_of_w(self, n):
        """Des(Q(w)) = Des(w), the i with w_i > w_(i+1) (Stanley, EC2 Lemma
        7.23.1): ``kl immanants`` reads each descent mask straight off w."""
        for w in all_perms(n):
            assert descent_set(rsk(w)[1]) == frozenset(i for i in range(1, n) if w[i - 1] > w[i]), w

    def test_knuth_classes_partition_by_insertion_tableau(self):
        for n in range(1, 6):
            fibers = {}
            for w in all_perms(n):
                fibers.setdefault(rsk(w)[0].rows, set()).add(w)
            for shape_tabs in fibers.values():
                assert len(shape_tabs) == len({rsk(w)[1].rows for w in shape_tabs})


class TestReadingWord:
    def test_insertion_recovers_tableau(self):
        """RSK insertion of the column reading word (each column bottom to
        top, left to right) gives back the tableau."""
        for lam in [(3, 1), (2, 2, 2), (3, 2), (4, 2, 1)]:
            for t in enumerate_syt(Partition(lam)):
                word = [x for col in t.transpose().rows for x in reversed(col)]
                assert rsk(Permutation(word))[0] == t
