"""Grid-bucket prefilter soundness (`repro.geo.buckets`).

The prefilter is only allowed to *skip* pairs that provably cannot
conflict; dropping a true conflict pair would silently change the round
result.  These tests pin the soundness argument — adjacency covers every
|Δ| < 2λ pair, including SUs straddling bucket edges — and the output
order contract :func:`build_conflict_graph` and the in-process round
rely on.
"""

import itertools
import random

import pytest

from repro.auction.conflict import build_conflict_graph, cells_conflict
from repro.geo.buckets import bucket_index, bucket_of, candidate_pairs


def brute_force_conflicts(cells, two_lambda):
    return {
        (i, j)
        for i, j in itertools.combinations(range(len(cells)), 2)
        if cells_conflict(cells[i], cells[j], two_lambda)
    }


class TestBucketOf:
    def test_floor_division(self):
        assert bucket_of((0, 0), 6) == (0, 0)
        assert bucket_of((5, 11), 6) == (0, 1)
        assert bucket_of((6, 12), 6) == (1, 2)

    def test_rejects_nonpositive_two_lambda(self):
        with pytest.raises(ValueError):
            bucket_of((0, 0), 0)


class TestBucketIndex:
    def test_groups_in_id_order(self):
        cells = [(0, 0), (1, 1), (40, 40), (0, 1)]
        index = bucket_index(cells, 6)
        assert index[(0, 0)] == [0, 1, 3]
        assert index[(6, 6)] == [2]


class TestCandidatePairs:
    def test_is_superset_of_true_conflicts(self):
        rng = random.Random(7)
        cells = [(rng.randrange(50), rng.randrange(50)) for _ in range(120)]
        candidates = set(candidate_pairs(cells, 6))
        assert brute_force_conflicts(cells, 6) <= candidates

    def test_pairs_are_ordered_and_unique(self):
        rng = random.Random(8)
        cells = [(rng.randrange(30), rng.randrange(30)) for _ in range(60)]
        pairs = list(candidate_pairs(cells, 4))
        assert len(pairs) == len(set(pairs))
        assert all(i < j for i, j in pairs)
        # Grouped by the lower id ascending, second id ascending within.
        assert pairs == sorted(pairs)

    def test_never_drops_bucket_edge_straddlers(self):
        """SUs in adjacent buckets at |Δ| = 2λ - 1 must stay candidates."""
        two_lambda = 6
        # (5, 5) is the last cell of bucket (0, 0); (10, 10) lands in
        # bucket (1, 1); their deltas are 5 = 2λ - 1 < 2λ on both axes, so
        # they *do* conflict while sitting in different buckets.
        cells = [(5, 5), (10, 10)]
        assert cells_conflict(cells[0], cells[1], two_lambda)
        assert bucket_of(cells[0], two_lambda) != bucket_of(cells[1], two_lambda)
        assert (0, 1) in set(candidate_pairs(cells, two_lambda))

    @pytest.mark.parametrize("two_lambda", [1, 2, 3, 6, 7])
    def test_exhaustive_small_grid(self, two_lambda):
        """Every pair on a small grid: prefilter+predicate == brute force."""
        side = 4 * two_lambda + 2
        cells = [(m, n) for m in range(0, side, 3) for n in range(0, side, 3)]
        filtered = {
            (i, j)
            for i, j in candidate_pairs(cells, two_lambda)
            if cells_conflict(cells[i], cells[j], two_lambda)
        }
        brute = brute_force_conflicts(cells, two_lambda)
        assert filtered == brute
        assert build_conflict_graph(cells, two_lambda).edges == brute

    def test_cuts_pair_count_on_sparse_population(self):
        """The point of the prefilter: far fewer candidates than N(N-1)/2."""
        rng = random.Random(9)
        cells = [(rng.randrange(400), rng.randrange(400)) for _ in range(400)]
        n_all = 400 * 399 // 2
        assert len(list(candidate_pairs(cells, 6))) < n_all / 10
