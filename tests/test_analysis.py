"""Unit tests for similarity, k-medoids and statistics."""

import math

import numpy as np
import pytest

from repro.analysis import (
    digit_similarity,
    distance_matrix,
    estimated_signature_bits,
    estimated_signature_cardinality,
    greedy_chain,
    k_medoids,
    limit_study,
    rf_distance,
    uniqueness,
)
from repro.analysis.similarity import _GREEDY_CAP
from repro.checker import PackedPlan
from repro.graph import GraphBuilder
from repro.isa import INIT
from repro.sim import OperationalExecutor
from repro.mcm import SC, get_model
from repro.testgen import TestConfig, generate
from tests.differential import run_unique_signatures


class TestRfDistance:
    def test_identical_is_zero(self):
        rf = {1: 5, 2: INIT}
        assert rf_distance(rf, dict(rf)) == 0

    def test_counts_differing_loads(self):
        a = {1: 5, 2: INIT, 3: 7}
        b = {1: 5, 2: 9, 3: 8}
        assert rf_distance(a, b) == 2

    def test_mismatched_loads_rejected(self):
        with pytest.raises(ValueError):
            rf_distance({1: 5}, {2: 5})

    def test_matrix_matches_pairwise(self):
        rfs = [{1: 5, 2: INIT}, {1: 5, 2: 9}, {1: 6, 2: 9}]
        m = distance_matrix(rfs)
        for i in range(3):
            for j in range(3):
                assert m[i, j] == rf_distance(rfs[i], rfs[j])

    def test_matrix_empty(self):
        assert distance_matrix([]).shape == (0, 0)

    def test_matrix_symmetric_zero_diagonal(self):
        p = generate(TestConfig(threads=2, ops_per_thread=20, addresses=4, seed=2))
        ex = OperationalExecutor(p, SC, seed=1, uniform_random=True)
        rfs = [e.rf for e in ex.run(30)]
        m = distance_matrix(rfs)
        assert (m == m.T).all()
        assert (np.diag(m) == 0).all()


def _plan(cfg, iterations):
    program, codec, signatures = run_unique_signatures(cfg, iterations)
    builder = GraphBuilder(program, get_model("weak"), ws_mode="static")
    return PackedPlan(codec, builder, signatures)


class TestDigitSimilarity:
    def test_bucket_order_is_permutation(self):
        plan = _plan(TestConfig(isa="arm", threads=2, ops_per_thread=20,
                                addresses=8, seed=6), 150)
        order = greedy_chain(plan.digit_rows)
        assert order[0] == 0
        assert sorted(order) == list(range(len(plan)))

    def test_bucket_order_reduces_transitions(self):
        # the greedy chain may only tie the sorted order on degenerate
        # blocks; on a real campaign it must not be worse
        plan = _plan(TestConfig(isa="arm", threads=3, ops_per_thread=30,
                                addresses=8, seed=11), 300)
        similarity = digit_similarity(plan.digit_rows, plan.digit_columns)
        assert similarity["signatures"] == len(plan)
        assert similarity["digit_columns"] == len(plan.digit_rows[0])
        assert similarity["sorted_digits_changed"] == \
            plan.digits_changed_total
        assert similarity["bucket_digits_changed"] <= \
            similarity["sorted_digits_changed"]

    def test_chain_follows_most_shared_digits(self):
        rows = [[0, 0, 0], [1, 1, 1], [0, 0, 1], [1, 1, 0]]
        assert greedy_chain(rows) == [0, 2, 1, 3]
        assert digit_similarity(rows, 3) == {
            "signatures": 4, "digit_columns": 3,
            "sorted_digits_changed": 8, "bucket_digits_changed": 4}

    def test_single_and_empty_blocks(self):
        assert greedy_chain([[1, 2]]) == [0]
        assert digit_similarity([[1, 2]], 2)["bucket_digits_changed"] == 0
        assert digit_similarity([], 5) == {
            "signatures": 0, "digit_columns": 5,
            "sorted_digits_changed": 0, "bucket_digits_changed": 0}

    def test_large_blocks_keep_sorted_order(self):
        rows = [[i % 2] for i in range(_GREEDY_CAP + 1)]
        assert greedy_chain(rows) == list(range(len(rows)))


class TestKMedoids:
    def _matrix(self):
        p = generate(TestConfig(threads=2, ops_per_thread=20, addresses=4, seed=2))
        ex = OperationalExecutor(p, SC, seed=1, uniform_random=True)
        rfs = [e.rf for e in ex.run(80)]
        return distance_matrix(rfs)

    def test_total_distance_decreases_with_k(self):
        """Figure 6's defining property."""
        m = self._matrix()
        series = limit_study(m, ks=(1, 2, 5, 10, 30))
        totals = [t for _, t in series]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_k_equal_n_gives_zero(self):
        m = self._matrix()
        assert k_medoids(m, m.shape[0]).total_distance == 0

    def test_assignment_points_to_closest_medoid(self):
        m = self._matrix()
        result = k_medoids(m, 5, seed=3)
        for i, cluster in enumerate(result.assignment):
            d_assigned = m[i, result.medoids[cluster]]
            best = min(m[i, mm] for mm in result.medoids)
            assert d_assigned == best

    def test_empty_input(self):
        result = k_medoids(np.zeros((0, 0), dtype=np.int32), 3)
        assert result.k == 0 and result.total_distance == 0

    def test_k_clamped_to_n(self):
        m = np.array([[0, 1], [1, 0]])
        assert k_medoids(m, 10).k == 2

    def test_mean_distance(self):
        m = np.array([[0, 2], [2, 0]])
        r = k_medoids(m, 1, seed=0)
        assert r.mean_distance == r.total_distance / 2


class TestCardinalityEstimate:
    def test_paper_example_is_2_to_68(self):
        """S=L=50, A=32, T=2 -> ~2.7e20 ~ 2^68 (paper Section 3.2)."""
        est = estimated_signature_cardinality(50, 50, 32, 2)
        assert 67 <= math.log2(est) <= 69

    def test_single_thread_has_one_outcome(self):
        assert estimated_signature_cardinality(50, 50, 32, 1) == 1.0

    def test_bits_scale_with_threads(self):
        two = estimated_signature_bits(TestConfig(threads=2))
        seven = estimated_signature_bits(TestConfig(threads=7))
        assert seven > two

    def test_bits_shrink_with_more_addresses(self):
        few = estimated_signature_bits(TestConfig(threads=4, addresses=32))
        many = estimated_signature_bits(TestConfig(threads=4, addresses=128))
        assert many < few


class TestUniqueness:
    def test_fraction(self):
        from repro.harness import Campaign

        campaign = Campaign(config=TestConfig(threads=2, ops_per_thread=15,
                                              addresses=8, seed=3), seed=1)
        result = campaign.run(50)
        stats = uniqueness(result)
        assert stats.iterations == 50
        assert 0 < stats.unique <= 50
        assert stats.fraction == stats.unique / 50
