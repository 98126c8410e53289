"""Alpha-beta cost model and collective algorithm selection tests."""

import pytest

from repro.mpi import (COLLECTIVE_ALGORITHMS, COMMODITY_CLUSTER, ETHERNET,
                       FAST_INTERCONNECT, FLAT, CostModel, Topology,
                       collective_costs, crossover_size, select_algorithm)


class TestCostModel:
    def test_latency_dominates_small_messages(self):
        m = COMMODITY_CLUSTER
        many_small = m.comm_time(n_messages=1000, n_bytes=1000)
        one_big = m.comm_time(n_messages=1, n_bytes=1000)
        assert many_small > one_big

    def test_bandwidth_dominates_large_messages(self):
        m = COMMODITY_CLUSTER
        t = m.comm_time(n_messages=1, n_bytes=10**9)
        assert t == pytest.approx(m.alpha + 10**9 / m.beta)
        assert t > 0.1  # ~0.4s at 2.5 GB/s

    def test_interconnect_ordering(self):
        msgs, nbytes = 100, 10**7
        assert FAST_INTERCONNECT.comm_time(msgs, nbytes) < \
            COMMODITY_CLUSTER.comm_time(msgs, nbytes) < \
            ETHERNET.comm_time(msgs, nbytes)

    def test_total_time_includes_compute(self):
        m = CostModel("test", alpha=1e-6, beta=1e9, flop_rate=1e9)
        assert m.total_time(0, 0, 1e9) == pytest.approx(1.0)
        assert m.total_time(1, 1e9, 1e9) == pytest.approx(2.0 + 1e-6)

    def test_frozen(self):
        with pytest.raises(Exception):
            COMMODITY_CLUSTER.alpha = 0.0

    def test_intra_node_terms_default_to_network(self):
        m = CostModel("bare", alpha=1e-6, beta=1e9)
        assert m.intra_comm_time(3, 3000) == m.comm_time(3, 3000)
        fast = CostModel("fast", alpha=1e-6, beta=1e9,
                         intra_alpha=1e-7, intra_beta=1e10)
        assert fast.intra_comm_time(3, 3000) < fast.comm_time(3, 3000)


class TestTopology:
    def test_flat_variants(self):
        assert FLAT.is_flat
        assert Topology(intra_node_groups=[(0, 1, 2, 3)]).is_flat
        assert Topology(intra_node_groups=[(0,), (1,), (2,)]).is_flat
        assert not Topology(intra_node_groups=[(0, 1), (2, 3)]).is_flat

    def test_normalization(self):
        t = Topology(intra_node_groups=[(3, 2), (), (1, 0)])
        assert t.intra_node_groups == ((0, 1), (2, 3))
        assert t.nranks == 4

    def test_validate(self):
        t = Topology(intra_node_groups=[(0, 1), (2, 3)])
        t.validate(4)
        with pytest.raises(ValueError):
            t.validate(5)
        with pytest.raises(ValueError):
            Topology(intra_node_groups=[(0, 1), (1, 2)]).validate(3)

    def test_groups_for_degrades_to_flat_on_mismatch(self):
        t = Topology(intra_node_groups=[(0, 1), (2, 3)])
        assert t.groups_for(4) == [[0, 1], [2, 3]]
        assert t.groups_for(6) is None
        assert FLAT.groups_for(4) is None


class TestSelection:
    P = 8
    M = COMMODITY_CLUSTER

    def test_p1_is_local(self):
        for coll in COLLECTIVE_ALGORITHMS:
            assert select_algorithm(coll, 1, 10**6, self.M) == "local"

    def test_small_allreduce_prefers_recursive_doubling(self):
        assert select_algorithm("allreduce", self.P, 64, self.M,
                                count=8) == "recursive-doubling"

    def test_large_allreduce_prefers_segmented(self):
        algo = select_algorithm("allreduce", self.P, 8 * 10**6, self.M,
                                count=10**6)
        assert algo in ("ring", "rabenseifner")

    def test_noncommutative_allreduce_is_reduce_bcast(self):
        assert select_algorithm("allreduce", self.P, 8 * 10**6, self.M,
                                commutative=False,
                                count=10**6) == "reduce+bcast"

    def test_small_bcast_prefers_binomial(self):
        assert select_algorithm("bcast", self.P, 64, self.M,
                                count=8) == "binomial-tree"

    def test_large_bcast_prefers_scatter_allgather(self):
        assert select_algorithm("bcast", self.P, 8 * 10**6, self.M,
                                count=10**6) == "scatter-allgather"

    def test_noncommutative_reduce_is_rank_ordered(self):
        assert select_algorithm("reduce", self.P, 64, self.M,
                                commutative=False) == "rank-ordered-tree"

    def test_segmented_needs_count(self):
        costs = collective_costs("allreduce", self.P, 8 * 10**6, self.M)
        assert "ring" not in costs and "rabenseifner" not in costs

    def test_topology_enables_hierarchical(self):
        topo = Topology(intra_node_groups=[(0, 1, 2, 3), (4, 5, 6, 7)])
        costs = collective_costs("allreduce", self.P, 256, self.M,
                                 topology=topo)
        assert "hierarchical" in costs
        # with a cheap intra-node path, hierarchy beats flat
        # recursive doubling at small sizes
        assert costs["hierarchical"] < costs["recursive-doubling"]
        flat_costs = collective_costs("allreduce", self.P, 256, self.M)
        assert "hierarchical" not in flat_costs

    def test_crossover_matches_formulas(self):
        # recursive-doubling loses to rabenseifner once the bandwidth
        # saving beats the extra latency: n* = lg * alpha * beta /
        # (lg - 2 + 2/p) for power-of-two p
        lg, p = 3, self.P
        predicted = lg * self.M.alpha * self.M.beta / (lg - 2 + 2 / p)
        found = crossover_size("allreduce", "recursive-doubling",
                               "rabenseifner", p, self.M)
        assert found is not None
        assert found == pytest.approx(predicted, rel=0.01)
        small = select_algorithm("allreduce", p, found // 2, self.M,
                                 count=found // 16)
        large = select_algorithm("allreduce", p, 4 * found, self.M,
                                 count=found // 2)
        assert small == "recursive-doubling"
        assert large in ("rabenseifner", "ring")

    def test_selection_is_deterministic(self):
        for nbytes in (1, 100, 10**4, 10**6):
            a = select_algorithm("allreduce", 6, nbytes, self.M,
                                 count=max(6, nbytes // 8))
            b = select_algorithm("allreduce", 6, nbytes, self.M,
                                 count=max(6, nbytes // 8))
            assert a == b

    def test_unknown_collective_raises(self):
        with pytest.raises(ValueError):
            collective_costs("allgather", 4, 100, self.M)

    def test_memoized_choice_equals_uncached_argmin(self):
        topo = Topology(intra_node_groups=[(0, 1, 2, 3), (4, 5, 6, 7)])
        hits = select_algorithm.cache_info().hits
        checked = 0
        for coll in COLLECTIVE_ALGORITHMS:
            for p in (1, 2, 3, 4, 7, 8):
                for nbytes in (1, 64, 10**4, 10**6, 8 * 10**7):
                    for commutative in (True, False):
                        for model in (self.M, ETHERNET):
                            for count in (None, nbytes // 8):
                                args = (coll, p, nbytes, model)
                                kw = dict(topology=topo if p == 8 else None,
                                          commutative=commutative,
                                          count=count)
                                costs = collective_costs(*args, **kw)
                                argmin = min(costs, key=lambda a: (
                                    costs[a], a))
                                for _ in range(2):  # miss, then cached
                                    assert select_algorithm(*args, **kw) \
                                        == argmin, (args, kw)
                                checked += 1
        assert checked == 3 * 6 * 5 * 2 * 2 * 2
        assert select_algorithm.cache_info().hits >= hits + checked
