"""Alpha-beta communication cost model and collective algorithm selection.

The thread runtime exchanges messages at shared-memory speed, so raw wall
time says nothing about cluster behaviour.  Scaling benchmarks therefore
combine *measured message counts and volumes* (from
:class:`~repro.mpi.counters.CommCounters`) with a latency/bandwidth model:

    T_comm = alpha * n_messages + n_bytes / beta

Defaults approximate a commodity cluster interconnect of the paper's era
(~2 microsecond latency, ~2.5 GB/s effective bandwidth).  The absolute
numbers are configurable; the *shape* of scaling curves (who wins, where
crossovers fall) is what the reproduction relies on.

The same model drives the substrate's collective algorithm selection
(:meth:`~repro.mpi.comm.Intracomm.allreduce` and friends): for each
collective the classic algorithms have closed-form critical-path costs in
(alpha, beta, p, message size), and the cheapest candidate is picked per
call.  :func:`collective_costs` exposes the candidate table and
:func:`select_algorithm` the argmin, so benchmarks and CI can assert the
runtime's observed choice (the ``algorithm`` label on traces/metrics)
against the model's prediction.

A declared :class:`Topology` -- groups of communicator ranks sharing a
node -- adds hierarchical candidates that pay the cheap intra-node
``(intra_alpha, intra_beta)`` terms for the intra-group phases and the
inter-node terms only for the leader exchange.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["CostModel", "Topology", "FLAT", "COMMODITY_CLUSTER",
           "FAST_INTERCONNECT", "ETHERNET", "collective_costs",
           "select_algorithm", "COLLECTIVE_ALGORITHMS"]


@dataclass(frozen=True)
class CostModel:
    """Latency/bandwidth (alpha-beta) model of an interconnect.

    ``intra_alpha``/``intra_beta`` model the intra-node path (shared
    memory or a node-local bus) used by hierarchical collectives; they
    default to ``None``, meaning "same as the inter-node network", which
    makes hierarchical algorithms cost-neutral and thus never selected.
    """

    name: str
    alpha: float        # per-message latency, seconds
    beta: float         # bandwidth, bytes/second
    flop_rate: float = 2.0e9   # per-core useful FLOP/s for compute terms
    intra_alpha: Optional[float] = None  # intra-node latency, seconds
    intra_beta: Optional[float] = None   # intra-node bandwidth, bytes/s

    def comm_time(self, n_messages: int, n_bytes: int) -> float:
        """Projected communication time for a traffic total."""
        return self.alpha * n_messages + n_bytes / self.beta

    def intra_comm_time(self, n_messages: int, n_bytes: int) -> float:
        """Projected intra-node communication time for a traffic total."""
        alpha = self.alpha if self.intra_alpha is None else self.intra_alpha
        beta = self.beta if self.intra_beta is None else self.intra_beta
        return alpha * n_messages + n_bytes / beta

    def compute_time(self, n_flops: float) -> float:
        return n_flops / self.flop_rate

    def total_time(self, n_messages: int, n_bytes: int,
                   n_flops: float) -> float:
        return self.comm_time(n_messages, n_bytes) + \
            self.compute_time(n_flops)


COMMODITY_CLUSTER = CostModel("commodity-cluster", alpha=2.0e-6,
                              beta=2.5e9, intra_alpha=0.3e-6,
                              intra_beta=8.0e9)
FAST_INTERCONNECT = CostModel("fast-interconnect", alpha=0.5e-6,
                              beta=12.0e9, intra_alpha=0.2e-6,
                              intra_beta=20.0e9)
ETHERNET = CostModel("gigabit-ethernet", alpha=50.0e-6, beta=0.125e9,
                     intra_alpha=0.3e-6, intra_beta=8.0e9)


@dataclass(frozen=True)
class Topology:
    """Declared node topology: groups of communicator ranks per node.

    ``intra_node_groups`` is a sequence of rank groups; together the
    groups must partition ``range(p)`` of the communicator they are used
    with.  An empty tuple (the default, also available as
    :data:`FLAT`), a single all-ranks group, or all-singleton groups all
    mean "no exploitable hierarchy" (:attr:`is_flat`).

    Example: 8 ranks on 2 four-core nodes::

        Topology(intra_node_groups=[(0, 1, 2, 3), (4, 5, 6, 7)])
    """

    intra_node_groups: Tuple[Tuple[int, ...], ...] = field(
        default_factory=tuple)

    def __post_init__(self):
        norm = tuple(tuple(sorted(int(r) for r in g))
                     for g in self.intra_node_groups)
        norm = tuple(sorted((g for g in norm if g),
                            key=lambda g: g[0]))
        object.__setattr__(self, "intra_node_groups", norm)

    @property
    def nranks(self) -> int:
        return sum(len(g) for g in self.intra_node_groups)

    @property
    def is_flat(self) -> bool:
        groups = self.intra_node_groups
        return len(groups) <= 1 or all(len(g) == 1 for g in groups)

    def validate(self, p: int) -> None:
        """Raise ``ValueError`` unless the groups partition ``range(p)``."""
        seen = [r for g in self.intra_node_groups for r in g]
        if sorted(seen) != list(range(p)):
            raise ValueError(
                f"topology groups {self.intra_node_groups!r} do not "
                f"partition ranks 0..{p - 1}")

    def groups_for(self, p: int) -> Optional[List[List[int]]]:
        """Sorted group lists when usable for a size-*p* comm, else None.

        "Usable" means non-flat and an exact partition of ``range(p)``;
        a topology declared for a different communicator size degrades
        to flat rather than mis-routing a hierarchical exchange.
        """
        if self.is_flat:
            return None
        try:
            self.validate(p)
        except ValueError:
            return None
        return [list(g) for g in self.intra_node_groups]


FLAT = Topology()


# ----------------------------------------------------------------------
# collective algorithm cost formulas
# ----------------------------------------------------------------------

#: Every algorithm label each adaptive collective may legally record in
#: its trace span / metrics labels.  ``local`` is the p == 1 shortcut.
COLLECTIVE_ALGORITHMS: Dict[str, Tuple[str, ...]] = {
    "allreduce": ("local", "reduce+bcast", "recursive-doubling", "ring",
                  "rabenseifner", "hierarchical"),
    "bcast": ("local", "binomial-tree", "scatter-allgather",
              "hierarchical"),
    "reduce": ("local", "binomial-tree", "rank-ordered-tree",
               "gather-fold", "ring"),
}


def _ceil_lg(p: int) -> int:
    return (p - 1).bit_length() if p > 1 else 0


def _is_pow2(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


def _group_shape(topology: Optional[Topology],
                 p: int) -> Optional[Tuple[int, int]]:
    """(n_groups, max_group_size) of a usable topology, else None."""
    if topology is None:
        return None
    groups = topology.groups_for(p)
    if groups is None:
        return None
    return len(groups), max(len(g) for g in groups)


def collective_costs(coll: str, p: int, nbytes: int, model: CostModel,
                     topology: Optional[Topology] = None,
                     commutative: bool = True,
                     count: Optional[int] = None) -> Dict[str, float]:
    """Critical-path cost of every eligible algorithm for one call.

    ``count`` is the element count of the payload when it is sliceable
    (the buffer path always knows it); segmented algorithms (ring,
    rabenseifner, scatter-allgather) need ``count >= p`` to have a
    non-empty block per rank and are excluded otherwise.  Costs are
    seconds under *model*; the argmin is what the substrate executes.
    """
    if coll not in COLLECTIVE_ALGORITHMS:
        raise ValueError(f"unknown collective {coll!r}")
    if p == 1:
        return {"local": 0.0}
    a, beta = model.alpha, model.beta
    nb = nbytes / beta
    lg = _ceil_lg(p)
    # non-power-of-two fold: the surplus ranks pay one fold-in exchange
    # and one result return, each a full-vector message
    pen = 0.0 if _is_pow2(p) else 2.0 * (a + nb)
    seg = count is not None and count >= p
    bw_seg = 2.0 * (p - 1) / p * nb   # reduce-scatter + allgather volume
    shape = _group_shape(topology, p)
    costs: Dict[str, float] = {}

    if coll == "allreduce":
        costs["reduce+bcast"] = 2 * lg * (a + nb)
        if commutative:
            costs["recursive-doubling"] = lg * (a + nb) + pen
            if seg:
                costs["ring"] = 2 * (p - 1) * a + bw_seg
                costs["rabenseifner"] = 2 * lg * a + bw_seg + pen
            if shape is not None:
                ngroups, gmax = shape
                lgl = _ceil_lg(ngroups)
                penl = 0.0 if _is_pow2(ngroups) else 2.0 * (a + nb)
                intra = model.intra_comm_time(2 * _ceil_lg(gmax),
                                              2 * _ceil_lg(gmax) * nbytes)
                costs["hierarchical"] = intra + lgl * (a + nb) + penl
    elif coll == "bcast":
        costs["binomial-tree"] = lg * (a + nb)
        if seg:
            costs["scatter-allgather"] = (lg + p - 1) * a + bw_seg
        if shape is not None:
            ngroups, gmax = shape
            costs["hierarchical"] = (
                _ceil_lg(ngroups) * (a + nb)
                + model.intra_comm_time(_ceil_lg(gmax),
                                        _ceil_lg(gmax) * nbytes))
    elif coll == "reduce":
        if commutative:
            costs["binomial-tree"] = lg * (a + nb)
            if seg:
                # ring reduce-scatter, then the p-1 owned blocks hop to
                # the root (its receive serializes the latency terms)
                costs["ring"] = 2 * (p - 1) * a + bw_seg
        else:
            # rank-ordered binomial fold to rank 0 plus a root forward
            costs["rank-ordered-tree"] = lg * (a + nb) + (a + nb)
    return costs


@functools.lru_cache(maxsize=1024)
def select_algorithm(coll: str, p: int, nbytes: int, model: CostModel,
                     topology: Optional[Topology] = None,
                     commutative: bool = True,
                     count: Optional[int] = None) -> str:
    """The cheapest eligible algorithm for one collective call.

    Deterministic in its arguments (ties break on the algorithm name),
    which is what makes per-call selection SPMD-safe: every rank feeds
    in the same (p, size, model, topology) and lands on the same
    algorithm.  Memoized on its exact arguments (``CostModel`` and
    ``Topology`` are frozen, hence hashable): the argmin runs on every
    control bcast and every reduction, almost always with the same
    arguments.
    """
    costs = collective_costs(coll, p, nbytes, model, topology=topology,
                             commutative=commutative, count=count)
    return min(costs.items(), key=lambda kv: (kv[1], kv[0]))[0]


def crossover_size(coll: str, algo_small: str, algo_large: str, p: int,
                   model: CostModel, topology: Optional[Topology] = None,
                   commutative: bool = True,
                   itemsize: int = 8, max_bytes: int = 1 << 26) -> Optional[int]:
    """Approximate message size (bytes) where *algo_large* overtakes
    *algo_small*, by bisection over the cost formulas; None if it never
    does below *max_bytes*.  Used by the ablation bench to place its
    size sweep on both sides of the predicted crossover."""
    def winner(nbytes):
        costs = collective_costs(
            coll, p, nbytes, model, topology=topology,
            commutative=commutative, count=max(p, nbytes // itemsize))
        if algo_small not in costs or algo_large not in costs:
            return None
        return costs[algo_small] <= costs[algo_large]
    lo, hi = 1, max_bytes
    if winner(lo) is None or not winner(lo) or winner(hi):
        return None
    for _ in range(60):
        mid = (lo + hi) // 2
        if winner(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1:
            break
    return hi
