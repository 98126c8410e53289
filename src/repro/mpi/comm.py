"""Communicators: point-to-point and collective operations.

The interface follows mpi4py's conventions (see the tutorial the substrate
guides reference): lowercase methods communicate arbitrary picklable Python
objects; uppercase methods communicate NumPy buffers with near-zero
interpretation overhead.  Collectives are implemented *on top of* the
point-to-point layer with the classic algorithms (binomial trees, rings,
recursive doubling, pairwise exchange, dissemination barrier) so that
message counters reflect genuine algorithmic traffic rather than magic
shared-memory shortcuts.

Broadcast, reduce and allreduce are *adaptive*: each call picks the
cheapest algorithm for its message size, communicator size and declared
:class:`~repro.mpi.costmodel.Topology` under the active
:class:`~repro.mpi.costmodel.CostModel` (see
:func:`repro.mpi.costmodel.select_algorithm`).  The chosen algorithm is
recorded on the call's ``mpi.coll`` trace span, its ``mpi.coll.calls``
metric labels and the per-rank counters, so the selection is observable
and assertable.  Pass ``algorithm=`` to force a specific variant.
"""

from __future__ import annotations

import math
import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.core import ENGINE as _CH
from ..metrics import REGISTRY as _MX
from ..obs import causal as _CZ
from ..trace import TRACER as _TR
from . import ops as _ops
from .costmodel import (COLLECTIVE_ALGORITHMS, COMMODITY_CLUSTER, CostModel,
                        Topology, select_algorithm)
from .datatypes import decode_buffer_spec
from .errors import (CommRevokedError, RankError, RankFailure, TagError,
                     TruncationError)
from .request import RecvRequest, SendRequest
from .runtime import RankContext, _NOT_FAILED
from .status import ANY_SOURCE, ANY_TAG, Status

__all__ = ["Group", "Intracomm", "set_collective_tuning",
           "collective_label_catalogue"]


def _loads(msg):
    """Decode a received message, surfacing corruption as a typed error.

    ``pickle5`` messages carry their ndarray data as out-of-band frames;
    unpickling reconstructs arrays as *read-only views* of the frames (the
    sender's single isolation copy) -- zero additional copies on the
    receive side.  A payload truncated in flight (chaos injection, or any
    future real transport) fails to decode with an arbitrary
    ``UnpicklingError`` / ``EOFError`` / ``ValueError``; callers must
    instead see the substrate's own :class:`TruncationError` so tests and
    solvers can handle it.
    """
    try:
        if msg.kind == "pickle5":
            blob, frames = msg.payload
            return pickle.loads(blob, buffers=frames)
        return pickle.loads(msg.payload)
    except Exception as exc:
        raise TruncationError(
            f"received message payload failed to decode ({exc!r}); "
            f"payload was truncated or corrupted in flight") from exc


# ----------------------------------------------------------------------
# collective algorithm tuning (process-wide defaults)
# ----------------------------------------------------------------------

#: Cost model consulted by adaptive collectives when the communicator has
#: no instance-level override (:meth:`Intracomm.set_collective_tuning`).
_DEFAULT_COST_MODEL: CostModel = COMMODITY_CLUSTER
#: Declared node topology; ``None`` means flat (no hierarchy to exploit).
_DEFAULT_TOPOLOGY: Optional[Topology] = None

#: Object-path payloads have per-rank pickle sizes, which must never feed
#: the (SPMD-consistent) selection; without an explicit ``size_hint`` the
#: selection assumes a small message.
_OBJECT_SIZE_GUESS = 512


def set_collective_tuning(cost_model: Optional[CostModel] = None,
                          topology: Optional[Topology] = None) -> None:
    """Set the process-wide cost model / topology for adaptive collectives.

    Both are inherited by every communicator that has no instance-level
    override.  Pass :data:`~repro.mpi.costmodel.FLAT` to clear a topology.
    SPMD note: this mutates module state shared by all ranks of a thread
    world, so it is inherently SPMD-consistent; call it outside the SPMD
    region (or identically on every rank).
    """
    global _DEFAULT_COST_MODEL, _DEFAULT_TOPOLOGY
    if cost_model is not None:
        _DEFAULT_COST_MODEL = cost_model
    if topology is not None:
        _DEFAULT_TOPOLOGY = None if topology.is_flat else topology


def _block_bounds(n: int, m: int) -> List[Tuple[int, int]]:
    """Balanced split of ``n`` elements into ``m`` contiguous blocks."""
    base, extra = divmod(n, m)
    bounds = []
    start = 0
    for k in range(m):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def _traced_collective(default_algorithm: str):
    """Wrap a collective so each call records one span tagged with the
    algorithm it executed, counts the (op, algorithm) pair in the rank's
    wire counters, and (when metrics are on) counts calls and this rank's
    sent bytes per algorithm.  Static collectives are counted on entry,
    adaptive ones when they name their algorithm via
    :meth:`Intracomm._note_algorithm`, both before any message; a call
    that raises is taken back.  The label a call records is always the
    algorithm that actually ran."""
    def deco(fn):
        name = fn.__name__
        static = name in _STATIC_LABELS

        def wrapper(self, *args, **kwargs):
            if _CH.enabled:
                _CH.on_op("coll", self._ctx.rank)
            # entry guard: a collective over a revoked comm or a dead
            # member can never complete -- fail typed and immediately
            # rather than blocking until some recv inside the algorithm
            # happens to involve the dead rank (a root's bcast, for
            # instance, never receives at all)
            self._check_usable(name)
            ctrs = self._ctx.world.counters[self._ctx.rank]
            rec, mx = _TR.recording, _MX.enabled
            # plain attribute read: exactness not worth a lock here
            b0 = ctrs.bytes_sent if mx else 0
            t0 = _TR.now() if rec else 0.0
            # collectives issued while an ODIN control op executes inherit
            # its causal identity (None outside any tagged op)
            op_id = _CZ.current_op_id()
            notes = self._algo_notes
            note = [name, None, op_id]
            notes.append(note)
            try:
                if static:
                    self._note_algorithm(default_algorithm)
                out = fn(self, *args, **kwargs)
            except BaseException:
                if note[1] is not None:
                    ctrs.record_coll(name, note[1], op_id, -1)
                raise
            finally:
                notes.pop()
            algorithm = note[1]
            if rec:
                _TR.complete("mpi.coll", name, self._ctx.rank, t0,
                             algorithm=algorithm, size=self._size,
                             op_id=op_id)
            if mx:
                sent = ctrs.bytes_sent - b0
                _MX.inc("mpi.coll.calls", op=name, algorithm=algorithm)
                if sent > 0:
                    _MX.inc("mpi.coll.bytes_sent", sent, op=name,
                            algorithm=algorithm)
            return out

        wrapper.__name__ = name
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return deco


#: Algorithm label recorded by every non-adaptive collective, keyed by the
#: op name that appears in spans / metrics.  The adaptive ops (bcast,
#: reduce, allreduce and their buffer twins) instead draw labels from
#: :data:`~repro.mpi.costmodel.COLLECTIVE_ALGORITHMS`.
_STATIC_LABELS: Dict[str, str] = {
    "barrier": "dissemination",
    "scatter": "linear-root",
    "gather": "linear-root",
    "allgather": "ring",
    "alltoall": "pairwise-exchange",
    "scan": "linear-chain",
    "exscan": "linear-chain",
    "reduce_scatter": "alltoall+fold",
    "Scatter": "linear-root",
    "Scatterv": "linear-root",
    "Gather": "linear-root",
    "Gatherv": "linear-root",
    "Allgather": "ring",
    "Allgatherv": "ring",
    "Alltoall": "pairwise-exchange",
    "Scan": "linear-chain",
    "Exscan": "linear-chain",
}


def collective_label_catalogue() -> Dict[str, Tuple[str, ...]]:
    """Every algorithm label each collective op may legally record.

    The audit test (and any trace consumer) checks observed
    ``algorithm=`` span/metric labels against this catalogue, so a
    collective whose label drifts from its implementation fails loudly.
    """
    cat = {op: (label, "local") for op, label in _STATIC_LABELS.items()}
    for op in ("allreduce", "Allreduce"):
        cat[op] = COLLECTIVE_ALGORITHMS["allreduce"]
    for op in ("bcast", "Bcast"):
        cat[op] = COLLECTIVE_ALGORITHMS["bcast"]
    for op in ("reduce", "Reduce"):
        cat[op] = COLLECTIVE_ALGORITHMS["reduce"]
    return cat


class Group:
    """An ordered set of world ranks; the process-group abstraction."""

    def __init__(self, world_ranks: Sequence[int]):
        self._ranks = list(world_ranks)

    @property
    def size(self) -> int:
        return len(self._ranks)

    def rank_of(self, world_rank: int) -> int:
        """Group rank of a world rank (-1 if absent)."""
        try:
            return self._ranks.index(world_rank)
        except ValueError:
            return -1

    def Incl(self, ranks: Sequence[int]) -> "Group":
        """Subgroup containing the given *group* ranks, in that order."""
        return Group([self._ranks[r] for r in ranks])

    def Excl(self, ranks: Sequence[int]) -> "Group":
        excl = set(ranks)
        return Group([wr for i, wr in enumerate(self._ranks) if i not in excl])

    def world_ranks(self) -> List[int]:
        return list(self._ranks)


class Intracomm:
    """A communicator over an ordered list of world ranks.

    Each rank holds its own instance; instances on different ranks that
    were created by the same (SPMD-ordered) sequence of calls share a
    context id, which is what isolates their message traffic.
    """

    def __init__(self, ctx: RankContext, world_ranks: Sequence[int],
                 ctx_id: Any = ("world",)):
        self._ctx = ctx
        self._world_ranks = list(world_ranks)
        # world rank -> comm rank, built once: message-source translation
        # must not pay an O(size) list scan per received message
        self._rank_of_world = {wr: r for r, wr
                               in enumerate(self._world_ranks)}
        self._ctx_id = ctx_id
        self._rank = self._rank_of_world[ctx.rank]
        self._size = len(self._world_ranks)
        self._coll_seq = 0   # per-collective context stream; SPMD-consistent
        self._child_seq = 0  # id stream for derived communicators
        self._agree_seq = 0  # agreement rendezvous stream; SPMD-consistent
        # algorithm-label stack for the _traced_collective wrappers (a
        # stack because adaptive collectives nest: allreduce -> Reduce)
        # of [op name, algorithm once chosen, causal op_id] entries
        self._algo_notes: List[list] = []
        self._cost_model: Optional[CostModel] = None
        self._topology: Optional[Topology] = None

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    @property
    def group(self) -> Group:
        return Group(self._world_ranks)

    @property
    def context(self) -> RankContext:
        return self._ctx

    def world_rank(self, rank: int) -> int:
        """Translate a comm rank to its world rank."""
        return self._world_ranks[rank]

    def counters(self):
        """This rank's live traffic counters (world-wide, not per-comm)."""
        return self._ctx.world.counters[self._ctx.rank]

    def traffic_snapshot(self):
        return self.counters().snapshot()

    def __repr__(self):
        return (f"Intracomm(rank={self._rank}/{self._size}, "
                f"ctx={self._ctx_id!r})")

    # ------------------------------------------------------------------
    # collective tuning
    # ------------------------------------------------------------------
    def set_collective_tuning(self, cost_model: Optional[CostModel] = None,
                              topology: Optional[Topology] = None
                              ) -> "Intracomm":
        """Override the cost model / topology for *this* communicator.

        A non-flat *topology* must partition ``range(size)`` of this
        communicator (``ValueError`` otherwise).  Pass
        :data:`~repro.mpi.costmodel.FLAT` to clear a topology.  Returns
        ``self`` so the call chains off a constructor.
        """
        if cost_model is not None:
            self._cost_model = cost_model
        if topology is not None:
            if topology.is_flat:
                self._topology = None
            else:
                topology.validate(self._size)
                self._topology = topology
        return self

    def _tuning(self) -> Tuple[CostModel, Optional[Topology]]:
        model = self._cost_model if self._cost_model is not None \
            else _DEFAULT_COST_MODEL
        topo = self._topology if self._topology is not None \
            else _DEFAULT_TOPOLOGY
        return model, topo

    def _note_algorithm(self, algorithm: str) -> None:
        """Record which algorithm the innermost active collective runs and
        count the call in the rank's counters.  Called before the call's
        first message, so a peer that has seen the call's last message
        (the driver of a gather, say) also sees it counted."""
        if self._algo_notes:
            note = self._algo_notes[-1]
            note[1] = algorithm
            self._ctx.world.counters[self._ctx.rank].record_coll(
                note[0], algorithm, note[2])

    def _select(self, coll: str, nbytes: int, count: Optional[int],
                commutative: bool, algorithm: Optional[str]) -> str:
        """Forced algorithm (validated) or the cost-model argmin."""
        if algorithm is not None:
            legal = COLLECTIVE_ALGORITHMS[coll]
            if algorithm not in legal or algorithm == "local":
                raise ValueError(
                    f"unknown {coll} algorithm {algorithm!r}; choose from "
                    f"{sorted(a for a in legal if a != 'local')}")
            return algorithm
        model, topo = self._tuning()
        return select_algorithm(coll, self._size, int(nbytes), model,
                                topology=topo, commutative=commutative,
                                count=count)

    def _groups(self) -> Optional[List[List[int]]]:
        """Usable topology groups for this communicator, else None."""
        _model, topo = self._tuning()
        if topo is None:
            return None
        return topo.groups_for(self._size)

    # ------------------------------------------------------------------
    # argument checking helpers
    # ------------------------------------------------------------------
    def _check_rank(self, rank: int, allow_any: bool = False) -> None:
        if allow_any and rank == ANY_SOURCE:
            return
        if not 0 <= rank < self._size:
            raise RankError(f"rank {rank} out of range for size {self._size}")

    @staticmethod
    def _check_tag(tag: int, allow_any: bool = False) -> None:
        if allow_any and tag == ANY_TAG:
            return
        if tag < 0:
            raise TagError(f"tag must be >= 0, got {tag}")

    def _check_usable(self, opname: str) -> None:
        """Raise the typed fault if this comm is revoked or has a dead
        member.  O(size) only once a failure exists; two attribute reads
        otherwise."""
        world = self._ctx.world
        if world._revoked and world.is_revoked(self._ctx_id):
            raise CommRevokedError(
                f"{opname} on revoked communicator ctx={self._ctx_id!r}")
        if world.has_failures:
            for wr in self._world_ranks:
                cause = world.failure_cause(wr)
                if cause is not _NOT_FAILED:
                    raise RankFailure(wr, f"{opname} (world rank {wr} is "
                                      f"a member of ctx={self._ctx_id!r})",
                                      cause)

    def _p2p_ctx(self):
        world = self._ctx.world
        if world._revoked and world.is_revoked(self._ctx_id):
            raise CommRevokedError(
                f"point-to-point op on revoked communicator "
                f"ctx={self._ctx_id!r}")
        return (self._ctx_id, "p")

    def _next_coll(self):
        """Fresh context id for one collective call (base tag 0).

        Each call gets its *own* context rather than a shared context
        with an incrementing tag, so a multi-phase algorithm is free to
        use small tag offsets for its internal phases without colliding
        with any other collective in flight on the same communicator.
        """
        seq = self._coll_seq
        self._coll_seq += 1
        return (self._ctx_id, "c", seq), 0

    # ------------------------------------------------------------------
    # point-to-point: Python objects (pickle path)
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._check_tag(tag)
        self._ctx.send_object(self._world_ranks[dest], self._p2p_ctx(),
                              tag, obj)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> Any:
        self._check_rank(source, allow_any=True)
        self._check_tag(tag, allow_any=True)
        src_world = (ANY_SOURCE if source == ANY_SOURCE
                     else self._world_ranks[source])
        msg = self._ctx.recv_message(self._p2p_ctx(), src_world, tag,
                                     members=self._world_ranks)
        if status is not None:
            status.source = self._rank_of_world[msg.src]
            status.tag = msg.tag
            status.count_bytes = msg.nbytes
        return _loads(msg)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> SendRequest:
        self.send(obj, dest, tag)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        self._check_rank(source, allow_any=True)
        self._check_tag(tag, allow_any=True)
        src_world = (ANY_SOURCE if source == ANY_SOURCE
                     else self._world_ranks[source])

        def complete(status):
            msg = self._ctx.recv_message(self._p2p_ctx(), src_world, tag,
                                         members=self._world_ranks)
            if status is not None:
                status.source = self._rank_of_world[msg.src]
                status.tag = msg.tag
                status.count_bytes = msg.nbytes
            return _loads(msg)

        def poll(status):
            msg = self._ctx.poll_message(self._p2p_ctx(), src_world, tag,
                                         remove=True)
            if msg is None:
                return False, None
            if status is not None:
                status.source = self._rank_of_world[msg.src]
                status.tag = msg.tag
                status.count_bytes = msg.nbytes
            return True, _loads(msg)

        return RecvRequest(complete, poll)

    def sendrecv(self, sendobj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        # Eager buffered sends cannot deadlock, so send-then-recv is safe.
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Optional[Status] = None) -> Status:
        """Block until a matching message is available (without receiving)."""
        self._check_rank(source, allow_any=True)
        self._check_tag(tag, allow_any=True)
        src_world = (ANY_SOURCE if source == ANY_SOURCE
                     else self._world_ranks[source])
        mb = self._ctx.world.mailboxes[self._ctx.rank]
        msg = mb.retrieve(self._p2p_ctx(), src_world, tag,
                          self._ctx.world.timeout, remove=False,
                          members=self._world_ranks)
        st = status if status is not None else Status()
        st.source = self._rank_of_world[msg.src]
        st.tag = msg.tag
        st.count_bytes = msg.nbytes
        return st

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               status: Optional[Status] = None) -> bool:
        self._check_rank(source, allow_any=True)
        self._check_tag(tag, allow_any=True)
        src_world = (ANY_SOURCE if source == ANY_SOURCE
                     else self._world_ranks[source])
        msg = self._ctx.poll_message(self._p2p_ctx(), src_world, tag,
                                     remove=False)
        if msg is None:
            return False
        if status is not None:
            status.source = self._rank_of_world[msg.src]
            status.tag = msg.tag
            status.count_bytes = msg.nbytes
        return True

    # ------------------------------------------------------------------
    # point-to-point: NumPy buffers (fast path)
    # ------------------------------------------------------------------
    def Send(self, buf, dest: int, tag: int = 0) -> None:
        self._check_rank(dest)
        self._check_tag(tag)
        flat, _count, _dt = decode_buffer_spec(buf)
        self._ctx.send_buffer(self._world_ranks[dest], self._p2p_ctx(),
                              tag, flat)

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Optional[Status] = None) -> None:
        self._check_rank(source, allow_any=True)
        self._check_tag(tag, allow_any=True)
        flat, count, dt = decode_buffer_spec(buf)
        src_world = (ANY_SOURCE if source == ANY_SOURCE
                     else self._world_ranks[source])
        msg = self._ctx.recv_message(self._p2p_ctx(), src_world, tag,
                                     members=self._world_ranks)
        incoming = np.asarray(msg.payload)
        if incoming.nbytes > flat.nbytes:
            raise TruncationError(
                f"message of {incoming.nbytes} bytes does not fit receive "
                f"buffer of {flat.nbytes} bytes")
        n = incoming.nbytes // dt.extent
        flat[:n] = incoming.view(dt.np_dtype)[:n]
        if status is not None:
            status.source = self._rank_of_world[msg.src]
            status.tag = msg.tag
            status.count_bytes = msg.nbytes

    def Isend(self, buf, dest: int, tag: int = 0) -> SendRequest:
        self.Send(buf, dest, tag)
        return SendRequest()

    def Irecv(self, buf, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> RecvRequest:
        def complete(status):
            self.Recv(buf, source, tag, status)
            return None

        def poll(status):
            self._check_rank(source, allow_any=True)
            src_world = (ANY_SOURCE if source == ANY_SOURCE
                         else self._world_ranks[source])
            if self._ctx.poll_message(self._p2p_ctx(), src_world, tag,
                                      remove=False) is None:
                return False, None
            self.Recv(buf, source, tag, status)
            return True, None

        return RecvRequest(complete, poll)

    def Sendrecv(self, sendbuf, dest: int, sendtag: int = 0,
                 recvbuf=None, source: int = ANY_SOURCE,
                 recvtag: int = ANY_TAG,
                 status: Optional[Status] = None) -> None:
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source, recvtag, status)

    # ------------------------------------------------------------------
    # collective plumbing: send/recv closures over a member list
    # ------------------------------------------------------------------
    def _obj_io(self, ctx_id, ws):
        """(send, recv) closures moving pickled objects between members.

        *ws* is a list of world ranks; both closures address peers by
        index into it, so one algorithm implementation serves the full
        communicator and any hierarchical subgroup alike.  Receives watch
        the whole communicator's membership, so a death anywhere aborts
        the collective instead of hanging a chain of waiters.
        """
        ctx = self._ctx
        members = self._world_ranks

        def send(payload, j, t):
            ctx.send_object(ws[j], ctx_id, t, payload)

        def recv(j, t):
            return _loads(ctx.recv_message(ctx_id, ws[j], t,
                                           members=members))

        return send, recv

    def _buf_io(self, ctx_id, ws, np_dtype, expect, opname):
        """(send, recv) closures moving fixed-size buffers between members.

        Every receive insists on exactly *expect* elements: a payload
        truncated or inflated in flight raises :class:`TruncationError`
        rather than corrupting the reduction.
        """
        ctx = self._ctx
        members = self._world_ranks

        def send(payload, j, t):
            ctx.send_buffer(ws[j], ctx_id, t, payload)

        def recv(j, t):
            msg = ctx.recv_message(ctx_id, ws[j], t, members=members)
            incoming = np.asarray(msg.payload).view(np_dtype)
            if incoming.size != expect:
                raise TruncationError(
                    f"{opname} expected {expect} elements, received "
                    f"{incoming.size}: payload truncated or oversized "
                    f"in flight")
            return incoming

        return send, recv

    def _recv_flat(self, ctx_id, src_world, tag, np_dtype, expect, opname):
        """One exact-size buffer receive (segmented-algorithm helper)."""
        msg = self._ctx.recv_message(ctx_id, src_world, tag,
                                     members=self._world_ranks)
        incoming = np.asarray(msg.payload).view(np_dtype)
        if incoming.size != expect:
            raise TruncationError(
                f"{opname} expected {expect} elements, received "
                f"{incoming.size}: payload truncated or oversized in flight")
        return incoming

    # ------------------------------------------------------------------
    # collective algorithm kernels (generic over the io closures)
    # ------------------------------------------------------------------
    def _bcast_tree(self, tag, ws, i, root_i, value, send, recv):
        """Binomial-tree broadcast over *ws* rooted at index *root_i*.

        MPICH formulation in root-rotated virtual ranks: member v
        receives from ``v - lowbit(v)`` and forwards to ``v + mask`` for
        every mask below its low bit -- ceil(log2 m) rounds, each member
        receives exactly once.
        """
        m = len(ws)
        if m == 1:
            return value
        v = (i - root_i) % m
        mask = 1
        while mask < m:
            if v & mask:
                value = recv((v - mask + root_i) % m, tag)
                break
            mask <<= 1
        mask >>= 1
        while mask:
            if v + mask < m:
                send(value, (v + mask + root_i) % m, tag)
            mask >>= 1
        return value

    def _fold_tree(self, tag, ws, i, acc, combine, send, recv):
        """Rank-ordered binomial fold to member 0.

        Member i always combines ``combine(own_run, higher_run)`` where
        the higher run starts exactly where its own ends, so the fold
        applies *combine* strictly in member order -- valid for
        non-commutative (but associative) operations.  Returns the result
        at member 0, ``None`` elsewhere.
        """
        mask = 1
        m = len(ws)
        while mask < m:
            if i & mask:
                send(acc, i & ~mask, tag)
                return None
            partner = i | mask
            if partner < m:
                acc = combine(acc, recv(partner, tag))
            mask <<= 1
        return acc

    def _reduce_rotated(self, tag, ws, i, root_i, acc, combine, send, recv):
        """Commutative binomial-tree reduce rooted at *root_i*."""
        m = len(ws)
        v = (i - root_i) % m
        mask = 1
        while mask < m:
            if v & mask:
                send(acc, ((v & ~mask) + root_i) % m, tag)
                return None
            partner = v | mask
            if partner < m:
                acc = combine(acc, recv((partner + root_i) % m, tag))
            mask <<= 1
        return acc

    def _reduce_ordered(self, tag, ws, i, root_i, acc, combine, send, recv):
        """Rank-ordered tree fold plus a forward hop to the root.

        Uses tags ``tag`` (fold) and ``tag + 1`` (member 0 -> root).
        """
        acc = self._fold_tree(tag, ws, i, acc, combine, send, recv)
        if root_i == 0:
            return acc
        if i == 0:
            send(acc, root_i, tag + 1)
            return None
        if i == root_i:
            return recv(0, tag + 1)
        return None

    def _reduce_gather_fold(self, tag, ws, i, root_i, value, combine,
                            send, recv):
        """Everyone sends to the root, which folds in member order.

        O(m * msg) root memory pressure -- kept only as an explicitly
        selectable baseline, never chosen by the cost model.
        """
        m = len(ws)
        if i != root_i:
            send(value, root_i, tag)
            return None
        acc = None
        for j in range(m):
            part = value if j == i else recv(j, tag)
            acc = part if acc is None else combine(acc, part)
        return acc

    def _allreduce_recdbl(self, tag, ws, i, acc, combine, send, recv):
        """Recursive-doubling allreduce with non-power-of-two folding.

        The first ``2r`` members (``r = m - 2^floor(lg m)``) pair-fold so
        a power-of-two subset runs the doubling; folded-out members get
        the result back afterwards.  Combination order is member order
        throughout (participants own contiguous ascending member runs and
        the doubling merges adjacent runs), so the kernel is valid for
        non-commutative ops too.  Tags: ``tag`` fold-in, ``tag + 1``
        doubling exchanges, ``tag + 2`` result return.
        """
        m = len(ws)
        q = 1 << (m.bit_length() - 1)
        r = m - q
        if i < 2 * r:
            if i & 1:
                send(acc, i - 1, tag)
                return recv(i - 1, tag + 2)
            acc = combine(acc, recv(i + 1, tag))
            pn = i // 2
        else:
            pn = i - r
        mask = 1
        while mask < q:
            pj = pn ^ mask
            j = 2 * pj if pj < r else pj + r
            send(acc, j, tag + 1)
            other = recv(j, tag + 1)
            acc = combine(other, acc) if pj < pn else combine(acc, other)
            mask <<= 1
        if pn < r:
            send(acc, 2 * pn + 1, tag + 2)
        return acc

    def _buf_allreduce_ring(self, ctx_id, tag, ws, i, acc, op):
        """Ring allreduce: ring reduce-scatter then ring allgather.

        2(m-1) steps each moving ~1/m of the vector; bandwidth-optimal,
        latency-heavy.  Commutative ops only (blocks fold in ring arrival
        order).  Tags: ``tag`` reduce-scatter, ``tag + 1`` allgather.
        """
        m = len(ws)
        ctx = self._ctx
        dt = acc.dtype
        bounds = _block_bounds(acc.size, m)
        right = ws[(i + 1) % m]
        left = ws[(i - 1) % m]
        for k in range(m - 1):
            s0, s1 = bounds[(i - k) % m]
            ctx.send_buffer(right, ctx_id, tag, acc[s0:s1])
            r0, r1 = bounds[(i - k - 1) % m]
            incoming = self._recv_flat(ctx_id, left, tag, dt, r1 - r0,
                                       "Allreduce(ring)")
            acc[r0:r1] = op.np_func(acc[r0:r1], incoming)
        # member i now owns the fully reduced block (i + 1) % m
        cur = (i + 1) % m
        for _k in range(m - 1):
            s0, s1 = bounds[cur]
            ctx.send_buffer(right, ctx_id, tag + 1, acc[s0:s1])
            cur = (cur - 1) % m
            r0, r1 = bounds[cur]
            incoming = self._recv_flat(ctx_id, left, tag + 1, dt, r1 - r0,
                                       "Allreduce(ring)")
            acc[r0:r1] = incoming
        return acc

    def _buf_allreduce_rabenseifner(self, ctx_id, tag, ws, i, acc, op):
        """Rabenseifner allreduce: recursive-halving reduce-scatter plus
        recursive-doubling allgather -- ring's bandwidth term at tree
        latency.  Commutative ops only.  Tags: ``tag`` pow2 fold-in,
        ``tag + 1`` halving, ``tag + 2`` doubling, ``tag + 3`` result
        return to folded-out members.
        """
        m = len(ws)
        ctx = self._ctx
        dt = acc.dtype
        q = 1 << (m.bit_length() - 1)
        r = m - q
        if i < 2 * r:
            if i & 1:
                ctx.send_buffer(ws[i - 1], ctx_id, tag, acc)
                incoming = self._recv_flat(ctx_id, ws[i - 1], tag + 3, dt,
                                           acc.size,
                                           "Allreduce(rabenseifner)")
                acc[:] = incoming
                return acc
            incoming = self._recv_flat(ctx_id, ws[i + 1], tag, dt, acc.size,
                                       "Allreduce(rabenseifner)")
            acc = op.np_func(acc, incoming)
            pn = i // 2
        else:
            pn = i - r

        def wrank(pk):
            return ws[2 * pk if pk < r else pk + r]

        bounds = _block_bounds(acc.size, q)
        off = [b[0] for b in bounds] + [acc.size]
        # recursive halving: each round swap half of the live window with
        # the partner and fold the half we keep
        lo, hi = 0, q
        mask = q >> 1
        while mask:
            pj = pn ^ mask
            mid = lo + mask
            if pn & mask:
                send_sl = acc[off[lo]:off[mid]]
                keep0, keep1 = off[mid], off[hi]
                lo = mid
            else:
                send_sl = acc[off[mid]:off[hi]]
                keep0, keep1 = off[lo], off[mid]
                hi = mid
            ctx.send_buffer(wrank(pj), ctx_id, tag + 1, send_sl)
            incoming = self._recv_flat(ctx_id, wrank(pj), tag + 1, dt,
                                       keep1 - keep0,
                                       "Allreduce(rabenseifner)")
            acc[keep0:keep1] = op.np_func(acc[keep0:keep1], incoming)
            mask >>= 1
        # recursive doubling allgather of the owned blocks
        mask = 1
        while mask < q:
            pj = pn ^ mask
            my_lo = (pn // mask) * mask
            pr_lo = (pj // mask) * mask
            ctx.send_buffer(wrank(pj), ctx_id, tag + 2,
                            acc[off[my_lo]:off[my_lo + mask]])
            incoming = self._recv_flat(ctx_id, wrank(pj), tag + 2, dt,
                                       off[pr_lo + mask] - off[pr_lo],
                                       "Allreduce(rabenseifner)")
            acc[off[pr_lo]:off[pr_lo + mask]] = incoming
            mask <<= 1
        if pn < r:
            ctx.send_buffer(ws[2 * pn + 1], ctx_id, tag + 3, acc)
        return acc

    def _buf_reduce_ring(self, ctx_id, tag, ws, i, root_i, acc, op):
        """Ring reduce: ring reduce-scatter, owned blocks hop to the root.

        Commutative ops only.  Tags: ``tag`` reduce-scatter, ``tag + 1``
        block gather at the root.
        """
        m = len(ws)
        ctx = self._ctx
        dt = acc.dtype
        bounds = _block_bounds(acc.size, m)
        right = ws[(i + 1) % m]
        left = ws[(i - 1) % m]
        for k in range(m - 1):
            s0, s1 = bounds[(i - k) % m]
            ctx.send_buffer(right, ctx_id, tag, acc[s0:s1])
            r0, r1 = bounds[(i - k - 1) % m]
            incoming = self._recv_flat(ctx_id, left, tag, dt, r1 - r0,
                                       "Reduce(ring)")
            acc[r0:r1] = op.np_func(acc[r0:r1], incoming)
        own = (i + 1) % m
        o0, o1 = bounds[own]
        if i != root_i:
            ctx.send_buffer(ws[root_i], ctx_id, tag + 1, acc[o0:o1])
            return None
        out = np.empty_like(acc)
        out[o0:o1] = acc[o0:o1]
        for b in range(m):
            owner = (b - 1) % m
            if owner == i:
                continue
            b0, b1 = bounds[b]
            incoming = self._recv_flat(ctx_id, ws[owner], tag + 1, dt,
                                       b1 - b0, "Reduce(ring)")
            out[b0:b1] = incoming
        return out

    def _buf_bcast_scatter_allgather(self, ctx_id, tag, ws, i, root_i,
                                     flat, count, np_dtype):
        """van de Geijn broadcast: binomial scatter + ring allgather.

        Halves the bandwidth term of the binomial tree for large
        messages at the cost of extra latency.  Tags: ``tag`` scatter,
        ``tag + 1`` allgather.
        """
        m = len(ws)
        ctx = self._ctx
        bounds = _block_bounds(count, m)
        off = [b[0] for b in bounds] + [count]
        v = (i - root_i) % m

        def wrank(vr):
            return ws[(vr + root_i) % m]

        # binomial scatter in virtual-rank space: v receives blocks
        # [v, v + lowbit(v)) from v - lowbit(v), then halves its span
        # downward
        mask = 1
        while mask < m:
            if v & mask:
                hi_blk = min(v + mask, m)
                incoming = self._recv_flat(
                    ctx_id, wrank(v - mask), tag, np_dtype,
                    off[hi_blk] - off[v], "Bcast(scatter-allgather)")
                flat[off[v]:off[hi_blk]] = incoming
                break
            mask <<= 1
        mask >>= 1
        while mask:
            dv = v + mask
            if dv < m:
                hi_blk = min(dv + mask, m)
                ctx.send_buffer(wrank(dv), ctx_id, tag,
                                flat[off[dv]:off[hi_blk]])
            mask >>= 1
        # ring allgather in virtual-rank space
        right = wrank((v + 1) % m)
        left = wrank((v - 1) % m)
        cur = v
        for _k in range(m - 1):
            ctx.send_buffer(right, ctx_id, tag + 1,
                            flat[off[cur]:off[cur + 1]])
            cur = (cur - 1) % m
            incoming = self._recv_flat(ctx_id, left, tag + 1, np_dtype,
                                       off[cur + 1] - off[cur],
                                       "Bcast(scatter-allgather)")
            flat[off[cur]:off[cur + 1]] = incoming

    def _obj_bcast_scatter_allgather(self, ctx_id, tag, ws, i, root_i, obj):
        """Scatter-allgather broadcast of a pickled object.

        The root serializes once; the byte blob then rides the buffer
        kernel (a size header travels down a binomial tree first so
        non-roots can allocate).  Tags ``tag`` (header) through
        ``tag + 2``.
        """
        if i == root_i:
            blob = pickle.dumps(obj, protocol=5)
            data = np.frombuffer(blob, dtype=np.uint8).copy()
            n = data.size
        else:
            data = None
            n = None
        send, recv = self._obj_io(ctx_id, ws)
        n = self._bcast_tree(tag, ws, i, root_i, n, send, recv)
        if data is None:
            data = np.empty(int(n), dtype=np.uint8)
        self._buf_bcast_scatter_allgather(ctx_id, tag + 1, ws, i, root_i,
                                          data, int(n), np.dtype(np.uint8))
        if i == root_i:
            return obj
        try:
            return pickle.loads(data.tobytes())
        except Exception as exc:
            raise TruncationError(
                f"scatter-allgather bcast payload failed to decode "
                f"({exc!r}); payload was truncated or corrupted in "
                f"flight") from exc

    def _hier_bcast(self, ctx_id, tag, groups, root, value, io_for):
        """Hierarchical broadcast: root -> its group leader -> leaders'
        binomial tree -> intra-group binomial trees.

        *groups* are comm-rank groups from the declared topology;
        *io_for(ws)* builds (send, recv) closures for a member list, so
        the same skeleton drives the object and buffer paths.  Tags:
        ``tag`` root hop, ``tag + 1`` leader tree, ``tag + 2`` intra.
        """
        full_ws = self._world_ranks
        me = self._rank
        mine = next(g for g in groups if me in g)
        leaders = [g[0] for g in groups]
        gidx = next(k for k, g in enumerate(groups) if root in g)
        lead0 = groups[gidx][0]
        if root != lead0:
            send, recv = io_for(full_ws)
            if me == root:
                send(value, lead0, tag)
            elif me == lead0:
                value = recv(root, tag)
        if me in leaders:
            lws = [full_ws[r] for r in leaders]
            send, recv = io_for(lws)
            value = self._bcast_tree(tag + 1, lws, leaders.index(me), gidx,
                                     value, send, recv)
        gws = [full_ws[r] for r in mine]
        send, recv = io_for(gws)
        return self._bcast_tree(tag + 2, gws, mine.index(me), 0, value,
                                send, recv)

    def _hier_allreduce(self, ctx_id, tag, groups, value, combine, io_for):
        """Hierarchical allreduce: intra-group fold -> leader
        recursive-doubling -> intra-group broadcast.  Commutative ops
        only (group membership need not follow rank order).  Tags:
        ``tag`` intra fold, ``tag + 1``..``tag + 3`` leader exchange,
        ``tag + 4`` intra broadcast.
        """
        full_ws = self._world_ranks
        me = self._rank
        mine = next(g for g in groups if me in g)
        gws = [full_ws[r] for r in mine]
        gi = mine.index(me)
        send, recv = io_for(gws)
        acc = self._fold_tree(tag, gws, gi, value, combine, send, recv)
        if gi == 0:
            leaders = [g[0] for g in groups]
            lws = [full_ws[r] for r in leaders]
            lsend, lrecv = io_for(lws)
            acc = self._allreduce_recdbl(tag + 1, lws, leaders.index(me),
                                         acc, combine, lsend, lrecv)
        return self._bcast_tree(tag + 4, gws, gi, 0, acc, send, recv)

    # ------------------------------------------------------------------
    # collectives: object (pickle) path
    # ------------------------------------------------------------------
    @_traced_collective("dissemination")
    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 p) rounds of pairwise signals."""
        ctx_id, tag = self._next_coll()
        p = self._size
        if p == 1:
            return
        rounds = max(1, math.ceil(math.log2(p)))
        me = self._rank
        for k in range(rounds):
            dist = 1 << k
            dest = (me + dist) % p
            src = (me - dist) % p
            self._ctx.send_object(self._world_ranks[dest], ctx_id,
                                  tag + k, None)
            self._ctx.recv_message(ctx_id, self._world_ranks[src],
                                   tag + k)

    Barrier = barrier

    @_traced_collective("binomial-tree")
    def bcast(self, obj: Any = None, root: int = 0,
              size_hint: Optional[int] = None,
              algorithm: Optional[str] = None) -> Any:
        """Size-adaptive broadcast of a Python object.

        *size_hint* (approximate serialized bytes, SPMD-consistent)
        admits the large-message scatter-allgather variant; without it
        the pickled size is per-rank-unknowable and selection assumes a
        small message.  *algorithm* forces a specific variant.
        """
        self._check_rank(root)
        p = self._size
        if p == 1:
            self._note_algorithm("local")
            return obj
        nbytes = int(size_hint) if size_hint else _OBJECT_SIZE_GUESS
        count = int(size_hint) if size_hint else None
        algo = self._select("bcast", nbytes, count, True, algorithm)
        groups = self._groups()
        if algo == "hierarchical" and groups is None:
            raise ValueError(
                "hierarchical bcast requires a topology declared for "
                "this communicator size")
        self._note_algorithm(algo)
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        if algo == "scatter-allgather":
            return self._obj_bcast_scatter_allgather(ctx_id, tag, ws,
                                                     self._rank, root, obj)
        if algo == "hierarchical":
            return self._hier_bcast(ctx_id, tag, groups, root, obj,
                                    lambda mws: self._obj_io(ctx_id, mws))
        send, recv = self._obj_io(ctx_id, ws)
        return self._bcast_tree(tag, ws, self._rank, root, obj, send, recv)

    @_traced_collective("linear-root")
    def scatter(self, sendobj: Optional[Sequence] = None,
                root: int = 0) -> Any:
        self._check_rank(root)
        ctx_id, tag = self._next_coll()
        if self._rank == root:
            if sendobj is None or len(sendobj) != self._size:
                raise ValueError("root must supply a sequence of comm.size "
                                 "elements to scatter")
            mine = sendobj[root]
            for r in range(self._size):
                if r != root:
                    self._ctx.send_object(self._world_ranks[r], ctx_id,
                                          tag, sendobj[r])
            return mine
        msg = self._ctx.recv_message(ctx_id, self._world_ranks[root], tag)
        return _loads(msg)

    @_traced_collective("linear-root")
    def gather(self, sendobj: Any, root: int = 0) -> Optional[List[Any]]:
        self._check_rank(root)
        ctx_id, tag = self._next_coll()
        if self._rank == root:
            out: List[Any] = [None] * self._size
            out[root] = sendobj
            for r in range(self._size):
                if r != root:
                    msg = self._ctx.recv_message(
                        ctx_id, self._world_ranks[r], tag)
                    out[r] = _loads(msg)
            return out
        self._ctx.send_object(self._world_ranks[root], ctx_id, tag, sendobj)
        return None

    @_traced_collective("ring")
    def allgather(self, sendobj: Any) -> List[Any]:
        """Ring allgather: p-1 steps, each forwarding one block."""
        ctx_id, tag = self._next_coll()
        p = self._size
        out: List[Any] = [None] * p
        out[self._rank] = sendobj
        if p == 1:
            return out
        right = self._world_ranks[(self._rank + 1) % p]
        left_rank = (self._rank - 1) % p
        left = self._world_ranks[left_rank]
        cur = sendobj
        cur_idx = self._rank
        for _step in range(p - 1):
            self._ctx.send_object(right, ctx_id, tag, (cur_idx, cur))
            msg = self._ctx.recv_message(ctx_id, left, tag)
            cur_idx, cur = _loads(msg)
            out[cur_idx] = cur
        return out

    @_traced_collective("pairwise-exchange")
    def alltoall(self, sendobjs: Sequence[Any]) -> List[Any]:
        """Pairwise-exchange alltoall."""
        if len(sendobjs) != self._size:
            raise ValueError("alltoall needs comm.size send objects")
        ctx_id, tag = self._next_coll()
        p = self._size
        out: List[Any] = [None] * p
        out[self._rank] = sendobjs[self._rank]
        for offset in range(1, p):
            dest = (self._rank + offset) % p
            src = (self._rank - offset) % p
            self._ctx.send_object(self._world_ranks[dest], ctx_id, tag,
                                  sendobjs[dest])
            msg = self._ctx.recv_message(ctx_id, self._world_ranks[src], tag)
            out[src] = _loads(msg)
        return out

    @_traced_collective("binomial-tree")
    def reduce(self, sendobj: Any, op: _ops.Op = _ops.SUM,
               root: int = 0, size_hint: Optional[int] = None,
               algorithm: Optional[str] = None) -> Any:
        """Size-adaptive reduction to *root*.

        Commutative ops default to the rotated binomial tree;
        non-commutative ops fold in strict rank order
        (``rank-ordered-tree``).  ndarray payloads delegate to the buffer
        machinery, where large vectors may take the ring variant.
        """
        self._check_rank(root)
        p = self._size
        if p == 1:
            self._note_algorithm("local")
            return sendobj
        if isinstance(sendobj, np.ndarray) and sendobj.dtype != object:
            arr = np.ascontiguousarray(sendobj)
            recvarr = np.empty(arr.shape, arr.dtype) \
                if self._rank == root else None
            self._reduce_buffer(arr, recvarr, op, root, algorithm)
            return recvarr
        nbytes = int(size_hint) if size_hint else _OBJECT_SIZE_GUESS
        algo = self._select("reduce", nbytes, None, op.commutative,
                            algorithm)
        if not op.commutative and algo in ("binomial-tree", "ring"):
            raise ValueError(
                f"reduce algorithm {algo!r} reorders operands; use "
                f"rank-ordered-tree or gather-fold for non-commutative ops")
        if algo == "ring":
            raise ValueError("ring reduce requires ndarray payloads")
        self._note_algorithm(algo)
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        send, recv = self._obj_io(ctx_id, ws)
        i = self._rank
        if algo == "rank-ordered-tree":
            return self._reduce_ordered(tag, ws, i, root, sendobj, op,
                                        send, recv)
        if algo == "gather-fold":
            return self._reduce_gather_fold(tag, ws, i, root, sendobj, op,
                                            send, recv)
        return self._reduce_rotated(tag, ws, i, root, sendobj, op,
                                    send, recv)

    @_traced_collective("reduce+bcast")
    def allreduce(self, sendobj: Any, op: _ops.Op = _ops.SUM,
                  size_hint: Optional[int] = None,
                  algorithm: Optional[str] = None) -> Any:
        """Size-adaptive allreduce.

        ndarray payloads delegate to the buffer machinery (ring /
        Rabenseifner eligible); other objects pick between reduce+bcast,
        recursive doubling and the hierarchical variant.  *size_hint*
        (approximate serialized bytes, SPMD-consistent) steers selection
        for object payloads.
        """
        p = self._size
        if p == 1:
            self._note_algorithm("local")
            return sendobj
        if isinstance(sendobj, np.ndarray) and sendobj.dtype != object:
            arr = np.ascontiguousarray(sendobj)
            out = np.empty(arr.shape, arr.dtype)
            self._allreduce_buffer(arr, out, op, algorithm)
            return out
        nbytes = int(size_hint) if size_hint else _OBJECT_SIZE_GUESS
        algo = self._select("allreduce", nbytes, None, op.commutative,
                            algorithm)
        if algo in ("ring", "rabenseifner"):
            raise ValueError(
                f"allreduce algorithm {algo!r} requires ndarray payloads")
        groups = self._groups()
        if algo == "hierarchical":
            if groups is None:
                raise ValueError(
                    "hierarchical allreduce requires a topology declared "
                    "for this communicator size")
            if not op.commutative:
                raise ValueError("hierarchical allreduce requires a "
                                 "commutative op")
        self._note_algorithm(algo)
        if algo == "reduce+bcast":
            result = self.reduce(sendobj, op=op, root=0,
                                 size_hint=size_hint)
            return self.bcast(result, root=0, size_hint=size_hint)
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        if algo == "hierarchical":
            return self._hier_allreduce(ctx_id, tag, groups, sendobj, op,
                                        lambda mws: self._obj_io(ctx_id,
                                                                 mws))
        send, recv = self._obj_io(ctx_id, ws)
        return self._allreduce_recdbl(tag, ws, self._rank, sendobj, op,
                                      send, recv)

    @_traced_collective("linear-chain")
    def scan(self, sendobj: Any, op: _ops.Op = _ops.SUM) -> Any:
        """Inclusive prefix reduction along rank order (linear chain)."""
        ctx_id, tag = self._next_coll()
        acc = sendobj
        if self._rank > 0:
            msg = self._ctx.recv_message(
                ctx_id, self._world_ranks[self._rank - 1], tag)
            acc = op(_loads(msg), sendobj)
        if self._rank + 1 < self._size:
            self._ctx.send_object(self._world_ranks[self._rank + 1],
                                  ctx_id, tag, acc)
        return acc

    @_traced_collective("linear-chain")
    def exscan(self, sendobj: Any, op: _ops.Op = _ops.SUM) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``."""
        ctx_id, tag = self._next_coll()
        prefix = None
        if self._rank > 0:
            msg = self._ctx.recv_message(
                ctx_id, self._world_ranks[self._rank - 1], tag)
            prefix = _loads(msg)
        if self._rank + 1 < self._size:
            acc = sendobj if prefix is None else op(prefix, sendobj)
            self._ctx.send_object(self._world_ranks[self._rank + 1],
                                  ctx_id, tag, acc)
        return prefix

    # ------------------------------------------------------------------
    # collectives: buffer path
    # ------------------------------------------------------------------
    @_traced_collective("binomial-tree")
    def Bcast(self, buf, root: int = 0,
              algorithm: Optional[str] = None) -> None:
        """Size-adaptive broadcast of a NumPy buffer."""
        self._check_rank(root)
        p = self._size
        if p == 1:
            self._note_algorithm("local")
            return
        flat, count, dt = decode_buffer_spec(buf)
        algo = self._select("bcast", count * dt.extent, count, True,
                            algorithm)
        groups = self._groups()
        if algo == "hierarchical" and groups is None:
            raise ValueError(
                "hierarchical Bcast requires a topology declared for "
                "this communicator size")
        self._note_algorithm(algo)
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        if algo == "scatter-allgather":
            self._buf_bcast_scatter_allgather(ctx_id, tag, ws, self._rank,
                                              root, flat, count,
                                              dt.np_dtype)
            return

        def io_for(mws):
            return self._buf_io(ctx_id, mws, dt.np_dtype, count, "Bcast")

        if algo == "hierarchical":
            value = self._hier_bcast(ctx_id, tag, groups, root,
                                     flat[:count], io_for)
        else:
            send, recv = io_for(ws)
            value = self._bcast_tree(tag, ws, self._rank, root,
                                     flat[:count], send, recv)
        if self._rank != root:
            flat[:count] = value

    @_traced_collective("linear-root")
    def Scatter(self, sendbuf, recvbuf, root: int = 0) -> None:
        """Scatter equal contiguous blocks of *sendbuf* from the root."""
        self._check_rank(root)
        rflat, rcount, rdt = decode_buffer_spec(recvbuf)
        counts = [rcount] * self._size
        displs = [rcount * r for r in range(self._size)]
        self.Scatterv(sendbuf, counts, displs, recvbuf, root=root)

    @_traced_collective("linear-root")
    def Scatterv(self, sendbuf, counts, displs, recvbuf,
                 root: int = 0) -> None:
        self._check_rank(root)
        ctx_id, tag = self._next_coll()
        rflat, rcount, rdt = decode_buffer_spec(recvbuf)
        if self._rank == root:
            sflat, _scount, sdt = decode_buffer_spec(sendbuf)
            for r in range(self._size):
                block = sflat[displs[r]:displs[r] + counts[r]]
                if r == root:
                    rflat[:counts[r]] = block
                else:
                    self._ctx.send_buffer(self._world_ranks[r], ctx_id,
                                          tag, block)
        else:
            msg = self._ctx.recv_message(ctx_id, self._world_ranks[root], tag)
            incoming = np.asarray(msg.payload).view(rdt.np_dtype)
            if incoming.size > rcount:
                raise TruncationError("Scatterv recv buffer too small")
            rflat[:incoming.size] = incoming

    @_traced_collective("linear-root")
    def Gather(self, sendbuf, recvbuf, root: int = 0) -> None:
        sflat, scount, _sdt = decode_buffer_spec(sendbuf)
        counts = [scount] * self._size
        displs = [scount * r for r in range(self._size)]
        self.Gatherv(sendbuf, recvbuf, counts, displs, root=root)

    @_traced_collective("linear-root")
    def Gatherv(self, sendbuf, recvbuf, counts, displs,
                root: int = 0) -> None:
        self._check_rank(root)
        ctx_id, tag = self._next_coll()
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        if self._rank == root:
            rflat, _rcount, rdt = decode_buffer_spec(recvbuf)
            rflat[displs[root]:displs[root] + scount] = sflat[:scount]
            for r in range(self._size):
                if r == root:
                    continue
                msg = self._ctx.recv_message(ctx_id, self._world_ranks[r],
                                             tag)
                incoming = np.asarray(msg.payload).view(rdt.np_dtype)
                if incoming.size > counts[r]:
                    raise TruncationError("Gatherv recv slot too small")
                rflat[displs[r]:displs[r] + incoming.size] = incoming
        else:
            self._ctx.send_buffer(self._world_ranks[root], ctx_id, tag,
                                  sflat[:scount])

    @_traced_collective("ring")
    def Allgather(self, sendbuf, recvbuf) -> None:
        sflat, scount, _dt = decode_buffer_spec(sendbuf)
        counts = [scount] * self._size
        displs = [scount * r for r in range(self._size)]
        self.Allgatherv(sendbuf, recvbuf, counts, displs)

    @_traced_collective("ring")
    def Allgatherv(self, sendbuf, recvbuf, counts, displs) -> None:
        """Ring allgather over buffers."""
        ctx_id, tag = self._next_coll()
        p = self._size
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat, _rcount, rdt = decode_buffer_spec(recvbuf)
        me = self._rank
        rflat[displs[me]:displs[me] + scount] = sflat[:scount].view(rdt.np_dtype)
        if p == 1:
            return
        right = self._world_ranks[(me + 1) % p]
        left = self._world_ranks[(me - 1) % p]
        cur_idx = me
        for _step in range(p - 1):
            block = rflat[displs[cur_idx]:displs[cur_idx] + counts[cur_idx]]
            # prepend the block index as a tiny header via object send would
            # lose the buffer path; instead derive the index from ring math.
            self._ctx.send_buffer(right, ctx_id, tag, block)
            msg = self._ctx.recv_message(ctx_id, left, tag)
            cur_idx = (cur_idx - 1) % p
            incoming = np.asarray(msg.payload).view(rdt.np_dtype)
            if incoming.size != counts[cur_idx]:
                raise TruncationError(
                    f"Allgatherv expected {counts[cur_idx]} elements for "
                    f"block {cur_idx}, received {incoming.size}: payload "
                    f"truncated or oversized in flight")
            rflat[displs[cur_idx]:displs[cur_idx] + counts[cur_idx]] = incoming

    @_traced_collective("pairwise-exchange")
    def Alltoall(self, sendbuf, recvbuf) -> None:
        ctx_id, tag = self._next_coll()
        p = self._size
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat, rcount, rdt = decode_buffer_spec(recvbuf)
        if scount % p or rcount % p:
            raise ValueError("Alltoall buffers must divide evenly by size")
        sblk = scount // p
        rblk = rcount // p
        rflat[self._rank * rblk:(self._rank + 1) * rblk] = \
            sflat[self._rank * sblk:(self._rank + 1) * sblk].view(rdt.np_dtype)
        for offset in range(1, p):
            dest = (self._rank + offset) % p
            src = (self._rank - offset) % p
            self._ctx.send_buffer(self._world_ranks[dest], ctx_id, tag,
                                  sflat[dest * sblk:(dest + 1) * sblk])
            msg = self._ctx.recv_message(ctx_id, self._world_ranks[src], tag)
            incoming = np.asarray(msg.payload).view(rdt.np_dtype)
            if incoming.size != rblk:
                raise TruncationError(
                    f"Alltoall expected {rblk} elements from rank {src}, "
                    f"received {incoming.size}: payload truncated or "
                    f"oversized in flight")
            rflat[src * rblk:(src + 1) * rblk] = incoming

    def _reduce_buffer(self, sendbuf, recvbuf, op, root, algorithm) -> None:
        """Shared engine behind :meth:`Reduce` and ndarray :meth:`reduce`."""
        p = self._size
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        acc = sflat[:scount].astype(sdt.np_dtype, copy=True)
        if p == 1:
            self._note_algorithm("local")
            if recvbuf is not None:
                rflat, _rc, rdt = decode_buffer_spec(recvbuf)
                rflat[:acc.size] = acc.view(rdt.np_dtype)
            return
        algo = self._select("reduce", acc.nbytes, scount, op.commutative,
                            algorithm)
        if not op.commutative and algo in ("binomial-tree", "ring"):
            raise ValueError(
                f"Reduce algorithm {algo!r} reorders operands; use "
                f"rank-ordered-tree or gather-fold for non-commutative ops")
        self._note_algorithm(algo)
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        i = self._rank
        if algo == "ring":
            result = self._buf_reduce_ring(ctx_id, tag, ws, i, root, acc,
                                           op)
        else:
            send, recv = self._buf_io(ctx_id, ws, sdt.np_dtype, scount,
                                      "Reduce")
            if algo == "rank-ordered-tree":
                result = self._reduce_ordered(tag, ws, i, root, acc,
                                              op.np_func, send, recv)
            elif algo == "gather-fold":
                result = self._reduce_gather_fold(tag, ws, i, root, acc,
                                                  op.np_func, send, recv)
            else:
                result = self._reduce_rotated(tag, ws, i, root, acc,
                                              op.np_func, send, recv)
        if i == root and recvbuf is not None and result is not None:
            rflat, _rc, rdt = decode_buffer_spec(recvbuf)
            rflat[:scount] = np.asarray(result).view(rdt.np_dtype)[:scount]

    @_traced_collective("binomial-tree")
    def Reduce(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM,
               root: int = 0, algorithm: Optional[str] = None) -> None:
        """Size-adaptive reduction of a NumPy buffer to *root*."""
        self._check_rank(root)
        self._reduce_buffer(sendbuf, recvbuf, op, root, algorithm)

    def _allreduce_buffer(self, sendbuf, recvbuf, op, algorithm) -> None:
        """Shared engine behind :meth:`Allreduce` and ndarray
        :meth:`allreduce`."""
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        rflat, _rcount, rdt = decode_buffer_spec(recvbuf)
        acc = sflat[:scount].astype(sdt.np_dtype, copy=True)
        p = self._size
        if p == 1:
            self._note_algorithm("local")
            rflat[:scount] = acc.view(rdt.np_dtype)
            return
        algo = self._select("allreduce", acc.nbytes, scount,
                            op.commutative, algorithm)
        if not op.commutative and algo in ("ring", "rabenseifner"):
            raise ValueError(
                f"Allreduce algorithm {algo!r} reorders operands; "
                f"non-commutative ops need reduce+bcast or "
                f"recursive-doubling")
        groups = None
        if algo == "hierarchical":
            groups = self._groups()
            if groups is None:
                raise ValueError(
                    "hierarchical Allreduce requires a topology declared "
                    "for this communicator size")
            if not op.commutative:
                raise ValueError("hierarchical Allreduce requires a "
                                 "commutative op")
        self._note_algorithm(algo)
        if algo == "reduce+bcast":
            self.Reduce(sendbuf, recvbuf, op=op, root=0)
            self.Bcast(recvbuf, root=0)
            return
        ctx_id, tag = self._next_coll()
        ws = self._world_ranks
        i = self._rank
        if algo == "ring":
            result = self._buf_allreduce_ring(ctx_id, tag, ws, i, acc, op)
        elif algo == "rabenseifner":
            result = self._buf_allreduce_rabenseifner(ctx_id, tag, ws, i,
                                                      acc, op)
        elif algo == "hierarchical":
            result = self._hier_allreduce(
                ctx_id, tag, groups, acc, op.np_func,
                lambda mws: self._buf_io(ctx_id, mws, sdt.np_dtype,
                                         scount, "Allreduce"))
        else:
            send, recv = self._buf_io(ctx_id, ws, sdt.np_dtype, scount,
                                      "Allreduce")
            result = self._allreduce_recdbl(tag, ws, i, acc, op.np_func,
                                            send, recv)
        rflat[:scount] = np.asarray(result).view(rdt.np_dtype)[:scount]

    @_traced_collective("reduce+bcast")
    def Allreduce(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM,
                  algorithm: Optional[str] = None) -> None:
        """Size-adaptive allreduce of a NumPy buffer."""
        self._allreduce_buffer(sendbuf, recvbuf, op, algorithm)

    @_traced_collective("alltoall+fold")
    def reduce_scatter(self, sendobjs: Sequence[Any],
                       op: _ops.Op = _ops.SUM) -> Any:
        """Reduce comm.size contributions elementwise, scatter the results:
        rank r receives the reduction of everyone's sendobjs[r]."""
        if len(sendobjs) != self._size:
            raise ValueError("reduce_scatter needs comm.size send objects")
        shuffled = self.alltoall(list(sendobjs))
        acc = shuffled[0]
        for part in shuffled[1:]:
            acc = op(acc, part)
        return acc

    @_traced_collective("linear-chain")
    def Scan(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM) -> None:
        """Inclusive prefix reduction over buffers (linear chain)."""
        ctx_id, tag = self._next_coll()
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        acc = sflat[:scount].astype(sdt.np_dtype, copy=True)
        if self._rank > 0:
            msg = self._ctx.recv_message(
                ctx_id, self._world_ranks[self._rank - 1], tag)
            incoming = np.asarray(msg.payload).view(sdt.np_dtype)
            if incoming.size != acc.size:
                raise TruncationError(
                    f"Scan expected {acc.size} elements, received "
                    f"{incoming.size}: payload truncated in flight")
            acc = op.np_func(incoming, acc)
        if self._rank + 1 < self._size:
            self._ctx.send_buffer(self._world_ranks[self._rank + 1],
                                  ctx_id, tag, acc)
        rflat, _rc, rdt = decode_buffer_spec(recvbuf)
        rflat[:acc.size] = acc.view(rdt.np_dtype)

    @_traced_collective("linear-chain")
    def Exscan(self, sendbuf, recvbuf, op: _ops.Op = _ops.SUM) -> None:
        """Exclusive prefix reduction over buffers; rank 0's recvbuf is
        left untouched (MPI leaves it undefined)."""
        ctx_id, tag = self._next_coll()
        sflat, scount, sdt = decode_buffer_spec(sendbuf)
        prefix = None
        if self._rank > 0:
            msg = self._ctx.recv_message(
                ctx_id, self._world_ranks[self._rank - 1], tag)
            prefix = np.asarray(msg.payload).view(sdt.np_dtype).copy()
            if prefix.size != scount:
                raise TruncationError(
                    f"Exscan expected {scount} elements, received "
                    f"{prefix.size}: payload truncated in flight")
        if self._rank + 1 < self._size:
            acc = sflat[:scount].astype(sdt.np_dtype, copy=True) \
                if prefix is None else op.np_func(prefix, sflat[:scount])
            self._ctx.send_buffer(self._world_ranks[self._rank + 1],
                                  ctx_id, tag, np.asarray(acc))
        if prefix is not None:
            rflat, _rc, rdt = decode_buffer_spec(recvbuf)
            rflat[:prefix.size] = prefix.view(rdt.np_dtype)

    # ------------------------------------------------------------------
    # communicator construction
    # ------------------------------------------------------------------
    def dup(self) -> "Intracomm":
        """Duplicate: same group, isolated context."""
        seq = self._child_seq
        self._child_seq += 1
        return Intracomm(self._ctx, self._world_ranks,
                         ctx_id=(self._ctx_id, "dup", seq))

    Dup = dup

    def split(self, color: int, key: int = 0) -> Optional["Intracomm"]:
        """Partition the communicator by *color*, ordering ranks by *key*.

        Returns ``None`` on ranks passing a negative color (MPI_UNDEFINED).
        """
        seq = self._child_seq
        self._child_seq += 1
        triples = self.allgather((color, key, self._rank))
        if color < 0:
            return None
        members = sorted(
            (k, r) for (c, k, r) in triples if c == color)
        ranks = [self._world_ranks[r] for (_k, r) in members]
        return Intracomm(self._ctx, ranks,
                         ctx_id=(self._ctx_id, "split", seq, color))

    Split = split

    def Create(self, group: Group) -> Optional["Intracomm"]:
        """Communicator over a subgroup (collective over the parent)."""
        seq = self._child_seq
        self._child_seq += 1
        self.barrier()
        if group.rank_of(self._ctx.rank) < 0:
            return None
        return Intracomm(self._ctx, group.world_ranks(),
                         ctx_id=(self._ctx_id, "create", seq))

    def Free(self) -> None:
        """No-op: contexts are garbage collected."""

    # ------------------------------------------------------------------
    # ULFM fault tolerance: revoke / agree / shrink
    # ------------------------------------------------------------------
    def revoke(self) -> None:
        """Revoke this communicator (ULFM ``MPI_Comm_revoke``).

        Non-collective: any single member may call it.  All members'
        in-flight and future operations on this communicator raise
        :class:`CommRevokedError` (blocked waiters wake within the 0.25 s
        detection period).  Derived communicators are not revoked.
        Idempotent.
        """
        self._ctx.world.revoke_ctx(self._ctx_id)
        if _TR.enabled:
            _TR.instant("mpi.coll", "revoke", rank=self._ctx.rank)
        if _MX.enabled:
            _MX.inc("mpi.coll.calls", op="revoke", algorithm="revoke")

    def agree(self, value: Any = 1, combine=None) -> Any:
        """Fault-tolerant agreement (ULFM ``MPI_Comm_agree``).

        Returns ``combine`` over the contributions of every member that
        has not failed -- identically on all survivors, even if members
        die mid-agreement.  The default *combine* is the bitwise AND of
        integer contributions, matching the MPI standard's operator.
        Works on revoked communicators (it is the one collective that
        must, since recovery is negotiated after a revoke).
        """
        seq = self._agree_seq
        self._agree_seq += 1
        if combine is None:
            def combine(values):
                out = ~0
                for v in values:
                    out &= int(v)
                return out
        return self._ctx.world.agreement(
            (self._ctx_id, "agree", seq), self._ctx.rank, value,
            self._world_ranks, combine)

    def shrink(self) -> "Intracomm":
        """New communicator over the surviving members, densely re-ranked
        in parent rank order (ULFM ``MPI_Comm_shrink``).

        Members first agree on the union of their failed-rank views, so
        every survivor constructs the same group.  Works on revoked
        communicators.  A member that dies *after* contributing to the
        agreement may still appear in the shrunk group; the next
        operation on it raises :class:`RankFailure` and the caller can
        shrink again.
        """
        seq = self._agree_seq
        self._agree_seq += 1
        world = self._ctx.world
        failed = world.agreement(
            (self._ctx_id, "shrink", seq), self._ctx.rank,
            frozenset(world.failed_ranks()), self._world_ranks,
            lambda views: frozenset().union(*views))
        survivors = [wr for wr in self._world_ranks if wr not in failed]
        if _TR.enabled:
            _TR.instant("mpi.coll", "shrink", rank=self._ctx.rank,
                        survivors=len(survivors), failed=len(failed))
        if _MX.enabled:
            _MX.inc("mpi.coll.calls", op="shrink", algorithm="shrink")
        return Intracomm(self._ctx, survivors,
                         ctx_id=(self._ctx_id, "shrink", seq))

    def Abort(self, errorcode: int = 1) -> None:
        self._ctx.world.abort(self._ctx.rank,
                              RuntimeError(f"MPI_Abort({errorcode})"))
        self._ctx.world.check_abort()
