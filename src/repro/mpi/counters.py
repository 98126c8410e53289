"""Per-rank communication instrumentation.

Every message that passes through the runtime is counted here, so
higher layers (ODIN's communication-strategy chooser, the Fig.-1 control
plane experiment, the alpha-beta scaling model) work from *measured*
traffic rather than estimates.  Both directions are attributed per peer:
``by_peer`` maps destination world rank to bytes sent, ``by_peer_recv``
maps source world rank to bytes received.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, defaultdict
from typing import Sequence

import numpy as np

__all__ = ["CommCounters", "CounterSnapshot"]

# by_causal keeps per-op_id collective counts for this many distinct
# recent op_ids (FIFO eviction): enough to audit any live control op or
# recent crash window without unbounded growth over a long run
_CAUSAL_CAP = 512


class CounterSnapshot:
    """Immutable copy of one rank's counters at a point in time."""

    __slots__ = ("sends", "recvs", "bytes_sent", "bytes_recvd", "by_peer",
                 "by_peer_recv", "coll_calls", "by_causal")

    def __init__(self, sends, recvs, bytes_sent, bytes_recvd, by_peer,
                 by_peer_recv=(), coll_calls=(), by_causal=()):
        self.sends = sends
        self.recvs = recvs
        self.bytes_sent = bytes_sent
        self.bytes_recvd = bytes_recvd
        self.by_peer = dict(by_peer)
        self.by_peer_recv = dict(by_peer_recv)
        # (collective op name, algorithm label) -> call count (completed
        # or in progress: a call is counted before its first message);
        # the counter-side record of what the trace spans claim, so the
        # two can be cross-checked without a tracer attached
        self.coll_calls = dict(coll_calls)
        # causal op_id -> {collective op name: calls} for recent ODIN
        # control ops (bounded; see _CAUSAL_CAP)
        self.by_causal = {k: dict(v) for k, v in dict(by_causal).items()}

    def algorithms_used(self, op: str = None):
        """Algorithm labels recorded for *op* (or any op when None)."""
        return {algo for (name, algo) in self.coll_calls
                if op is None or name == op}

    def __sub__(self, other):
        """Traffic delta between two snapshots (self - other).

        *other* may be ``None`` (a rank that crashed before its baseline
        could be captured): the delta is then ``self`` unchanged, so
        post-mortem reports over a partially-dead world never raise.
        """
        if other is None:
            return CounterSnapshot(self.sends, self.recvs, self.bytes_sent,
                                   self.bytes_recvd, self.by_peer,
                                   self.by_peer_recv, self.coll_calls,
                                   self.by_causal)
        by_peer = defaultdict(int, self.by_peer)
        for peer, nbytes in other.by_peer.items():
            by_peer[peer] -= nbytes
        by_peer_recv = defaultdict(int, self.by_peer_recv)
        for peer, nbytes in other.by_peer_recv.items():
            by_peer_recv[peer] -= nbytes
        coll_calls = defaultdict(int, self.coll_calls)
        for key, n in other.coll_calls.items():
            coll_calls[key] -= n
        by_causal = {}
        for oid, ops in self.by_causal.items():
            prior = other.by_causal.get(oid, {})
            delta = {op: n - prior.get(op, 0) for op, n in ops.items()}
            delta = {op: n for op, n in delta.items() if n}
            if delta:
                by_causal[oid] = delta
        return CounterSnapshot(
            self.sends - other.sends,
            self.recvs - other.recvs,
            self.bytes_sent - other.bytes_sent,
            self.bytes_recvd - other.bytes_recvd,
            {p: b for p, b in by_peer.items() if b},
            {p: b for p, b in by_peer_recv.items() if b},
            {k: n for k, n in coll_calls.items() if n},
            by_causal,
        )

    @staticmethod
    def matrix(snapshots: Sequence["CounterSnapshot"],
               nranks: int = None) -> np.ndarray:
        """Dense rank-by-rank bytes array from per-rank snapshots.

        ``matrix[i, j]`` is the bytes rank *i* sent to rank *j*,
        reconciled from both sides of the wire: the sender's ``by_peer``
        and the receiver's ``by_peer_recv`` (elementwise max, so
        one-sided transfers counted on a single end still appear).
        This is the single aggregation point behind both
        :func:`repro.trace.export.traffic_report` and the analyzer's
        communication-matrix report.

        A ``None`` entry stands for a rank that crashed mid-run (its
        counters were lost): its rows/columns come out zero except where
        surviving peers counted traffic against it -- missing peer keys
        never raise.
        """
        peers = [p for snap in snapshots if snap is not None
                 for p in (*snap.by_peer, *snap.by_peer_recv)]
        n = max(len(snapshots), 1 + max(peers, default=-1)) \
            if nranks is None else nranks
        mat = np.zeros((n, n), dtype=np.int64)
        for i, snap in enumerate(snapshots):
            if snap is None:
                continue
            for peer, nbytes in snap.by_peer.items():
                if peer < n:
                    mat[i, peer] = max(mat[i, peer], nbytes)
            for peer, nbytes in snap.by_peer_recv.items():
                if peer < n:
                    mat[peer, i] = max(mat[peer, i], nbytes)
        return mat

    def __repr__(self):
        return (f"CounterSnapshot(sends={self.sends}, recvs={self.recvs}, "
                f"bytes_sent={self.bytes_sent}, bytes_recvd={self.bytes_recvd})")


class CommCounters:
    """Mutable per-rank traffic counters. Thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self.sends = 0
        self.recvs = 0
        self.bytes_sent = 0
        self.bytes_recvd = 0
        # dest rank (world numbering) -> bytes sent to that peer
        self.by_peer = defaultdict(int)
        # source rank (world numbering) -> bytes received from that peer
        self.by_peer_recv = defaultdict(int)
        # (op, algorithm) -> collective calls completed or in progress
        self.coll_calls = defaultdict(int)
        # causal op_id -> {op: calls}, bounded FIFO over recent op_ids
        self.by_causal = OrderedDict()

    def record_coll(self, op: str, algorithm: str,
                    op_id=None, n: int = 1) -> None:
        """Count a collective call once its algorithm is fixed, before
        its first message; ``n=-1`` takes back a call that raised."""
        with self._lock:
            key = (op, algorithm)
            self.coll_calls[key] += n
            if not self.coll_calls[key]:
                del self.coll_calls[key]
            if op_id is not None:
                ops = self.by_causal.get(op_id)
                if ops is None:
                    ops = self.by_causal[op_id] = {}
                    while len(self.by_causal) > _CAUSAL_CAP:
                        self.by_causal.popitem(last=False)
                ops[op] = ops.get(op, 0) + n
                if not ops[op]:
                    del ops[op]

    def record_send(self, dest_world_rank: int, nbytes: int) -> None:
        with self._lock:
            self.sends += 1
            self.bytes_sent += nbytes
            self.by_peer[dest_world_rank] += nbytes

    def record_recv(self, src_world_rank: int, nbytes: int) -> None:
        with self._lock:
            self.recvs += 1
            self.bytes_recvd += nbytes
            self.by_peer_recv[src_world_rank] += nbytes

    def absorb(self, snap: CounterSnapshot) -> None:
        """Merge a snapshot into this counter (driver-side merge of a
        remote rank's counters in the process backend: the snapshot
        crossed the wire, the live object could not)."""
        if snap is None:
            return
        with self._lock:
            self.sends += snap.sends
            self.recvs += snap.recvs
            self.bytes_sent += snap.bytes_sent
            self.bytes_recvd += snap.bytes_recvd
            for peer, nbytes in snap.by_peer.items():
                self.by_peer[peer] += nbytes
            for peer, nbytes in snap.by_peer_recv.items():
                self.by_peer_recv[peer] += nbytes
            for key, n in snap.coll_calls.items():
                self.coll_calls[key] += n
            for oid, ops in snap.by_causal.items():
                cur = self.by_causal.get(oid)
                if cur is None:
                    cur = self.by_causal[oid] = {}
                    while len(self.by_causal) > _CAUSAL_CAP:
                        self.by_causal.popitem(last=False)
                for op, n in ops.items():
                    cur[op] = cur.get(op, 0) + n

    def snapshot(self) -> CounterSnapshot:
        with self._lock:
            return CounterSnapshot(self.sends, self.recvs, self.bytes_sent,
                                   self.bytes_recvd, self.by_peer,
                                   self.by_peer_recv, self.coll_calls,
                                   self.by_causal)

    def reset(self) -> None:
        with self._lock:
            self.sends = self.recvs = 0
            self.bytes_sent = self.bytes_recvd = 0
            self.by_peer.clear()
            self.by_peer_recv.clear()
            self.coll_calls.clear()
            self.by_causal.clear()
