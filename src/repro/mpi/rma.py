"""One-sided communication (MPI-3 RMA): windows, Put/Get/Accumulate.

The mpi4py interface this substrate mirrors exposes RMA; ODIN-style
runtimes use it for halo updates without matching receives.  Semantics
implemented here:

- ``Win.Create(buffer, comm)`` is collective; every rank exposes a local
  NumPy array.
- Active-target synchronization with ``Fence()`` (a barrier); one-sided
  ops are only legal inside an open epoch, and complete by the closing
  fence (here: immediately, under a per-target lock -- legal, as MPI only
  *allows* delay).
- Passive target ``Lock(rank)/Unlock(rank)`` for lock-based access.

Data movement is counted in the traffic counters with the true direction
(Put/Accumulate: origin->target; Get: target->origin).
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..chaos.core import ENGINE as _CH
from ..metrics import REGISTRY as _MX
from ..trace import TRACER as _TR
from . import ops as _ops
from .comm import Intracomm
from .errors import MPIError, RankError

__all__ = ["Win"]


class Win:
    """An RMA window over each rank's exposed local buffer."""

    _registry_guard = threading.Lock()

    def __init__(self, comm: Intracomm, buffer: np.ndarray, win_id):
        self.comm = comm
        self._id = win_id
        self._epoch = False
        world = comm.context.world
        with Win._registry_guard:
            registry = getattr(world, "_rma_windows", None)
            if registry is None:
                registry = {}
                world._rma_windows = registry
            table = registry.setdefault(win_id, {})
        table[comm.context.rank] = (buffer, threading.RLock())
        self._table: Dict[int, Tuple[np.ndarray, threading.Lock]] = table
        comm.barrier()  # Create is collective: all buffers registered

    @classmethod
    def Create(cls, buffer, comm: Intracomm) -> "Win":
        buffer = np.asarray(buffer)
        if not buffer.flags["C_CONTIGUOUS"]:
            raise ValueError("window buffers must be C-contiguous")
        # SPMD-consistent window id from the comm's collective stream
        win_id = (comm._ctx_id, "win", comm._coll_seq)
        return cls(comm, buffer, win_id)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def Fence(self) -> None:
        """Open/continue an active-target epoch (collective barrier)."""
        self.comm.barrier()
        self._epoch = True

    def Lock(self, rank: int) -> None:
        """Begin passive-target access to *rank*'s window.

        The per-target lock is reentrant, so one-sided operations issued
        inside a Lock/Unlock epoch (same thread) nest safely.  On the
        process backend a remote target's lock lives in its process and
        is held by the RMA service around each individual operation:
        Lock/Unlock then only opens the epoch -- per-op atomicity is
        preserved, cross-op mutual exclusion between concurrent origins
        is not (see docs/INTERNALS.md §11).
        """
        if self._is_remote(rank):
            self._epoch = True
            return
        self._target_entry(rank)[1].acquire()
        self._epoch = True

    def Unlock(self, rank: int) -> None:
        if self._is_remote(rank):
            return
        self._target_entry(rank)[1].release()

    # ------------------------------------------------------------------
    # one-sided operations
    # ------------------------------------------------------------------
    def _target_entry(self, rank: int):
        if not 0 <= rank < self.comm.size:
            raise RankError(f"rank {rank} out of range")
        world_rank = self.comm.world_rank(rank)
        try:
            return self._table[world_rank]
        except KeyError:
            raise MPIError("window not exposed on target (Create not "
                           "called there?)") from None

    def _is_remote(self, rank: int) -> bool:
        """Does *rank*'s window buffer live in another process?

        Thread backend: never (all buffers share the table).  Process
        backend: any rank but our own -- those ops ship over the mesh to
        the target's RMA service (:meth:`ProcessWorld._rma_apply_put`
        and friends), which applies them under the target-side lock.
        """
        if not 0 <= rank < self.comm.size:
            raise RankError(f"rank {rank} out of range")
        return self.comm.context.world.is_remote_rank(
            self.comm.world_rank(rank))

    def _check_epoch(self):
        if not self._epoch:
            raise MPIError("one-sided operation outside an access epoch; "
                           "call Fence() or Lock() first")

    def Put(self, origin: np.ndarray, target_rank: int,
            target_offset: int = 0) -> None:
        """Write *origin* into the target window at element offset."""
        self._check_epoch()
        if _CH.enabled:
            _CH.on_op("rma", self.comm.context.rank,
                      peer=self.comm.world_rank(target_rank))
        t0 = _TR.now() if _TR.enabled else 0.0
        data = np.ascontiguousarray(origin)
        if self._is_remote(target_rank):
            self.comm.context.world.rma_put(
                self._id, self.comm.world_rank(target_rank),
                target_offset, data)
        else:
            buf, lock = self._target_entry(target_rank)
            flat = buf.reshape(-1)
            n = data.size
            if target_offset + n > flat.size:
                raise MPIError("Put overruns the target window")
            with lock:
                flat[target_offset:target_offset + n] = \
                    data.reshape(-1).astype(buf.dtype, copy=False)
        self.comm.counters().record_send(
            self.comm.world_rank(target_rank), data.nbytes)
        if _TR.enabled:
            _TR.complete("mpi.rma", "Put", self.comm.context.rank, t0,
                         target=self.comm.world_rank(target_rank),
                         nbytes=data.nbytes)
        if _MX.enabled:
            _MX.inc("mpi.rma.bytes", data.nbytes, op="Put")

    def Get(self, origin: np.ndarray, target_rank: int,
            target_offset: int = 0) -> None:
        """Read from the target window into *origin*."""
        self._check_epoch()
        if _CH.enabled:
            _CH.on_op("rma", self.comm.context.rank,
                      peer=self.comm.world_rank(target_rank))
        t0 = _TR.now() if _TR.enabled else 0.0
        world = self.comm.context.world
        target_world = self.comm.world_rank(target_rank)
        out = origin.reshape(-1)
        if self._is_remote(target_rank):
            got = world.rma_get(self._id, target_world, target_offset,
                                out.size, origin.dtype)
            out[...] = got
            # the target-side service recorded its send; count only the
            # receive here
        else:
            buf, lock = self._target_entry(target_rank)
            flat = buf.reshape(-1)
            n = out.size
            if target_offset + n > flat.size:
                raise MPIError("Get overruns the target window")
            with lock:
                out[...] = flat[target_offset:target_offset + n].astype(
                    origin.dtype, copy=False)
            # data flowed target -> origin
            world.counters[target_world].record_send(
                self.comm.context.rank, out.nbytes)
        self.comm.counters().record_recv(target_world, out.nbytes)
        if _TR.enabled:
            _TR.complete("mpi.rma", "Get", self.comm.context.rank, t0,
                         target=target_world, nbytes=out.nbytes)
        if _MX.enabled:
            _MX.inc("mpi.rma.bytes", out.nbytes, op="Get")

    def Accumulate(self, origin: np.ndarray, target_rank: int,
                   target_offset: int = 0,
                   op: _ops.Op = _ops.SUM) -> None:
        """Combine *origin* into the target window with *op* (atomically
        with respect to other accumulates on the same target)."""
        self._check_epoch()
        if _CH.enabled:
            _CH.on_op("rma", self.comm.context.rank,
                      peer=self.comm.world_rank(target_rank))
        t0 = _TR.now() if _TR.enabled else 0.0
        data = np.ascontiguousarray(origin)
        if self._is_remote(target_rank):
            self.comm.context.world.rma_acc(
                self._id, self.comm.world_rank(target_rank),
                target_offset, data, op)
        else:
            buf, lock = self._target_entry(target_rank)
            flat = buf.reshape(-1)
            n = data.size
            if target_offset + n > flat.size:
                raise MPIError("Accumulate overruns the target window")
            with lock:
                sl = slice(target_offset, target_offset + n)
                flat[sl] = op.np_func(flat[sl], data.reshape(-1))
        self.comm.counters().record_send(
            self.comm.world_rank(target_rank), data.nbytes)
        if _TR.enabled:
            _TR.complete("mpi.rma", "Accumulate",
                         self.comm.context.rank, t0,
                         target=self.comm.world_rank(target_rank),
                         nbytes=data.nbytes)
        if _MX.enabled:
            _MX.inc("mpi.rma.bytes", data.nbytes, op="Accumulate")

    def Free(self) -> None:
        """Collective teardown."""
        self.comm.barrier()
        self._table.pop(self.comm.context.rank, None)
        self._epoch = False

    def __enter__(self) -> "Win":
        return self

    def __exit__(self, *exc) -> None:
        self.Free()
