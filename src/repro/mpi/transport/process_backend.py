"""Multiprocess transport: one OS process per rank, real parallelism.

:class:`ProcessWorld` subclasses the thread runtime's :class:`World` and
replaces its shared-address-space transport with a fork-inherited
socketpair mesh plus shared-memory bulk frames (:mod:`.wire`,
:mod:`.shm`).  Every rank runs the *same* :class:`Intracomm` /
collective / ULFM code as the thread backend -- only ``deliver``,
failure propagation, agreement and the counters plumbing change:

- ``deliver`` to a remote rank encodes the envelope onto the peer
  socket; a receiver thread on the other side deposits it into that
  process's (single, local) mailbox.  Self-sends keep the thread
  backend's in-memory fast path.
- A dead process is a *real* failure: the kernel closes its sockets, the
  peer's receiver thread reads EOF and calls ``mark_failed`` -- the same
  typed :class:`RankFailure` surface the thread backend produces from
  injection, detected within one 0.25 s mailbox wake of the EOF.  A
  rank dying *politely* (fail-stop injection) broadcasts ``FAILSTOP``
  with its pickled cause first, so survivors see the true cause rather
  than a bare connection-lost error.
- ``revoke``/``abort`` broadcast control frames and then apply locally;
  receivers apply without re-broadcast, so propagation terminates.
- ULFM agreement cannot rendezvous in shared memory, so every
  participant broadcasts its contribution and each process runs the
  same deterministic combine over the same sorted contribution set; the
  first process to decide also broadcasts ``DECIDED`` so racy observers
  adopt a single result.  (With a rank SIGKILLed halfway through its
  own contribution broadcast, two survivors could in principle observe
  different contribution sets; the ``DECIDED`` fast path shrinks that
  window but the single-decision-point guarantee of the thread backend
  is fundamentally relaxed here -- see docs/INTERNALS.md §11.)
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import (AbortError, DeadlockError, InjectedFault, MPIError,
                      RankFailure)
from ..runtime import (Message, RankContext, World, _NOT_FAILED,
                       default_timeout)
from ..counters import CounterSnapshot
from ...trace import TRACER as _TR
from . import wire
from .shm import (ShmPool, new_session_id, register_atexit_sweep,
                  sweep_session)

__all__ = ["ProcessMesh", "ProcessWorld", "run_spmd_process"]


def _picklable_exc(exc: Optional[BaseException]) -> Optional[BaseException]:
    """An exception safe to put in a wire header (fallback: repr)."""
    if exc is None:
        return None
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(f"[unpicklable {type(exc).__name__}] {exc!r}")


class ProcessMesh:
    """Pre-fork socketpair mesh: one pair per rank pair.

    Created in the parent *before* forking so every rank inherits all
    endpoints; :meth:`activate` then keeps only the calling rank's ends
    and closes the rest -- which is what makes peer EOF detection work
    (an fd held open by a bystander process would suppress the EOF).
    """

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.session_id = new_session_id()
        self._pairs: Dict[tuple, tuple] = {}
        for i in range(nranks):
            for j in range(i + 1, nranks):
                self._pairs[(i, j)] = socket.socketpair()

    def activate(self, rank: int) -> Dict[int, socket.socket]:
        """Claim *rank*'s endpoints, closing every other inherited fd."""
        socks: Dict[int, socket.socket] = {}
        for (i, j), (a, b) in self._pairs.items():
            if i == rank:
                socks[j] = a
                b.close()
            elif j == rank:
                socks[i] = b
                a.close()
            else:
                a.close()
                b.close()
        self._pairs = {}
        return socks

    def close_all(self) -> None:
        """Drop every endpoint (a parent that is not itself a rank)."""
        for a, b in self._pairs.values():
            a.close()
            b.close()
        self._pairs = {}


class ProcessWorld(World):
    """A :class:`World` whose remote ranks live in other processes."""

    is_process_backend = True

    def __init__(self, nranks: int, my_rank: int, session_id: str,
                 socks: Dict[int, socket.socket],
                 timeout: Optional[float] = None):
        super().__init__(nranks, timeout=timeout)
        self.my_rank = my_rank
        self.session_id = session_id
        self.shm = ShmPool(session_id, my_rank)
        self._channels = {peer: wire.Channel(s)
                          for peer, s in socks.items()}
        self._closing = False
        # peers that closed in order (said BYE): their EOF is no failure
        self._departed: set = set()
        # reply slots for round-trip control ops (counter fetch, RMA get)
        self._reply_cond = threading.Condition()
        self._replies: Dict[tuple, Any] = {}
        self._reply_seq = 0
        # rank -> multiprocessing.Process lease (parent-side liveness)
        self._rank_procs: Dict[int, Any] = {}
        self._recv_threads = [
            threading.Thread(target=self._recv_loop, args=(peer,),
                             name=f"transport-recv-{my_rank}<-{peer}",
                             daemon=True)
            for peer in sorted(self._channels)
        ]
        for t in self._recv_threads:
            t.start()

    # -- rank topology ------------------------------------------------------
    def is_remote_rank(self, rank: int) -> bool:
        return rank != self.my_rank

    def register_rank_process(self, rank: int, proc) -> None:
        """Register a child process as *rank*'s lease: if it exits
        without reporting, blocked local waiters detect the failure on
        their next 0.25 s wake (same bound as the thread backend)."""
        self._rank_procs[rank] = proc

    def check_leases(self) -> None:
        super().check_leases()
        for rank, proc in list(self._rank_procs.items()):
            if not (proc.is_alive() or self.is_failed(rank)
                    or rank in self._departed):
                with self._fail_lock:
                    if rank not in self._failed:
                        self._failed[rank] = RuntimeError(
                            f"rank {rank} process exited without reporting "
                            f"(exit code {proc.exitcode})")
                        self.has_failures = True

    # -- control-plane sends ------------------------------------------------
    def _send_control(self, peer: int, msgtype: int, body,
                      chunks: Sequence = ()) -> bool:
        ch = self._channels.get(peer)
        if ch is None or self._closing:
            return False
        try:
            ch.send(msgtype, body, chunks)
            return True
        except OSError:
            self._peer_lost(peer)
            return False

    def _broadcast_control(self, msgtype: int, body) -> None:
        for peer in sorted(self._channels):
            if not self.is_failed(peer):
                self._send_control(peer, msgtype, body)

    def _peer_lost(self, peer: int) -> None:
        if (self._closing or self.aborted or self.is_failed(peer)
                or peer in self._departed):
            return
        World.mark_failed(self, peer, RuntimeError(
            f"rank {peer} transport closed (process exited?)"))

    # -- failure propagation (broadcast + local apply) ----------------------
    def mark_failed(self, rank: int,
                    cause: Optional[BaseException] = None) -> None:
        if rank == self.my_rank and not self._closing:
            # dying politely: tell the peers the true cause before the
            # socket EOF would tell them a generic one
            self._broadcast_control(wire.FAILSTOP,
                                    (rank, _picklable_exc(cause)))
        super().mark_failed(rank, cause)

    def abort(self, origin_rank: int, cause: BaseException) -> None:
        if not self.aborted and not self._closing:
            self._broadcast_control(wire.ABORT,
                                    (origin_rank, _picklable_exc(cause)))
        super().abort(origin_rank, cause)

    def revoke_ctx(self, base_ctx_id) -> None:
        if not self._closing and not self.is_revoked(base_ctx_id):
            self._broadcast_control(wire.REVOKE, base_ctx_id)
        super().revoke_ctx(base_ctx_id)

    # -- fault-tolerant agreement (distributed flavour) ---------------------
    def agreement(self, key, rank: int, value, participants, combine):
        participants = list(participants)
        self._broadcast_control(wire.AGREE, (key, rank, value))
        with self._agree_cond:
            slot = self._agree_slots.setdefault(key, {})
            if not isinstance(slot, dict):
                return slot[1]
            slot[rank] = value
            self._agree_cond.notify_all()
            deadline = time.monotonic() + (
                self.timeout if self.deadline is None
                else min(self.timeout, self.deadline))
            while True:
                self.check_abort()
                self.check_leases()
                slot = self._agree_slots[key]
                if not isinstance(slot, dict):
                    return slot[1]
                waiting = [r for r in participants
                           if r not in slot and not self.is_failed(r)]
                if not waiting:
                    pset = set(participants)
                    result = combine([slot[r] for r in sorted(slot)
                                      if r in pset])
                    self._agree_slots[key] = ("decided", result)
                    self._agree_cond.notify_all()
                    self._broadcast_control(wire.DECIDED, (key, result))
                    return result
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"agreement {key!r} timed out waiting for ranks "
                        f"{waiting}\n" + self.pending_dump())
                self._agree_cond.wait(timeout=min(remaining, 0.25))

    def _apply_agree(self, key, rank: int, value) -> None:
        with self._agree_cond:
            slot = self._agree_slots.setdefault(key, {})
            if isinstance(slot, dict):
                slot[rank] = value
                self._agree_cond.notify_all()

    def _apply_decided(self, key, result) -> None:
        with self._agree_cond:
            slot = self._agree_slots.get(key)
            if slot is None or isinstance(slot, dict):
                self._agree_slots[key] = ("decided", result)
                self._agree_cond.notify_all()

    # -- transport ----------------------------------------------------------
    def deliver(self, src: int, dest: int, ctx_id, tag, kind, payload,
                nbytes, jump: int = 0) -> int:
        if dest == self.my_rank:
            return super().deliver(src, dest, ctx_id, tag, kind, payload,
                                   nbytes, jump)
        seq = self._pair_seq.get((src, dest), 0) + 1
        self._pair_seq[(src, dest)] = seq
        self._heartbeat[src] = time.monotonic()
        self.counters[src].record_send(dest, nbytes)
        if self.is_failed(dest) or self._closing:
            # parity with the thread backend, where a send to a dead
            # rank deposits into a mailbox nobody will ever read
            return seq
        ch = self._channels.get(dest)
        if ch is None:
            return seq
        spec, chunks = wire.encode_payload(self.shm, kind, payload)
        try:
            ch.send(wire.DATA,
                    (ctx_id, src, tag, kind, nbytes, seq, jump, spec),
                    chunks)
        except OSError:
            self._peer_lost(dest)
        return seq

    # -- receiver threads ---------------------------------------------------
    def _recv_loop(self, peer: int) -> None:
        ch = self._channels[peer]
        while True:
            try:
                msgtype, body, chunks = ch.recv()
            except (EOFError, OSError):
                self._peer_lost(peer)
                return
            self._heartbeat[peer] = time.monotonic()
            if msgtype == wire.BYE:
                self._departed.add(peer)
                continue
            try:
                self._dispatch(peer, msgtype, body, chunks)
            except (EOFError, OSError):
                self._peer_lost(peer)
                return
            except Exception as exc:  # noqa: BLE001 - poison, don't hang
                self.abort(self.my_rank, RuntimeError(
                    f"transport receiver for peer {peer} failed: {exc!r}"))
                return

    def _dispatch(self, peer: int, msgtype: int, body, chunks) -> None:
        if msgtype == wire.DATA:
            ctx_id, src, tag, kind, nbytes, seq, jump, spec = body
            try:
                payload = wire.decode_payload(self.shm, kind, spec, chunks)
            except FileNotFoundError:
                # the frame's segment was swept: its sender died and the
                # parent cleaned up before we attached
                self._peer_lost(src)
                return
            self.mailboxes[self.my_rank].deposit(
                Message(ctx_id, src, tag, kind, payload, nbytes, seq),
                jump)
        elif msgtype == wire.FAILSTOP:
            rank, cause = body
            if not self.is_failed(rank):
                World.mark_failed(self, rank, cause)
        elif msgtype == wire.ABORT:
            origin, cause = body
            World.abort(self, origin, cause)
        elif msgtype == wire.REVOKE:
            World.revoke_ctx(self, body)
        elif msgtype == wire.AGREE:
            key, rank, value = body
            self._apply_agree(key, rank, value)
        elif msgtype == wire.DECIDED:
            key, result = body
            self._apply_decided(key, result)
        elif msgtype == wire.CTRS_REQ:
            snap = self.counters[self.my_rank].snapshot()
            self._send_control(peer, wire.CTRS_REP, (body, snap))
        elif msgtype == wire.CTRS_REP:
            reply_id, snap = body
            self._store_reply(reply_id, snap)
        elif msgtype == wire.CTRS_RESET:
            self.counters[self.my_rank].reset()
        elif msgtype == wire.RMA_PUT:
            self._rma_apply_put(peer, *body)
        elif msgtype == wire.RMA_GET:
            self._rma_apply_get(peer, *body)
        elif msgtype == wire.RMA_REP:
            reply_id, data = body
            self._store_reply(reply_id, data)
        elif msgtype == wire.RMA_ACC:
            self._rma_apply_acc(peer, *body)
        elif msgtype == wire.HB:
            pass  # the heartbeat stamp above is the whole effect

    # -- round-trip control helpers -----------------------------------------
    def _new_reply_id(self) -> tuple:
        with self._reply_cond:
            self._reply_seq += 1
            return (self.my_rank, self._reply_seq)

    def _store_reply(self, reply_id, value) -> None:
        with self._reply_cond:
            self._replies[reply_id] = value
            self._reply_cond.notify_all()

    def _await_reply(self, reply_id, peer: int,
                     timeout: Optional[float] = None):
        deadline = time.monotonic() + (self.timeout if timeout is None
                                       else timeout)
        with self._reply_cond:
            while reply_id not in self._replies:
                self.check_abort()
                if self.is_failed(peer):
                    raise RankFailure(peer, f"control reply {reply_id}",
                                      self.failure_cause(peer)
                                      if self.failure_cause(peer)
                                      is not _NOT_FAILED else None)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"control round-trip to rank {peer} timed out")
                self._reply_cond.wait(timeout=min(remaining, 0.25))
            return self._replies.pop(reply_id)

    def fetch_counters(self, rank: int) -> Optional[CounterSnapshot]:
        """Snapshot *rank*'s counters (remote fetch over the mesh);
        ``None`` when the rank is unreachable."""
        if rank == self.my_rank:
            return self.counters[rank].snapshot()
        if self.is_failed(rank) or self._closing:
            return None
        rid = self._new_reply_id()
        if not self._send_control(rank, wire.CTRS_REQ, rid):
            return None
        try:
            return self._await_reply(rid, rank, timeout=10.0)
        except (RankFailure, DeadlockError, AbortError):
            return None

    def reset_all_counters(self) -> None:
        self._broadcast_control(wire.CTRS_RESET, None)
        for c in self.counters:
            c.reset()

    # -- remote RMA service -------------------------------------------------
    def _rma_window(self, win_id):
        table = getattr(self, "_rma_windows", {}).get(win_id)
        entry = None if table is None else table.get(self.my_rank)
        if entry is None:
            raise MPIError(f"RMA request for unknown window {win_id!r}")
        return entry

    def rma_put(self, win_id, target: int, offset: int,
                data: np.ndarray) -> None:
        # synchronous on purpose: the ack guarantees the write is applied
        # before this op returns, so a closing Fence() barrier (whose
        # messages may route around the origin->target edge) can never
        # overtake it; MPI only *allows* delaying completion to the fence
        rid = self._new_reply_id()
        if not self._send_control(target, wire.RMA_PUT,
                                  (win_id, offset,
                                   np.ascontiguousarray(data), rid)):
            raise RankFailure(target, "rma_put", None)
        out = self._await_reply(rid, target)
        if isinstance(out, BaseException):
            raise out

    def rma_get(self, win_id, target: int, offset: int, count: int,
                dtype) -> np.ndarray:
        rid = self._new_reply_id()
        if not self._send_control(target, wire.RMA_GET,
                                  (win_id, offset, count,
                                   np.dtype(dtype).str, rid)):
            raise RankFailure(target, "rma_get", None)
        out = self._await_reply(rid, target)
        if isinstance(out, BaseException):
            raise out
        return out

    def rma_acc(self, win_id, target: int, offset: int,
                data: np.ndarray, op) -> None:
        rid = self._new_reply_id()
        if not self._send_control(target, wire.RMA_ACC,
                                  (win_id, offset,
                                   np.ascontiguousarray(data), op, rid)):
            raise RankFailure(target, "rma_acc", None)
        out = self._await_reply(rid, target)
        if isinstance(out, BaseException):
            raise out

    def _rma_apply_put(self, peer: int, win_id, offset, data,
                       reply_id) -> None:
        try:
            buf, lock = self._rma_window(win_id)
            flat = buf.reshape(-1)
            n = data.size
            if offset + n > flat.size:
                raise MPIError("remote Put overruns the target window")
            with lock:
                flat[offset:offset + n] = \
                    data.reshape(-1).astype(buf.dtype, copy=False)
        except MPIError as exc:
            self._send_control(peer, wire.RMA_REP, (reply_id, exc))
            return
        self._send_control(peer, wire.RMA_REP, (reply_id, None))

    def _rma_apply_get(self, peer: int, win_id, offset, count,
                       dtype_str, reply_id) -> None:
        try:
            buf, lock = self._rma_window(win_id)
            flat = buf.reshape(-1)
            if offset + count > flat.size:
                raise MPIError("remote Get overruns the target window")
            with lock:
                out = flat[offset:offset + count].astype(
                    np.dtype(dtype_str), copy=True)
            # data flows target -> origin: count the send on this side
            self.counters[self.my_rank].record_send(peer, out.nbytes)
        except MPIError as exc:
            self._send_control(peer, wire.RMA_REP, (reply_id, exc))
            return
        self._send_control(peer, wire.RMA_REP, (reply_id, out))

    def _rma_apply_acc(self, peer: int, win_id, offset, data, op,
                       reply_id) -> None:
        try:
            buf, lock = self._rma_window(win_id)
            flat = buf.reshape(-1)
            n = data.size
            if offset + n > flat.size:
                raise MPIError(
                    "remote Accumulate overruns the target window")
            with lock:
                sl = slice(offset, offset + n)
                flat[sl] = op.np_func(flat[sl], data.reshape(-1))
        except MPIError as exc:
            self._send_control(peer, wire.RMA_REP, (reply_id, exc))
            return
        self._send_control(peer, wire.RMA_REP, (reply_id, None))

    # -- lifecycle ----------------------------------------------------------
    def say_bye(self) -> None:
        """Tell every peer this rank is done in order, so the EOF its
        :meth:`close` causes is no failure.  Called only on the orderly
        exits (a worker after SHUTDOWN, an SPMD rank that returned); a
        rank that fails in any other way closes without it, and its
        peers see the EOF as a failure."""
        for ch in self._channels.values():
            try:
                ch.send(wire.BYE, ())
            except OSError:
                pass

    def close(self) -> None:
        """Tear down the transport: close sockets (peers read EOF), join
        receiver threads."""
        if self._closing:
            return
        self._closing = True
        for ch in self._channels.values():
            ch.close()
        for t in self._recv_threads:
            t.join(timeout=2)


# ----------------------------------------------------------------------
# run_spmd on the process backend
# ----------------------------------------------------------------------
def _spmd_child(mesh: ProcessMesh, rank: int, nranks: int, fn, args,
                kwargs, timeout, pass_comm, fault_mode, conn) -> None:
    from ..comm import Intracomm  # local import mirrors runtime.run_spmd

    socks = mesh.activate(rank)
    world = ProcessWorld(nranks, rank, mesh.session_id, socks,
                         timeout=timeout)
    if _TR.enabled:
        _TR.clear()  # drop fork-inherited events; ship only our own
    ctx = RankContext(world, rank)
    ctx.bind()
    tag: str = "ok"
    value: Any = None
    try:
        comm = Intracomm(ctx, list(range(nranks)))
        if pass_comm:
            value = fn(comm, *args, **kwargs)
        else:
            value = fn(*args, **kwargs)
    except InjectedFault as exc:
        if fault_mode == "failstop":
            world.mark_failed(rank, exc)
            tag, value = "fault", exc
        else:
            world.abort(rank, exc)
            tag, value = "err", exc
    except BaseException as exc:  # noqa: BLE001 - must propagate any error
        world.abort(rank, exc)
        tag, value = "err", _picklable_exc(exc)
    finally:
        ctx.unbind()
    snap = world.counters[rank].snapshot()
    events = _TR.events() if _TR.enabled else None
    try:
        conn.send((tag, value, snap, events))
    except Exception:  # noqa: BLE001 - e.g. unpicklable result
        try:
            conn.send(("err", RuntimeError(
                f"rank {rank} result could not be pickled back to the "
                f"driver (process backend requires picklable returns)"),
                snap, events))
        except Exception:  # noqa: BLE001 - give up, parent synthesizes
            pass
    # Completed ranks keep their transport up until every rank is done:
    # their receiver threads serve the stragglers' passive-target RMA on
    # this rank's windows, which needs no matching call here.  BYE then
    # makes the EOF orderly.  Dead ranks
    # (fault/abort) skip both -- their peers were already told the true
    # cause via FAILSTOP/ABORT broadcast.
    if tag == "ok":
        try:
            conn.poll(world.timeout + 30)
        except Exception:  # noqa: BLE001 - parent died; just exit
            pass
        world.say_bye()
    conn.close()
    world.close()


def run_spmd_process(fn: Callable[..., Any], nranks: int,
                     args: Sequence = (), kwargs: Optional[dict] = None,
                     timeout: Optional[float] = None, pass_comm: bool = True,
                     fault_mode: str = "abort") -> List[Any]:
    """Process-backend twin of :func:`repro.mpi.runtime.run_spmd`.

    Same contract: per-rank results indexed by rank, thread-backend
    error semantics per *fault_mode*.  Differences inherent to real
    processes: *fn*, its arguments and its results cross the fork /
    pipe boundary (fn and args by fork inheritance -- closures are fine;
    results must pickle), and a rank that dies without reporting (e.g.
    SIGKILL) surfaces as a synthesized ``RuntimeError`` naming the rank
    instead of the original exception object.
    """
    if fault_mode not in ("abort", "failstop"):
        raise ValueError(f"unknown fault_mode {fault_mode!r}")
    kwargs = kwargs or {}
    mesh = ProcessMesh(nranks)
    mp = multiprocessing.get_context("fork")
    conns = []
    procs = []
    try:
        for r in range(nranks):
            parent_conn, child_conn = mp.Pipe(duplex=True)
            p = mp.Process(target=_spmd_child,
                           args=(mesh, r, nranks, fn, args, kwargs,
                                 timeout, pass_comm, fault_mode,
                                 child_conn),
                           name=f"spmd-rank-{r}", daemon=True)
            p.start()
            child_conn.close()
            procs.append(p)
            conns.append(parent_conn)
    finally:
        mesh.close_all()  # the parent is not a rank
    register_atexit_sweep(mesh.session_id)

    reports: Dict[int, tuple] = {}
    budget = (default_timeout() if timeout is None else timeout) + 30
    deadline = time.monotonic() + budget
    pending = set(range(nranks))
    while pending and time.monotonic() < deadline:
        progressed = False
        for r in list(pending):
            if conns[r].poll(0.02):
                try:
                    reports[r] = conns[r].recv()
                except (EOFError, OSError):
                    reports[r] = ("lost", None, None, None)
                pending.discard(r)
                progressed = True
            elif not procs[r].is_alive():
                # exited: one grace poll for a report racing the exit
                if conns[r].poll(0.25):
                    try:
                        reports[r] = conns[r].recv()
                    except (EOFError, OSError):
                        reports[r] = ("lost", None, None, None)
                else:
                    reports[r] = ("lost", None, None, None)
                pending.discard(r)
                progressed = True
        if not progressed:
            time.sleep(0.02)
    for r in pending:
        reports[r] = ("hung", None, None, None)

    # release completed children (they hold their sockets open until
    # every rank has reported), then reap
    for c in conns:
        try:
            c.send("release")
        except (OSError, BrokenPipeError):
            pass
    for p in procs:
        p.join(timeout=10)
        if p.is_alive():
            p.kill()
            p.join(timeout=10)
    for c in conns:
        c.close()
    sweep_session(mesh.session_id)

    results: List[Any] = [None] * nranks
    errors: List[Optional[BaseException]] = [None] * nranks
    # ranks whose death *is* the experiment under failstop (scripted
    # fault or real process death), mirroring the thread backend's
    # InjectedFault skip
    died_failstop = set()
    for r in range(nranks):
        tag, value, snap, events = reports[r]
        if events and _TR.enabled:
            _TR.absorb(events)
        if tag == "ok":
            results[r] = value
        elif tag == "fault":
            errors[r] = value
            results[r] = value
            died_failstop.add(r)
        elif tag == "err":
            errors[r] = value
        else:  # lost / hung: died without reporting
            exc = RuntimeError(
                f"rank {r} process died without reporting"
                + (f" (exit code {procs[r].exitcode})"
                   if procs[r].exitcode is not None else "")
                + ("" if tag == "lost" else " [unresponsive, killed]"))
            errors[r] = exc
            if fault_mode == "failstop":
                results[r] = exc
                died_failstop.add(r)

    for rank, exc in enumerate(errors):
        if exc is None or isinstance(exc, AbortError):
            continue
        if fault_mode == "failstop" and rank in died_failstop:
            continue
        raise exc
    if fault_mode == "abort":
        for exc in errors:
            if exc is not None:
                raise exc
    return results
