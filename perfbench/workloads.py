"""The three benchmark workloads, each a single-client closed loop.

Every workload is built from a seed, runs one *item* at a time (the next
item starts only after the previous call returned) and checks its output
against a plain NumPy/SciPy oracle afterwards:

``odin-ops``  item = one ODIN global-mode op on ~4k float64 (thread
              backend, 2 workers).  Mostly fire-and-forget ufuncs and
              scalar ops, a synchronizing ``.sum()`` every few ops, a
              final ``gather``.  The control plane does the work.
``krylov``    item = one unpreconditioned CG solve to 1e-8 on
              ``galeri.laplace_2d(128, 128)`` (SPMD, thread backend,
              2 ranks).  SpMV, halo Import and scalar Allreduce do the
              work; there is no ODIN driver.
``odin-bulk`` item = one time step on 1M-element arrays (process
              backend, 2 workers): a Seamless-fused
              ``sqrt(u*u+v*v)*2-1``, a shifted-slice difference, a
              block->cyclic->block redistribute and a global sum.  Worker
              compute, the plan cache and large shm frames do the work.

A workload object is used as: ``setup()``, then ``step()`` per item
(returns the item's wall seconds), ``finish()`` (drains outstanding
work, part of the timed window), ``verify()`` (outside the window) and
``close()``.  ``counts()`` and ``plan_stats()`` return the program's own
exact counters, cumulative; the caller takes differences.
"""

from __future__ import annotations

import os
import queue
import resource
import threading
import time

import numpy as np

from repro import galeri, mpi, odin, solvers, tpetra
from repro.odin.distribution import CyclicDistribution

__all__ = ["WORKLOADS"]

NWORKERS = 2


@odin.local
def _worker_report(block):
    """Per-worker (pid, peak RSS in kB) -- registered before any context
    forks, so process-backend workers inherit it."""
    hwm = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
    return (os.getpid(), hwm)


def _self_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rank_snapshots(world, nranks):
    fetch = getattr(world, "fetch_counters", None)
    snaps = []
    for r in range(nranks):
        snap = fetch(r) if fetch is not None and r != 0 else None
        snaps.append(snap if snap is not None
                     else world.counters[r].snapshot())
    return snaps


def _traffic(snaps) -> dict:
    """Exact transport and collective counts summed over ranks."""
    coll = {}
    for s in snaps:
        for (op, algo), n in s.coll_calls.items():
            coll[f"{op}:{algo}"] = coll.get(f"{op}:{algo}", 0) + n
    return {"msgs": sum(s.sends for s in snaps),
            "bytes": sum(s.bytes_sent for s in snaps),
            "coll": coll}


def _odin_counts(ctx) -> dict:
    """Cumulative exact counts of an ODIN context: wire traffic, control
    ops (every broadcast) and synchronizing ops (every result gather)."""
    st = ctx.status()
    out = _traffic(_rank_snapshots(ctx.world, NWORKERS + 1))
    out["control_ops"] = st["op_id"]
    out["sync_ops"] = st["epoch_id"]
    out["control_bytes"] = ctx.control_traffic()[1]
    out["worker_bytes"] = ctx.worker_traffic()[1]
    return out


# ----------------------------------------------------------------------
# odin-ops
# ----------------------------------------------------------------------
# every op maps [-1, 1] into itself and none squares, so no seed can
# overflow or decay into slow subnormals
UNARY = ("sin", "cos", "tanh", "negative", "absolute")
BINARY = ("maximum", "minimum", "fmax", "fmin")
NSLOTS = 4


def op_stream(seed: int):
    """Endless seeded op stream: (kind, name, dst, a, b, scalar).

    Slots start in [-1, 1] and every op keeps them there; scalar
    multiplies scale by at least 0.5.  Every 3-7 ops a synchronizing
    ``sum`` is issued.
    """
    rng = np.random.default_rng([seed, 1])
    until_sync = int(rng.integers(3, 8))
    while True:
        until_sync -= 1
        a, b, dst = (int(v) for v in rng.integers(0, NSLOTS, 3))
        if until_sync == 0:
            until_sync = int(rng.integers(3, 8))
            yield ("sum", "sum", dst, a, b, 0.0)
            continue
        r = rng.random()
        if r < 0.4:
            yield ("unary", UNARY[int(rng.integers(len(UNARY)))],
                   dst, a, b, 0.0)
        elif r < 0.7:
            yield ("binary", BINARY[int(rng.integers(len(BINARY)))],
                   dst, a, b, 0.0)
        else:
            if rng.random() < 0.5:
                yield ("scalar", "multiply", dst, a, b,
                       float(rng.uniform(0.5, 1.0)))
            else:
                yield ("scalar", "maximum", dst, a, b,
                       float(rng.uniform(-1.0, 1.0)))


def _initial_slots(seed: int, n: int):
    rng = np.random.default_rng([seed, 0])
    return [rng.uniform(-1.0, 1.0, n) for _ in range(NSLOTS)]


class OdinOps:
    name = "odin-ops"
    remote_workers = False

    def __init__(self, seed: int, size: int = 4096):
        self.seed, self.n = seed, size
        self.ctx = None

    def setup(self):
        self.ctx = odin.OdinContext(NWORKERS, backend="thread")
        self.slots = [odin.array(x, ctx=self.ctx)
                      for x in _initial_slots(self.seed, self.n)]
        self.ctx.flush()
        self.stream = op_stream(self.seed)
        self.done = 0
        self.sums = []
        self.sync_lat = []

    def step(self) -> float:
        kind, name, dst, a, b, c = next(self.stream)
        s = self.slots
        t0 = time.perf_counter()
        if kind == "sum":
            self.sums.append(s[a].sum())
        elif kind == "unary":
            s[dst] = getattr(odin, name)(s[a])
        elif kind == "binary":
            s[dst] = getattr(odin, name)(s[a], s[b])
        elif name == "multiply":
            s[dst] = s[a] * c
        else:
            s[dst] = odin.maximum(s[a], c)
        dt = time.perf_counter() - t0
        if kind == "sum":
            self.sync_lat.append(dt)
        self.done += 1
        return dt

    def finish(self):
        self.final = [x.gather() for x in self.slots]

    def verify(self):
        """Replay the same op prefix in NumPy; returns (attempted, failed,
        reference seconds per item)."""
        ref = _initial_slots(self.seed, self.n)
        sums = []
        stream = op_stream(self.seed)
        t0 = time.perf_counter()
        for _ in range(self.done):
            kind, name, dst, a, b, c = next(stream)
            if kind == "sum":
                sums.append(float(ref[a].sum()))
            elif kind == "unary":
                ref[dst] = getattr(np, name)(ref[a])
            elif kind == "binary":
                ref[dst] = getattr(np, name)(ref[a], ref[b])
            elif name == "multiply":
                ref[dst] = ref[a] * c
            else:
                ref[dst] = np.maximum(ref[a], c)
        ref_s = (time.perf_counter() - t0) / max(self.done, 1)
        failed = sum(not np.isclose(got, want, rtol=1e-12, atol=1e-9)
                     for got, want in zip(self.sums, sums))
        failed += len(sums) - len(self.sums)
        failed += sum(not np.allclose(got, want, rtol=1e-12, atol=1e-15)
                      for got, want in zip(self.final, ref))
        return self.done + NSLOTS, int(failed), ref_s

    def extra(self) -> dict:
        return {"sync_lat": self.sync_lat}

    def counts(self) -> dict:
        return _odin_counts(self.ctx)

    def plan_stats(self) -> tuple:
        return (0, 0)

    def peak_rss_kb(self) -> int:
        return _self_peak_kb()

    def close(self):
        if self.ctx is not None:
            self.slots = None
            self.ctx.shutdown()


# ----------------------------------------------------------------------
# odin-bulk
# ----------------------------------------------------------------------
class OdinBulk:
    name = "odin-bulk"
    remote_workers = True

    def __init__(self, seed: int, size: int = 1 << 20):
        self.seed, self.n = seed, size
        self.ctx = None

    def _inputs(self):
        rng = np.random.default_rng([self.seed, 2])
        return rng.uniform(-1.0, 1.0, self.n), rng.uniform(-1.0, 1.0, self.n)

    def setup(self):
        self.ctx = odin.OdinContext(NWORKERS, backend="process")
        u, v = self._inputs()
        self.u = odin.array(u, ctx=self.ctx)
        self.v = odin.array(v, ctx=self.ctx)
        self.block = self.u.dist
        self.cyclic = CyclicDistribution((self.n,), 0, NWORKERS)
        self.sums = []
        self.done = 0
        self.step()          # warm-up: Seamless compile, plan builds

    def step(self) -> float:
        t0 = time.perf_counter()
        with odin.lazy():
            expr = odin.sqrt(self.u * self.u + self.v * self.v) * 2.0 - 1.0
        w = odin.evaluate(expr, use_seamless=True)
        d = w[1:] - w[:-1]
        c = w.redistribute(self.cyclic).redistribute(self.block)
        self.sums.append(d.sum())
        self.u, self.v = self.v, c * 0.5
        dt = time.perf_counter() - t0
        self.done += 1
        return dt

    def finish(self):
        self.final = (self.u.gather(), self.v.gather())

    def verify(self):
        u, v = self._inputs()
        sums = []
        t0 = time.perf_counter()
        for _ in range(self.done):
            w = np.sqrt(u * u + v * v) * 2.0 - 1.0
            sums.append(float((w[1:] - w[:-1]).sum()))
            u, v = v, w * 0.5
        ref_s = (time.perf_counter() - t0) / max(self.done, 1)
        failed = sum(not np.isclose(got, want, rtol=1e-9, atol=1e-9)
                     for got, want in zip(self.sums, sums))
        failed += len(sums) - len(self.sums)
        failed += sum(not np.allclose(got, want, rtol=1e-12, atol=1e-15)
                      for got, want in zip(self.final, (u, v)))
        return self.done, int(failed), ref_s

    def extra(self) -> dict:
        return {}

    def counts(self) -> dict:
        return _odin_counts(self.ctx)

    def plan_stats(self) -> tuple:
        """(hits, misses) of the workers' plan cache; issues one
        synchronizing op, so call it outside a counted window."""
        stats = self.ctx.plan_cache_stats()
        return (stats["hits"], stats["misses"])

    def any_array(self):
        return self.u

    def peak_rss_kb(self) -> int:
        workers = _worker_report(self.u)
        return _self_peak_kb() + sum(kb for _pid, kb in workers)

    def close(self):
        if self.ctx is not None:
            self.u = self.v = None
            self.ctx.shutdown()


# ----------------------------------------------------------------------
# krylov
# ----------------------------------------------------------------------
def _rhs(seed: int, k: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 3, k]).uniform(-1.0, 1.0, n)


class Krylov:
    """SPMD CG.  The ranks run inside ``mpi.run_spmd``; the benchmark
    thread hands them work through a per-item rendezvous so the closed
    loop and the timing live on the benchmark side exactly as for the
    ODIN workloads."""

    name = "krylov"
    remote_workers = False
    TOL = 1e-8

    def __init__(self, seed: int, size: int = 128):
        self.seed, self.nx = seed, size
        self.n = size * size
        self._thread = None

    def setup(self):
        self._go = [queue.Queue() for _ in range(NWORKERS)]
        self._done = queue.Queue()
        self._ready = queue.Queue()
        self.results = []
        self._thread = threading.Thread(
            target=mpi.run_spmd, args=(self._rank_main, NWORKERS),
            kwargs={"backend": "thread"}, name="krylov-spmd", daemon=True)
        self._thread.start()
        for _ in range(NWORKERS):
            msg = self._ready.get(timeout=600)
            if isinstance(msg, BaseException):
                raise msg
        self.done = 0

    def _rank_main(self, comm):
        try:
            A = galeri.laplace_2d(self.nx, self.nx, comm)
            gids = A.row_map.my_gids
            comm.barrier()
        except BaseException as exc:  # noqa: BLE001 - surface to setup()
            self._ready.put(exc)
            raise
        self._ready.put(comm.rank)
        box = self._go[comm.rank]
        while True:
            k = box.get()
            if k is None:
                return
            try:
                if k == "counters":
                    self._done.put((comm.rank, comm.traffic_snapshot()))
                    continue
                b = tpetra.Vector(A.row_map)
                b.local[:, 0] = _rhs(self.seed, k, self.n)[gids]
                r = solvers.cg(A, b, tol=self.TOL, maxiter=5000)
            except BaseException as exc:  # noqa: BLE001 - surface to step()
                self._done.put((comm.rank, exc))
                raise
            self._done.put((comm.rank, (k, r.converged, r.iterations,
                                        np.array(gids),
                                        r.x.local[:, 0].copy())))

    def _all(self, msg):
        """Send *msg* to every rank and return their replies by rank."""
        for box in self._go:
            box.put(msg)
        replies = sorted((self._done.get(timeout=100) for _ in self._go),
                         key=lambda r: r[0])
        for _rank, reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return [reply for _rank, reply in replies]

    def step(self) -> float:
        t0 = time.perf_counter()
        replies = self._all(self.done)
        dt = time.perf_counter() - t0
        x = np.empty(self.n)
        for _k, _conv, _its, gids, xl in replies:
            x[gids] = xl
        conv = all(r[1] for r in replies)
        self.results.append((self.done, conv, replies[0][2], x))
        self.done += 1
        return dt

    def finish(self):
        pass

    def verify(self):
        """Serial NumPy/SciPy CG (same recurrence) gives the reference
        iteration count; the distributed solution must agree with it
        and have a true relative residual at the tolerance."""
        import scipy.sparse as sp
        n1 = self.nx
        t1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n1, n1))
        eye = sp.identity(n1)
        A = (sp.kron(eye, t1) + sp.kron(t1, eye)).tocsr()
        failed = 0
        ref_total = 0.0
        for k, conv, its, x in self.results:
            b = _rhs(self.seed, k, self.n)
            t0 = time.perf_counter()
            xr, its_ref = _serial_cg(A, b, self.TOL)
            ref_total += time.perf_counter() - t0
            res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
            err = np.linalg.norm(x - xr) / np.linalg.norm(xr)
            if not (conv and abs(its - its_ref) <= 2 and res <= 1.01e-8
                    and err <= 1e-6):
                failed += 1
        return len(self.results), failed, ref_total / max(len(self.results), 1)

    def extra(self) -> dict:
        return {"iterations": [its for _k, _c, its, _x in self.results]}

    def counts(self) -> dict:
        out = _traffic(self._all("counters"))
        out["iterations"] = sum(its for _k, _c, its, _x in self.results)
        return out

    def plan_stats(self) -> tuple:
        return (0, 0)

    def peak_rss_kb(self) -> int:
        return _self_peak_kb()

    def close(self):
        if self._thread is not None:
            for box in self._go:
                box.put(None)
            self._thread.join(timeout=60)


def _serial_cg(A, b, tol):
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rz = r @ r
    bnorm = np.linalg.norm(b)
    for k in range(1, 5001):
        ap = A @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) / bnorm <= tol:
            return x, k
        rz_new = r @ r
        p = r + (rz_new / rz) * p
        rz = rz_new
    return x, 5000


WORKLOADS = {cls.name: cls for cls in (OdinOps, Krylov, OdinBulk)}
