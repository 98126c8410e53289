"""Fault-resilient solver drivers: shrink-and-restart with iterate
checkpoints (the solver leg of the ``repro.recover`` subsystem).

The Krylov and Newton solvers themselves are fault-oblivious -- a dead
rank surfaces inside a dot product or SpMV halo exchange as a typed
:class:`~repro.mpi.errors.RankFailure` (or, once some survivor has
revoked the communicator, :class:`~repro.mpi.errors.CommRevokedError`).
This module supplies the recovery loop around them:

1. Iterate in *chunks* of ``ckpt_every`` iterations; after each chunk
   every rank checkpoints its slice of the iterate in memory and mirrors
   it onto its ring neighbour (SCR's "partner" scheme -- rank ``r``'s
   copy lives on ``(r + 1) % size``).
2. On a fault, every survivor revokes the communicator, joins the
   ULFM-style :meth:`~repro.mpi.comm.Comm.shrink` agreement, and the
   group reassembles the newest globally consistent iterate from
   surviving own/partner pieces (two checkpoint versions are retained so
   a crash *during* the checkpoint exchange still leaves a complete
   older version).
3. The caller's ``make_system(comm)`` factory rebuilds the operator and
   right-hand side on the shrunk communicator, the restored iterate is
   scattered onto the new row map, and iteration resumes.

Only when a rank *and* its ring partner die between two checkpoints is
state genuinely lost; that raises ``RuntimeError("unrecoverable: ...")``.

The restart is a warm restart, not a bit-for-bit continuation: restarted
CG rebuilds its Krylov space from the restored iterate, so iteration
counts may grow slightly compared to a fault-free run while the final
answer still meets the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..metrics import REGISTRY as _MX
from ..mpi import Intracomm
from ..mpi.errors import CommRevokedError, RankFailure
from ..teuchos import ParameterList
from ..tpetra import Operator, Vector
from ..trace import TRACER as _TR
from .krylov import SolverResult, bicgstab, cg, gmres, minres
from .nox import NewtonSolver, NonlinearResult

__all__ = ["ResilientResult", "IterateCheckpoint", "resilient_solve",
           "resilient_newton"]

# reserved tag for the ring-partner checkpoint exchange; solver dots and
# halo exchanges use collective contexts, so plain p2p on this tag is
# never confused with solver traffic
_CKPT_TAG = 7770

_METHODS = {"cg": cg, "gmres": gmres, "bicgstab": bicgstab,
            "minres": minres}

MakeSystem = Callable[[Intracomm], Tuple[Operator, Vector]]


@dataclass
class ResilientResult:
    """Outcome of a resilient solve: a :class:`SolverResult` plus the
    recovery trail."""

    x: Vector
    converged: bool
    iterations: int
    residual_norm: float
    restarts: int = 0
    ranks_lost: int = 0
    history: List[float] = field(default_factory=list)
    message: str = ""

    def __repr__(self):
        state = "converged" if self.converged else "NOT converged"
        return (f"ResilientResult({state} in {self.iterations} its, "
                f"||r||={self.residual_norm:.3e}, "
                f"{self.restarts} restart(s), "
                f"{self.ranks_lost} rank(s) lost)")


class IterateCheckpoint:
    """In-memory ring-partner checkpoints of a distributed iterate.

    Keeps the last two versions of this rank's own piece and of the left
    neighbour's mirrored piece.  Version numbers advance globally (every
    rank checkpoints the same chunk boundaries), so after a crash the
    survivors can agree on the newest version with full coverage.
    """

    KEEP = 2

    def __init__(self) -> None:
        self.version = 0
        # version -> (gids, values) for this rank's slice
        self.own: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # version -> (source_rank, gids, values) mirrored from the left
        # ring neighbour; source_rank is in the *current* comm numbering
        self.held: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}

    def save(self, comm: Intracomm, x: Vector) -> None:
        """Checkpoint ``x``: stash the local slice, mirror it rightward."""
        self.version += 1
        gids = np.array(x.map.my_gids, dtype=np.int64, copy=True)
        vals = np.array(x.local_view, copy=True)
        self.own[self.version] = (gids, vals)
        if comm.size > 1:
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            # eager buffered send: posting first cannot deadlock the ring
            comm.send((self.version, gids, vals), dest=right, tag=_CKPT_TAG)
            ver, lgids, lvals = comm.recv(source=left, tag=_CKPT_TAG)
            self.held[ver] = (left, lgids, lvals)
        if _MX.enabled:
            _MX.inc("recover.iterate_ckpts")
            _MX.inc("recover.iterate_ckpt_bytes",
                    int(gids.nbytes + vals.nbytes))
        self._prune()

    def _prune(self) -> None:
        for store in (self.own, self.held):
            for v in sorted(store)[:-self.KEEP]:
                del store[v]

    def pieces_for(self, dead: List[int]):
        """The (version, gids, values) pieces this survivor contributes:
        its own slices, plus mirrored slices whose owner died."""
        out = [(v, g, vals) for v, (g, vals) in self.own.items()]
        out.extend((v, g, vals) for v, (src, g, vals) in self.held.items()
                   if src in dead)
        return out


def _restore_global(new_comm: Intracomm, ckpt: IterateCheckpoint,
                    dead: List[int], n: int) -> np.ndarray:
    """Reassemble the newest globally complete iterate after a shrink.

    Every survivor contributes its pieces; the newest version whose
    pieces cover all ``n`` entries wins.  Raises ``RuntimeError`` when no
    version is complete (a rank and its partner both died)."""
    gathered = new_comm.allgather(ckpt.pieces_for(dead))
    flat = [p for plist in gathered for p in plist]
    versions = sorted({v for v, _g, _x in flat}, reverse=True)
    for ver in versions:
        covered = np.zeros(n, dtype=bool)
        xg: Optional[np.ndarray] = None
        for v, gids, vals in flat:
            if v != ver:
                continue
            if xg is None:
                xg = np.zeros(n, dtype=vals.dtype)
            xg[gids] = vals
            covered[gids] = True
        if xg is not None and covered.all():
            return xg
    raise RuntimeError(
        "unrecoverable: an iterate block and its ring-partner copy were "
        "both lost between checkpoints")


def _shrink_and_restore(comm: Intracomm, ckpt: Optional[IterateCheckpoint],
                        n: Optional[int]):
    """Common fault path: revoke, shrink, reassemble the iterate.

    Returns ``(new_comm, ranks_lost, x_global_or_None)``."""
    if _MX.enabled:
        _MX.inc("recover.solver_detections")
    t0 = _TR.now() if _TR.enabled else 0.0
    old_members = list(comm._world_ranks)
    comm.revoke()
    new_comm = comm.shrink()
    survivors = set(new_comm._world_ranks)
    dead = [r for r, wr in enumerate(old_members) if wr not in survivors]
    x_global = None
    if ckpt is not None and n is not None:
        x_global = _restore_global(new_comm, ckpt, dead, n)
    if _MX.enabled:
        _MX.inc("recover.solver_restarts")
    if _TR.enabled:
        _TR.complete("recover", "solver.shrink+restore", None, t0,
                     lost=len(dead), survivors=new_comm.size)
    return new_comm, len(dead), x_global


def resilient_solve(comm: Intracomm, make_system: MakeSystem,
                    method: str = "cg", tol: float = 1e-8,
                    maxiter: int = 1000, ckpt_every: int = 10,
                    prec_factory: Optional[Callable[[Operator],
                                                    Operator]] = None,
                    **solver_kw) -> ResilientResult:
    """Solve ``A x = b`` surviving rank failures (run under SPMD).

    ``make_system(comm)`` must build ``(op, b)`` for *any* communicator
    it is handed -- it is called again on the shrunk communicator after
    every recovery.  ``method`` is one of ``cg``, ``gmres``, ``bicgstab``
    or ``minres``; extra keyword arguments (``restart=``, ...) pass
    through to it.  ``prec_factory(op)``, when given, rebuilds the
    preconditioner alongside the system.

    Collective: every (surviving) rank must call with the same arguments.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; "
                         f"choose from {sorted(_METHODS)}")
    solver = _METHODS[method]
    restarts = 0
    ranks_lost = 0
    total_iters = 0
    history: List[float] = []
    x_global: Optional[np.ndarray] = None
    ckpt: Optional[IterateCheckpoint] = None
    n: Optional[int] = None
    while True:
        try:
            op, b = make_system(comm)
            n = op.domain_map().num_global
            x = Vector(op.domain_map(), dtype=b.dtype)
            if x_global is not None:
                x.local_view = x_global[x.map.my_gids]
            prec = prec_factory(op) if prec_factory is not None else None
            ckpt = IterateCheckpoint()
            ckpt.save(comm, x)
            while True:
                budget = maxiter - total_iters
                if budget <= 0:
                    last = history[-1] if history else float("inf")
                    return ResilientResult(x, False, total_iters, last,
                                           restarts, ranks_lost, history,
                                           "maximum iterations reached")
                res: SolverResult = solver(op, b, x=x, prec=prec, tol=tol,
                                           maxiter=min(ckpt_every, budget),
                                           **solver_kw)
                x = res.x
                total_iters += res.iterations
                # chunk histories overlap by one entry (the warm start's
                # residual closes one chunk and opens the next)
                history.extend(res.history[1:] if history else res.history)
                if res.converged:
                    return ResilientResult(x, True, total_iters,
                                           res.residual_norm, restarts,
                                           ranks_lost, history, res.message)
                if res.message and "maximum iterations" not in res.message:
                    # breakdown etc.: restarting will not help
                    return ResilientResult(x, False, total_iters,
                                           res.residual_norm, restarts,
                                           ranks_lost, history, res.message)
                ckpt.save(comm, x)
        except (RankFailure, CommRevokedError):
            comm, lost, x_global = _shrink_and_restore(comm, ckpt, n)
            ranks_lost += lost
            restarts += 1


def resilient_newton(comm: Intracomm,
                     make_problem: Callable[[Intracomm],
                                            Tuple[Callable, Vector]],
                     tol: float = 1e-8, maxiter: int = 50,
                     ckpt_every: int = 5,
                     params: Optional[ParameterList] = None
                     ) -> NonlinearResult:
    """Newton / JFNK with the same shrink-and-restart recovery loop.

    ``make_problem(comm)`` builds ``(residual_fn, x0)`` on any
    communicator.  The Newton iteration runs in chunks of ``ckpt_every``
    steps; convergence is judged against the *initial* residual norm of
    the very first chunk, so restarts do not move the goalposts.
    """
    restarts = 0
    total_iters = 0
    lin_total = 0
    history: List[float] = []
    x_global: Optional[np.ndarray] = None
    abs_tol: Optional[float] = None
    ckpt: Optional[IterateCheckpoint] = None
    n: Optional[int] = None
    while True:
        try:
            residual, x = make_problem(comm)
            n = x.map.num_global
            if x_global is not None:
                x = x.copy()
                x.local_view = x_global[x.map.my_gids]
            ckpt = IterateCheckpoint()
            ckpt.save(comm, x)
            while True:
                p = ParameterList("resilient-newton")
                if params is not None:
                    for key in params.keys():
                        p.set(key, params.get(key))
                budget = maxiter - total_iters
                p.set("Max Nonlinear Iterations",
                      max(1, min(ckpt_every, budget)))
                if abs_tol is not None:
                    # absolute target carried across warm restarts
                    p.set("Nonlinear Tolerance", abs_tol)
                else:
                    p.set("Nonlinear Tolerance", tol)
                nox = NewtonSolver(residual, params=p)
                res = nox.solve(x)
                x = res.x
                total_iters += res.iterations
                lin_total += res.linear_iterations
                history.extend(res.history[1:] if history else res.history)
                if abs_tol is None and res.history:
                    abs_tol = tol * (res.history[0] or 1.0)
                if res.converged:
                    return NonlinearResult(x, True, total_iters,
                                           res.residual_norm, history,
                                           lin_total, res.message)
                if budget - res.iterations <= 0:
                    return NonlinearResult(x, False, total_iters,
                                           res.residual_norm, history,
                                           lin_total,
                                           "max iterations reached")
                if res.message and "max iterations" not in res.message:
                    return NonlinearResult(x, False, total_iters,
                                           res.residual_norm, history,
                                           lin_total, res.message)
                ckpt.save(comm, x)
        except (RankFailure, CommRevokedError):
            comm, _lost, x_global = _shrink_and_restore(comm, ckpt, n)
            restarts += 1
