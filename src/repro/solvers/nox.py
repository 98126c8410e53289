"""Nonlinear solvers (the NOX package equivalent).

Newton's method over distributed vectors, with

- an explicit-Jacobian path (the user supplies a CrsMatrix-valued
  ``jacobian(x)``),
- a Jacobian-free Newton-Krylov path (directional finite differences wrap
  the residual as a matrix-free Operator),
- line searches: full step, backtracking (Armijo), quadratic interpolation,
- inexact forcing terms (Eisenstat-Walker choice 2),

mirroring the NOX status-test/solver split: :class:`NewtonSolver` is
configured with a ParameterList and reports a structured result.

This is also the paper's flagship pipeline component: in the Discussion
use case, a PyTrilinos nonlinear solver "calls back to Python to evaluate
a model" -- the ``residual`` callable here -- which Seamless can then
compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..teuchos import ParameterList
from ..tpetra import LinearOperator, Operator, Vector
from ..trace import TRACER as _TR
from .krylov import gmres

# trial residual norms at or above this are rejected before they are
# squared (model merit functions use ||F||^2; sqrt(float64 max) ~ 1.3e154)
_HUGE_FNORM = 1e150

__all__ = ["NonlinearResult", "JacobianFreeOperator", "NewtonSolver"]

ResidualFn = Callable[[Vector], Vector]


@dataclass
class NonlinearResult:
    x: Vector
    converged: bool
    iterations: int
    residual_norm: float
    history: List[float] = field(default_factory=list)
    linear_iterations: int = 0
    message: str = ""

    def __repr__(self):
        state = "converged" if self.converged else "NOT converged"
        return (f"NonlinearResult({state} in {self.iterations} Newton its, "
                f"||F||={self.residual_norm:.3e}, "
                f"{self.linear_iterations} linear its)")


class JacobianFreeOperator(Operator):
    """Matrix-free J(x) v by directional finite differences:

        J(x) v ~= (F(x + eps v) - F(x)) / eps,
        eps = sqrt(machine_eps) * (1 + ||x||) / ||v||
    """

    def __init__(self, residual: ResidualFn, x: Vector, fx: Vector):
        self.residual = residual
        self.x = x
        self.fx = fx
        self._sqrt_eps = float(np.sqrt(np.finfo(np.float64).eps))

    def domain_map(self):
        return self.x.map

    def range_map(self):
        return self.fx.map

    def apply(self, v: Vector, y: Vector, trans: bool = False) -> None:
        if trans:
            raise NotImplementedError("JFNK operator has no transpose")
        vnorm = v.norm2()
        if vnorm == 0:
            y.putScalar(0.0)
            return
        eps = self._sqrt_eps * (1.0 + self.x.norm2()) / vnorm
        xp = self.x.copy()
        xp.update(eps, v, 1.0)
        fp = self.residual(xp)
        y.local[...] = (fp.local - self.fx.local) / eps


class NewtonSolver:
    """Newton / Newton-Krylov driver.

    Parameters (ParameterList):

    - ``"Nonlinear Tolerance"`` (1e-8): stop when ||F|| / ||F0|| or ||F||
      falls below it
    - ``"Max Nonlinear Iterations"`` (50)
    - ``"Line Search"``: ``"Full Step"``, ``"Backtrack"``, ``"Quadratic"``
    - ``"Forcing Term"``: ``"Constant"`` or ``"Eisenstat-Walker"``
    - ``"Linear Tolerance"`` (1e-4): (starting) forcing term
    - ``"Max Linear Iterations"`` (200)
    """

    def __init__(self, residual: ResidualFn,
                 jacobian: Optional[Callable[[Vector], Operator]] = None,
                 prec_factory: Optional[Callable[[Vector], Operator]] = None,
                 params: Optional[ParameterList] = None):
        self.residual = residual
        self.jacobian = jacobian
        self.prec_factory = prec_factory
        self.params = params if params is not None else ParameterList("NOX")

    def solve(self, x0: Vector) -> NonlinearResult:
        strategy = str(self.params.get("Strategy", "Line Search"))
        if strategy.strip().lower().startswith("trust"):
            return self._solve_trust_region(x0)
        tol = float(self.params.get("Nonlinear Tolerance", 1e-8))
        maxiter = int(self.params.get("Max Nonlinear Iterations", 50))
        line_search = str(self.params.get("Line Search", "Backtrack"))
        forcing = str(self.params.get("Forcing Term", "Eisenstat-Walker"))
        eta = float(self.params.get("Linear Tolerance", 1e-4))
        lin_maxiter = int(self.params.get("Max Linear Iterations", 200))

        x = x0.copy()
        fx = self.residual(x)
        fnorm = fx.norm2()
        if not np.isfinite(fnorm):
            return NonlinearResult(x, False, 0, fnorm, [fnorm], 0,
                                   "non-finite initial residual")
        f0 = fnorm or 1.0
        history = [fnorm]
        lin_total = 0
        fnorm_old = fnorm
        eta_old = eta
        for k in range(1, maxiter + 1):
            t0 = _TR.now() if _TR.enabled else 0.0
            if fnorm <= tol * f0 or fnorm <= tol:
                return NonlinearResult(x, True, k - 1, fnorm, history,
                                       lin_total)
            # linear model: J dx = -F
            if self.jacobian is not None:
                J = self.jacobian(x)
            else:
                J = JacobianFreeOperator(self.residual, x, fx)
            prec = self.prec_factory(x) if self.prec_factory else None
            rhs = -fx
            if forcing.lower().startswith("eisenstat") and k > 1:
                # Eisenstat-Walker choice 2
                gamma, alpha = 0.9, 2.0
                eta_new = gamma * (fnorm / fnorm_old) ** alpha
                safeguard = gamma * eta_old ** alpha
                if safeguard > 0.1:
                    eta_new = max(eta_new, safeguard)
                eta = min(max(eta_new, 1e-8), 0.9)
            lin = gmres(J, rhs, prec=prec, tol=eta, maxiter=lin_maxiter,
                        restart=min(50, lin_maxiter))
            lin_total += lin.iterations
            dx = lin.x
            # line search
            lam, fx_new, fnorm_new = self._line_search(
                line_search, x, dx, fx, fnorm)
            if lam == 0.0:
                return NonlinearResult(x, False, k, fnorm, history,
                                       lin_total, "line search failed")
            if not np.isfinite(fnorm_new):
                return NonlinearResult(x, False, k, fnorm, history,
                                       lin_total, "non-finite residual")
            x.update(lam, dx, 1.0)
            fx = fx_new
            fnorm_old, fnorm = fnorm, fnorm_new
            eta_old = eta
            history.append(fnorm)
            if _TR.enabled:
                _TR.complete("solver.nox", "newton.iter", None, t0, k=k,
                             fnorm=float(fnorm), lam=float(lam))
        converged = fnorm <= tol * f0 or fnorm <= tol
        return NonlinearResult(x, converged, maxiter, fnorm, history,
                               lin_total,
                               "" if converged else "max iterations reached")

    def _solve_trust_region(self, x0: Vector) -> NonlinearResult:
        """Dogleg trust region (NOX's TrustRegionBased solver).

        Needs the analytic Jacobian (the Cauchy step uses J^T F, which the
        matrix-free operator cannot provide).  The step interpolates
        between the steepest-descent (Cauchy) point and the Newton point,
        clipped to the trust radius; the radius adapts to the ratio of
        actual to predicted reduction.
        """
        if self.jacobian is None:
            raise ValueError("the trust-region strategy needs an explicit "
                             "jacobian(x) callable")
        tol = float(self.params.get("Nonlinear Tolerance", 1e-8))
        maxiter = int(self.params.get("Max Nonlinear Iterations", 50))
        lin_maxiter = int(self.params.get("Max Linear Iterations", 200))
        delta = float(self.params.get("Initial Radius", 1.0))
        max_delta = float(self.params.get("Max Radius", 1.0e6))
        eta = 0.1    # acceptance threshold on the reduction ratio

        x = x0.copy()
        fx = self.residual(x)
        fnorm = fx.norm2()
        f0 = fnorm or 1.0
        history = [fnorm]
        lin_total = 0
        for k in range(1, maxiter + 1):
            t0 = _TR.now() if _TR.enabled else 0.0
            if fnorm <= tol * f0 or fnorm <= tol:
                return NonlinearResult(x, True, k - 1, fnorm, history,
                                       lin_total)
            J = self.jacobian(x)
            # gradient of (1/2)||F||^2: g = J^T F
            g = Vector(x.map, dtype=x.dtype)
            J.apply(fx, g, trans=True)
            # Newton step
            rhs = -fx
            lin = gmres(J, rhs, tol=1e-6, maxiter=lin_maxiter,
                        restart=min(50, lin_maxiter))
            lin_total += lin.iterations
            s_newton = lin.x
            # Cauchy step: -(g'g / (Jg)'(Jg)) g
            jg = Vector(fx.map, dtype=x.dtype)
            J.apply(g, jg)
            gg = g.dot(g)
            jg2 = jg.dot(jg)
            accepted = False
            for _shrink in range(30):
                s = self._dogleg_step(s_newton, g, gg, jg2, delta)
                xt = x.copy()
                xt.update(1.0, s, 1.0)
                ft = self.residual(xt)
                fn = ft.norm2()
                if not np.isfinite(fn) or fn >= _HUGE_FNORM:
                    # trial step left the basin (overflow/NaN residual):
                    # reject without squaring it and shrink the radius
                    delta *= 0.5
                    if delta < 1e-14:
                        break
                    continue
                # predicted reduction from the linear model
                js = Vector(fx.map, dtype=x.dtype)
                J.apply(s, js)
                lin_res = fx.copy()
                lin_res.update(1.0, js, 1.0)
                pred = fnorm ** 2 - lin_res.norm2() ** 2
                actual = fnorm ** 2 - fn ** 2
                rho = actual / pred if pred > 0 else -1.0
                if rho >= eta:
                    accepted = True
                    if rho > 0.75 and abs(s.norm2() - delta) < 1e-12:
                        delta = min(2.0 * delta, max_delta)
                    elif rho < 0.25:
                        delta *= 0.5
                    break
                delta *= 0.5
                if delta < 1e-14:
                    break
            if not accepted:
                return NonlinearResult(x, False, k, fnorm, history,
                                       lin_total,
                                       "trust region collapsed")
            x = xt
            fx = ft
            fnorm = fn
            history.append(fnorm)
            if _TR.enabled:
                _TR.complete("solver.nox", "newton.iter", None, t0, k=k,
                             fnorm=float(fnorm), strategy="trust-region")
        converged = fnorm <= tol * f0 or fnorm <= tol
        return NonlinearResult(x, converged, maxiter, fnorm, history,
                               lin_total,
                               "" if converged else "max iterations reached")

    @staticmethod
    def _dogleg_step(s_newton: Vector, g: Vector, gg: float, jg2: float,
                     delta: float) -> Vector:
        """The dogleg path clipped to radius *delta*."""
        sn_norm = s_newton.norm2()
        if sn_norm <= delta:
            return s_newton.copy()
        # Cauchy point along -g
        if jg2 <= 0:
            s = g.copy()
            s.scale(-delta / (g.norm2() or 1.0))
            return s
        tau_c = gg / jg2
        s_cauchy = g.copy()
        s_cauchy.scale(-tau_c)
        sc_norm = s_cauchy.norm2()
        if sc_norm >= delta:
            s = g.copy()
            s.scale(-delta / (g.norm2() or 1.0))
            return s
        # walk from the Cauchy point toward the Newton point to the radius
        d = s_newton.copy()
        d.update(-1.0, s_cauchy, 1.0)
        a = d.dot(d)
        b = 2.0 * s_cauchy.dot(d)
        c = sc_norm ** 2 - delta ** 2
        disc = max(b * b - 4 * a * c, 0.0)
        tau = (-b + np.sqrt(disc)) / (2 * a) if a > 0 else 0.0
        s = s_cauchy.copy()
        s.update(tau, d, 1.0)
        return s

    def _line_search(self, kind: str, x: Vector, dx: Vector, fx: Vector,
                     fnorm: float):
        kind = kind.strip().lower()
        if kind in ("full step", "full", "none"):
            xt = x.copy()
            xt.update(1.0, dx, 1.0)
            ft = self.residual(xt)
            return 1.0, ft, ft.norm2()
        alpha = 1e-4
        lam = 1.0
        for _try in range(12):
            xt = x.copy()
            xt.update(lam, dx, 1.0)
            ft = self.residual(xt)
            fn = ft.norm2()
            if not np.isfinite(fn) or fn >= _HUGE_FNORM:
                # non-finite (or about-to-overflow) trial residual: the
                # step is far too long; halve and retry
                lam *= 0.5
                continue
            if fn <= (1.0 - alpha * lam) * fnorm:
                return lam, ft, fn
            if kind.startswith("quad"):
                # quadratic interpolation of phi(l) = ||F(x + l dx)||^2
                phi0 = fnorm ** 2
                phil = fn ** 2
                denom = phil - phi0
                lam_new = (phi0 * lam ** 2) / denom if denom > 0 else lam / 2
                lam = float(np.clip(lam_new, 0.1 * lam, 0.5 * lam))
            else:
                lam *= 0.5
        return 0.0, fx, fnorm
