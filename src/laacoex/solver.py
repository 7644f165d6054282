"""Coupled fixed point of the two networks' access and collision probabilities.

A Wi-Fi AP collides when any other station (own network or LAA) transmits in
the same slot, diluted by the cross-network detection probability; the LAA
side is symmetric. Both per-node transmission probabilities must therefore be
solved jointly with both collision probabilities. The solver runs a damped
fixed-point iteration and falls back to nested bisection if the iteration
stalls, so failure to converge is always observable, never silent.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._fields import check_field_types
from .core import Scenario, Solution
from .markov import chain_tau

# Numerical guard: the chain formulas are undefined at p = 1, which only
# arises transiently inside bracketing searches.
_P_MAX = 1.0 - 1e-12

# Bisection interval is shrunk to this width before giving up.
_BISECT_WIDTH = 1e-16


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the fixed-point solve."""

    tolerance: float = 1e-10      # max |tau - map(tau)| accepted at the solution
    max_iterations: int = 10000
    damping: float = 0.5          # step fraction toward the mapped value

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")


class ConvergenceError(RuntimeError):
    """Raised when no iterate meets the residual tolerance.

    Carries the last iterate so callers can report how close the solve got.
    """

    def __init__(self, message: str, tau_w: float, tau_l: float,
                 residual: float, iterations: int):
        super().__init__(message)
        self.tau_w = tau_w
        self.tau_l = tau_l
        self.residual = residual
        self.iterations = iterations


def _compile_map(s: Scenario):
    """Bind the scenario's constants once for a whole solve.

    Returns the coupled map (tau_w, tau_l) -> (new_w, new_l, p_w, p_l), one
    application of tau -> chain(collision(tau)), and ``laa_side``, its LAA
    half alone: (tau_w, tau_l) -> (new_l, p_l), or None without LAA nodes.
    A Wi-Fi AP collides when any other station transmits, the cross-network
    term weighted by the detection probability; with perfect detection this
    reduces to the plain at-least-one-other-transmits form, so one code path
    serves both models. The LAA side is symmetric.
    """
    n_w, n_l, p_dw, p_dl = s.n_wifi, s.n_laa, s.p_dw, s.p_dl
    # counts as floats, which is what ``float ** int`` converts them to
    w_all, l_all, w_others, l_others = map(float, (n_w, n_l, n_w - 1, n_l - 1))
    laa_side = None
    wifi_chain, laa_chain = s.chains()
    if n_w:
        wifi = chain_tau(*wifi_chain)
    if n_l:
        laa = chain_tau(*laa_chain)

        def laa_side(tau_w: float, tau_l: float):
            own_idle = (1.0 - tau_l) ** l_others
            p_l = (1.0 - (1.0 - tau_w) ** w_all) * p_dl * own_idle \
                + 1.0 - own_idle
            # min(p_l, _P_MAX), which keeps a NaN for the chain to refuse
            return laa(_P_MAX if _P_MAX < p_l else p_l), p_l

    def mapped(tau_w: float, tau_l: float):
        new_w = p_w = 0.0
        if n_w:
            own_idle = (1.0 - tau_w) ** w_others
            p_w = (1.0 - (1.0 - tau_l) ** l_all) * p_dw * own_idle \
                + 1.0 - own_idle
            new_w = wifi(_P_MAX if _P_MAX < p_w else p_w)
        new_l, p_l = laa_side(tau_w, tau_l) if n_l else (0.0, 0.0)
        return new_w, new_l, p_w, p_l

    return mapped, laa_side


def _bisect(shifted) -> tuple[float, int]:
    """Root of an increasing ``shifted`` on [0, 1] and the steps taken.

    Stops at width _BISECT_WIDTH, or once the midpoint rounds onto an end:
    on [0.5, 1) neighbouring floats are 2**-53 apart, wider than the width.
    """
    lo, hi = 0.0, 1.0
    if shifted(hi) < 0.0:
        return hi, 0
    steps = 0
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        steps += 1
        if not lo < mid < hi:   # the result is mid, as if lo and hi met
            break
        if shifted(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), steps


def _laa_partial_fixed_point(laa_side, tau_w: float) -> float:
    """Solve tau_l = chain(collision(tau_w, tau_l)) by bisection, tau_w held."""
    if laa_side is None:
        return 0.0
    return _bisect(lambda tau_l: tau_l - laa_side(tau_w, tau_l)[0])[0]


def _solve_by_bisection(mapped, laa_side, has_wifi: bool, cfg: SolverConfig,
                        spent_iterations: int) -> Solution:
    """Scalarized fallback: outer bisection on tau_w, nested solve for tau_l."""
    tau_w, steps = 0.0, 0
    if has_wifi:
        tau_w, steps = _bisect(lambda w: w - mapped(
            w, _laa_partial_fixed_point(laa_side, w))[0])
    tau_l = _laa_partial_fixed_point(laa_side, tau_w)

    new_w, new_l, p_w, p_l = mapped(tau_w, tau_l)
    residual = max(abs(new_w - tau_w), abs(new_l - tau_l))
    iterations = spent_iterations + steps
    if residual > cfg.tolerance:
        raise ConvergenceError(
            f"fixed point not reached: residual {residual:.3e} exceeds "
            f"tolerance {cfg.tolerance:.3e} after damped iteration and "
            f"bisection fallback",
            tau_w=tau_w, tau_l=tau_l, residual=residual,
            iterations=iterations)
    return Solution(tau_w=tau_w, tau_l=tau_l, p_w=p_w, p_l=p_l,
                    residual=residual, iterations=iterations,
                    method="bisection")


# Stall detection: the residual must at least halve over this many damped
# iterations, otherwise the solve switches to the bisection fallback.
_STALL_WINDOW = 100


def solve_coexistence(s: Scenario, cfg: SolverConfig = SolverConfig()) -> Solution:
    """Jointly solve both access probabilities against both collision
    probabilities.

    Returns the fixed point (tau_w, tau_l, p_w, p_l); the collision
    probabilities are evaluated exactly at the returned access probabilities
    and the chain equations hold within ``cfg.tolerance``. When one network
    is absent its probabilities are reported as 0 and the system reduces to
    the single-technology fixed point.

    Raises ConvergenceError (with the last iterate attached) if neither the
    damped iteration nor the bisection fallback meets the tolerance.
    """
    s = s.effective()
    mapped, laa_side = _compile_map(s)
    tau_w = 2.0 / (s.wifi.w0 + 1.0) if s.n_wifi else 0.0
    tau_l = 2.0 / (s.laa.w0 + 1.0) if s.n_laa else 0.0

    tolerance, damping = cfg.tolerance, cfg.damping
    checkpoint = float("inf")
    iteration = 0
    for iteration in range(1, cfg.max_iterations + 1):
        new_w, new_l, p_w, p_l = mapped(tau_w, tau_l)
        step_w, step_l = new_w - tau_w, new_l - tau_l
        residual = max(abs(step_w), abs(step_l))
        if residual <= tolerance:
            return Solution(tau_w=tau_w, tau_l=tau_l, p_w=p_w, p_l=p_l,
                            residual=residual, iterations=iteration)
        if iteration % _STALL_WINDOW == 0:
            if residual > 0.5 * checkpoint:
                break
            checkpoint = residual
        tau_w += damping * step_w
        tau_l += damping * step_l

    return _solve_by_bisection(mapped, laa_side, bool(s.n_wifi), cfg,
                               iteration)
