"""Coupled fixed point of the two networks' access and collision probabilities.

A Wi-Fi AP collides when any other station (own network or LAA) transmits in
the same slot, diluted by the cross-network detection probability; the LAA
side is symmetric. Both per-node transmission probabilities must therefore be
solved jointly with both collision probabilities. The solver picks its own
path: a damped fixed-point iteration, handed to a nested bisection when its
residual stops halving, so failure to converge is always observable, never
silent. Only the tolerance is the caller's.
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

# Step fraction of the damped iteration toward the mapped value.
_DAMPING = 0.5

# Stall detection: the residual must at least halve over this many damped
# iterations, otherwise the solve switches to the bisection fallback. The
# cap cannot bind at the default tolerance: a solve that reaches it has
# halved its residual 99 times.
_STALL_WINDOW = 100
_MAX_ITERATIONS = 10000


@dataclass(frozen=True)
class SolverConfig:
    """What the caller asks of the fixed-point solve; the path is the
    solver's own choice."""

    tolerance: float = 1e-10      # max |tau - map(tau)| accepted at the solution

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")


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


def _side(chain, n_own: int, n_other: int, p_d: float):
    """One network's half of the coupled map, its constants bound once:
    (own_tau, other_tau) -> (new_tau, p), or (0.0, 0.0) without stations.

    A station collides when any other station transmits, the other
    network's term weighted by the detection probability; with perfect
    detection this reduces to the plain at-least-one-other-transmits form,
    so one formula serves both models and both networks.
    """
    if not n_own:
        return lambda own_tau, other_tau: (0.0, 0.0)
    tau = chain_tau(*chain)
    # counts as floats, which is what ``float ** int`` converts them to
    own_others, other_all = float(n_own - 1), float(n_other)

    def side(own_tau: float, other_tau: float):
        own_idle = (1.0 - own_tau) ** own_others
        p = (1.0 - (1.0 - other_tau) ** other_all) * p_d * own_idle \
            + 1.0 - own_idle
        # min(p, _P_MAX), which keeps a NaN for the chain to refuse
        return tau(_P_MAX if _P_MAX < p else p), p

    return side


def _sides(s: Scenario):
    """The Wi-Fi and the LAA side of a scenario's coupled map."""
    wifi_chain, laa_chain = s.chains()
    return (_side(wifi_chain, s.n_wifi, s.n_laa, s.p_dw),
            _side(laa_chain, s.n_laa, s.n_wifi, s.p_dl))


def _bisect(shifted) -> tuple[float, int]:
    """Root of an increasing ``shifted`` on [0, 1] and the steps taken.

    A root at an end, such as an absent network's 0, takes no step. Else
    stops at width _BISECT_WIDTH, or once the midpoint rounds onto an end:
    on [0.5, 1) neighbouring floats are 2**-53 apart, wider than the width.
    """
    lo, hi = 0.0, 1.0
    if shifted(lo) >= 0.0:
        return lo, 0
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


def _solve_by_bisection(wifi, laa, cfg: SolverConfig,
                        spent_iterations: int) -> Solution:
    """Scalarized fallback: outer bisection on tau_w, each step solving
    tau_l = laa(tau_l, tau_w) by an inner bisection whose steps are not
    counted."""
    def laa_root(tau_w: float) -> float:
        return _bisect(lambda tau_l: tau_l - laa(tau_l, tau_w)[0])[0]

    tau_w, steps = _bisect(lambda w: w - wifi(w, laa_root(w))[0])
    tau_l = laa_root(tau_w)

    (new_w, p_w), (new_l, p_l) = wifi(tau_w, tau_l), laa(tau_l, tau_w)
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
    wifi, laa = _sides(s)
    tau_w = 2.0 / (s.wifi.w0 + 1.0) if s.n_wifi else 0.0
    tau_l = 2.0 / (s.laa.w0 + 1.0) if s.n_laa else 0.0

    tolerance = cfg.tolerance
    checkpoint = float("inf")
    for iteration in range(1, _MAX_ITERATIONS + 1):
        new_w, p_w = wifi(tau_w, tau_l)
        new_l, p_l = laa(tau_l, tau_w)
        step_w, step_l = new_w - tau_w, new_l - tau_l
        residual = abs(step_w)   # max(|step_w|, |step_l|) without the call
        if abs(step_l) > residual:
            residual = abs(step_l)
        if residual <= tolerance:
            return Solution(tau_w=tau_w, tau_l=tau_l, p_w=p_w, p_l=p_l,
                            residual=residual, iterations=iteration)
        if iteration % _STALL_WINDOW == 0:
            if residual > 0.5 * checkpoint:
                break
            checkpoint = residual
        tau_w += _DAMPING * step_w
        tau_l += _DAMPING * step_l

    return _solve_by_bisection(wifi, laa, cfg, iteration)
