"""Stationary quantities of the two per-node backoff chains.

Both technologies run a binary-exponential-backoff chain over states
(stage j, counter k): the window doubles with each collision up to stage m
and the chain then stays at the top window for a number of further failures
before resetting. Wi-Fi stays exactly one extra stage; LAA stays for a
configurable retry limit. The closed-form per-slot transmission probability
is all the model needs; the tests check it against an explicit enumeration
of the stationary distribution.
"""
from __future__ import annotations

# |1 - x| below this uses the limit value of (1 - x^n)/(1 - x); the factor
# cancels analytically, the closed form just cannot evaluate it at x = 1.
_POLE_EPS = 1e-9


def _check_collision_probability(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"collision probability must be in [0, 1), got {p!r}")


def chain_tau(w0: int, m: int, extra_stages: int):
    """tau(p) of a chain that holds the top window for ``extra_stages``
    further failures, with the chain's constants bound once.

    Occupancy of the transmit states is proportional to sum_j p^j over all
    stages; the window term aggregates the mean residual backoff per stage.
    Each geometric sum (1 - x^n)/(1 - x) takes its limit n at the removable
    pole x = 1. ``w0`` and ``m`` are not checked here. Counts are bound as
    floats, which is what ``float ** int`` converts them to anyway.
    """
    w0, top = float(w0), 2.0 ** m
    n_stages, held_terms, head_terms = map(float, (m + extra_stages + 1,
                                                   extra_stages, m + 1))

    def tau(p: float) -> float:
        if not 0.0 <= p < 1.0:
            _check_collision_probability(p)
        q = 1.0 - p                     # > 0 from here on
        if q < _POLE_EPS:
            transmit, held = n_stages, held_terms
        else:
            transmit = (1.0 - p ** n_stages) / q
            held = (1.0 - p ** held_terms) / q
        x = 2.0 * p
        q2 = 1.0 - x
        heads = (head_terms if -_POLE_EPS < q2 < _POLE_EPS
                 else (1.0 - x ** head_terms) / q2)
        return 2.0 / (w0 * (heads + top * p ** head_terms * held)
                      / transmit + 1.0)

    return tau


def wifi_tau(w0: int, m: int, p_w: float) -> float:
    """Per-slot transmission probability of a saturated Wi-Fi station.

    The chain holds the top window for one extra failure after stage m.
    Collapses to 2/(w0+1) at p_w = 0 and is continuous across the removable
    p_w = 0.5 pole of the closed form.
    """
    if w0 < 1 or m < 0:
        raise ValueError("w0 must be >= 1 and m >= 0")
    _check_collision_probability(p_w)
    return chain_tau(w0, m, 1)(p_w)


def laa_tau(w0: int, m: int, e_l: int, p_l: float) -> float:
    """Per-slot transmission probability of a saturated LAA node.

    ``e_l`` is the number of extra failures spent at the top window before
    the stage resets; ``e_l=1`` makes the chain identical to the Wi-Fi one.
    """
    if w0 < 1 or m < 0:
        raise ValueError("w0 must be >= 1 and m >= 0")
    if not 0 <= e_l <= 8:
        raise ValueError("e_l must be in [0, 8]")
    _check_collision_probability(p_l)
    return chain_tau(w0, m, e_l)(p_l)
