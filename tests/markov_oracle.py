"""Test oracle: the explicit stationary distribution of one backoff chain.

Enumerates every (stage, counter) state from the per-stage recursions, so
the closed-form transmission probabilities in ``laacoex.markov`` can be
checked against an independent computation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class StationaryDistribution:
    """Full stationary distribution of one backoff chain."""

    chain_kind: str                        # "wifi" | "laa"
    b: dict[tuple[int, int], float]        # (stage, counter) -> probability
    b00: float

    def stage_heads(self) -> list[float]:
        """b[j, 0] for each stage j, i.e. the transmit-state occupancies."""
        n_stages = 1 + max(j for j, _ in self.b)
        return [self.b[(j, 0)] for j in range(n_stages)]


def _stationary(w0: int, m: int, extra_stages: int, p: float,
                chain_kind: str) -> StationaryDistribution:
    # Direct enumeration from the per-stage recursions: head occupancies
    # scale as p^j, counters decay linearly within a window, and the
    # normalization is an explicit sum. Deliberately independent of the
    # closed forms in laacoex.markov.
    if not 0.0 <= p < 1.0:
        raise ValueError(f"collision probability must be in [0, 1), got {p!r}")
    raw: dict[tuple[int, int], float] = {}
    for j in range(m + extra_stages + 1):
        window = 2 ** min(j, m) * w0
        head = p ** j
        for k in range(window):
            raw[(j, k)] = head * (window - k) / window
    total = math.fsum(raw.values())
    b = {jk: v / total for jk, v in raw.items()}
    return StationaryDistribution(chain_kind=chain_kind, b=b, b00=b[(0, 0)])


def wifi_stationary(w0: int, m: int, p_w: float) -> StationaryDistribution:
    """Explicit stationary distribution of the Wi-Fi chain (stages 0..m+1)."""
    return _stationary(w0, m, 1, p_w, "wifi")


def laa_stationary(w0: int, m: int, e_l: int,
                   p_l: float) -> StationaryDistribution:
    """Explicit stationary distribution of the LAA chain (stages 0..m+e_l)."""
    if not 0 <= e_l <= 8:
        raise ValueError("e_l must be in [0, 8]")
    return _stationary(w0, m, e_l, p_l, "laa")
