"""Slot-level Monte-Carlo simulator of the coexisting MAC protocols.

The simulator lives in the same slotted abstraction as the analytical model so
the two compare number for number: every channel event is one backoff step for
every station (counters freeze during others' transmissions and a busy period
is one event), a station transmits when its counter hits zero, and the six
event classes carry the analytical event durations. The loop is event-driven:
each station holds the absolute index of the event at which it next transmits
(its counter at event k is that index minus k), so the run jumps from one
transmission to the next, books the idle slots between per batch and touches
only the transmitters. One seeded PCG64 stream feeds every draw in a fixed
order, so a configuration is bit-reproducible: initial counters Wi-Fi then
LAA; per event the Wi-Fi transmitters by index, then the LAA ones, each
drawing its detection coin (when one is needed) before its new counter.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

import numpy as np

from .core import Scenario, derived_durations
from .throughput import event_durations

_BATCHES = 100          # batch-means groups for standard-error estimates
_POOL_CHUNK = 1 << 16   # uint64 draws fetched from the generator at a time


def _draws(seed: int):
    """Endless iterator over PCG64 uint64 draws, fetched a chunk at a time."""
    gen = np.random.Generator(np.random.PCG64(seed))
    chunks = map(partial(gen.integers, 0, 1 << 64, dtype=np.uint64),
                 repeat(_POOL_CHUNK))
    return chain.from_iterable(map(np.ndarray.tolist, chunks))


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scenario, length, seed, warmup."""

    scenario: Scenario
    horizon_events: int = 2_000_000   # channel events simulated in total
    seed: int = 1                     # PCG64 seed
    warmup_events: int = 10_000       # leading events excluded from statistics
    trace_path: str | None = None     # per-event CSV dump (debugging; slow)

    def __post_init__(self) -> None:
        for name in ("horizon_events", "warmup_events", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not self.horizon_events > self.warmup_events >= 0:
            raise ValueError("horizon_events must exceed warmup_events >= 0")


@dataclass(frozen=True)
class SimReport:
    """Measured counterparts of the analytical quantities."""

    tput_wifi_mbps: float
    tput_laa_mbps: float
    measured_tau_w: float
    measured_tau_l: float
    measured_p_w: float
    measured_p_l: float
    event_counts: dict[str, int]
    stderr: dict[str, float]


EVENT_CLASSES = ("idle", "wifi-success", "laa-success",
                 "wifi-collision", "laa-collision", "cross-collision")


def simulate(cfg: SimConfig) -> SimReport:
    """Run the protocol with perfect cross-network sensing.

    Detection probabilities in the scenario are ignored; any overlap between
    transmissions is a collision for every participant.
    """
    return _run(cfg, honor_detection=False)


def simulate_with_detection(cfg: SimConfig) -> SimReport:
    """Run the protocol with imperfect cross-network energy detection.

    When exactly one station of a network overlaps only with the other
    network's transmissions, its own backoff chain registers a collision
    with the scenario's detection probability and a success otherwise,
    mirroring how the analytical collision probabilities weight the
    cross-network term. Event class, duration and delivered payload are
    unaffected (a cross event carries no payload either way), so analytic
    and simulated throughput stay comparable. With both detection
    probabilities at 1 the run is bit-identical to :func:`simulate`.
    """
    return _run(cfg, honor_detection=True)


def _run(cfg: SimConfig, honor_detection: bool) -> SimReport:
    s = cfg.scenario.effective()
    n_w, n_l = s.n_wifi, s.n_laa
    p_d = (s.p_dw, s.p_dl) if honor_detection else (1.0, 1.0)

    # Tuples indexed by network (0 Wi-Fi, 1 LAA), like the per-batch sums below.
    d = event_durations(s.wifi, s.laa)
    success = (("wifi-success", d.t_sw), ("laa-success", d.t_sl))
    collision = (("wifi-collision", d.t_cw), ("laa-collision", d.t_cl))
    psize, _, _ = derived_durations(s.wifi)
    bits = (psize * s.wifi.data_rate_mbps,
            s.laa.pdcch_fraction * s.laa.txop_us * s.laa.data_rate_mbps)
    slot = s.wifi.slot_us

    # Stage ceilings: the chain resets after its last stay at the top window.
    # Comparison mode drops the Wi-Fi chain's extra stay, like the testbed MAC.
    max_stage_w = s.wifi.m + (0 if s.comparison_mode else 1)
    max_stage_l = s.laa.m + s.laa.retry_limit
    win_w = [2 ** min(j, s.wifi.m) * s.wifi.w0 for j in range(max_stage_w + 1)]
    win_l = [2 ** min(j, s.laa.m) * s.laa.w0 for j in range(max_stage_l + 1)]
    # Per station, Wi-Fi first: the top stage and, per stage, the window with
    # the bit mask of its mask-and-reject draw (no modulo bias).
    top = [max_stage_w] * n_w + [max_stage_l] * n_l
    windows = [[(w, (1 << (w - 1).bit_length()) - 1) for w in win]
               for win in [win_w] * n_w + [win_l] * n_l]

    draw = _draws(cfg.seed).__next__
    stage = [0] * (n_w + n_l)
    fire = []           # absolute index of each station's next transmission
    for wins in windows:
        width, mask = wins[0]
        backoff = draw() & mask
        while backoff >= width:
            backoff = draw() & mask
        fire.append(backoff)

    horizon, warmup = cfg.horizon_events, cfg.warmup_events
    n_batches = min(_BATCHES, horizon - warmup)
    batch_size = (horizon - warmup) // n_batches
    b_time = [0.0] * n_batches
    b_events = [0] * n_batches
    b_bits = ([0.0] * n_batches, [0.0] * n_batches)
    b_att = ([0] * n_batches, [0] * n_batches)
    b_col = ([0] * n_batches, [0] * n_batches)
    counts = dict.fromkeys(EVENT_CLASSES, 0)

    trace = _TraceWriter(cfg.trace_path, n_w, n_l) if cfg.trace_path else None

    # Batch b ends before event ends[b]; the last one runs to the horizon.
    # Events before the warmup's end are in batch -1 and not counted.
    ends = [warmup + (k + 1) * batch_size for k in range(n_batches - 1)]
    ends.append(horizon)
    b, b_end = -1, warmup
    idx = 0             # first event not yet simulated
    while True:
        t = min(fire)
        if t > idx:     # idle slots until the next transmission
            end = t if t < horizon else horizon
            if trace:
                for at in range(idx, end):
                    trace.row(at, "idle", slot, stage, fire)
            while idx < end:   # idle runs may straddle batches
                if idx == b_end:
                    b += 1
                    b_end = ends[b]
                stop = end if end < b_end else b_end
                if b >= 0:
                    counts["idle"] += stop - idx
                    b_time[b] = _add_repeated(b_time[b], slot, stop - idx)
                    b_events[b] += stop - idx
                idx = stop
        if t >= horizon:
            break

        i = fire.index(t)
        n_tx = fire.count(t)
        if n_tx == 1:
            transmitters = (i,)
            n_wt = 1 if i < n_w else 0
        else:
            transmitters = [i]
            for _ in range(n_tx - 1):
                transmitters.append(fire.index(t, transmitters[-1] + 1))
            n_wt = bisect_left(transmitters, n_w)
        n_lt = n_tx - n_wt
        n_net = (n_wt, n_lt)
        if n_wt and n_lt:
            cls, dur = "cross-collision", d.t_cc
        else:           # one network transmits: a success if alone
            net = n_wt == 0
            cls, dur = (success if n_tx == 1 else collision)[net]
        if trace:
            trace.row(t, cls, dur, stage, fire)

        if t == b_end:
            b += 1
            b_end = ends[b]
        counted = b >= 0
        if counted:
            counts[cls] += 1
            b_time[b] += dur
            b_events[b] += 1
            b_att[0][b] += n_wt
            b_att[1][b] += n_lt
            if n_tx == 1:
                b_bits[net][b] += bits[net]

        for i in transmitters:
            net = i >= n_w
            if n_net[net] == 1 and (n_net[not net] == 0 or not _detects(draw, p_d[net])):
                stage[i] = 0
            else:
                if counted:
                    b_col[net][b] += 1
                stage[i] = 0 if stage[i] == top[i] else stage[i] + 1
            width, mask = windows[i][stage[i]]
            backoff = draw() & mask
            while backoff >= width:
                backoff = draw() & mask
            fire[i] = t + 1 + backoff
        idx = t + 1

    if trace:
        trace.close()
    return _report(n_w, n_l, counts, b_time, b_events, *b_bits, *b_att, *b_col)


def _add_repeated(total: float, step: float, n: int) -> float:
    """``total`` after ``n`` sequential ``total += step``, bit for bit.

    If ``total`` and ``step`` lie on the grid of the final sum's ulp, so does
    every partial sum: each addition is exact and one multiply-add gives the
    same bits. Otherwise some additions round, so they are replayed.
    """
    end = total + n * step
    grid = math.ulp(end)
    if not (total % grid or step % grid):
        return end
    for _ in range(n):
        total += step
    return total


def _detects(draw, p_d: float) -> bool:
    # Draw only when the outcome is uncertain, so perfect-detection runs
    # consume the exact same random stream as the plain protocol.
    return p_d >= 1.0 or (p_d > 0.0 and draw() < p_d * 2.0 ** 64)


def _report(n_w, n_l, counts, b_time, b_events, b_bits_w, b_bits_l,
            b_att_w, b_att_l, b_col_w, b_col_l) -> SimReport:
    total_time = math.fsum(b_time)
    events = sum(b_events)
    att_w, att_l = sum(b_att_w), sum(b_att_l)
    col_w, col_l = sum(b_col_w), sum(b_col_l)

    def per_batch(num, den, scale=1.0):
        return [n / (d * scale) if d else 0.0 for n, d in zip(num, den)]

    batch_metrics = {
        "tput_wifi_mbps": per_batch(b_bits_w, b_time),
        "tput_laa_mbps": per_batch(b_bits_l, b_time),
        "tau_w": per_batch(b_att_w, b_events, n_w) if n_w else [0.0],
        "tau_l": per_batch(b_att_l, b_events, n_l) if n_l else [0.0],
        "p_w": per_batch(b_col_w, b_att_w),
        "p_l": per_batch(b_col_l, b_att_l),
    }
    stderr = {}
    for name, values in batch_metrics.items():
        if len(values) > 1:
            stderr[name] = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        else:
            stderr[name] = 0.0

    return SimReport(
        tput_wifi_mbps=math.fsum(b_bits_w) / total_time,
        tput_laa_mbps=math.fsum(b_bits_l) / total_time,
        measured_tau_w=att_w / (n_w * events) if n_w else 0.0,
        measured_tau_l=att_l / (n_l * events) if n_l else 0.0,
        measured_p_w=col_w / att_w if att_w else 0.0,
        measured_p_l=col_l / att_l if att_l else 0.0,
        event_counts=counts,
        stderr=stderr)


class _TraceWriter:
    """Per-event CSV dump: index, class, duration, per-node chain state."""

    def __init__(self, path: str, n_w: int, n_l: int):
        self._fh = open(path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        header = ["event_index", "event_class", "duration_us"]
        for node in [f"w{i}" for i in range(n_w)] + [f"l{i}" for i in range(n_l)]:
            header += [f"{node}_stage", f"{node}_counter"]
        self._writer.writerow(header)

    def row(self, idx, cls, dur, stage, fire) -> None:
        cells = [idx, cls, dur]
        for st, at in zip(stage, fire):
            cells += [st, at - idx]
        self._writer.writerow(cells)

    def close(self) -> None:
        self._fh.close()
