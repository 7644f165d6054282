"""Slot-level Monte-Carlo simulator of the coexisting MAC protocols.

The simulator lives in the same slotted abstraction as the analytical model so
the two compare number for number: every channel event is one backoff step for
every station (counters freeze during others' transmissions and a busy period
is one event), a station transmits when its counter hits zero, and the six
event classes carry the analytical event durations. The loop is event-driven:
each station holds the absolute index of the event at which it next transmits
(its counter at event k is that index minus k), so the run jumps from one
transmission to the next, books the idle slots between per batch and touches
only the transmitters. A lone transmitter always succeeds and draws no
detection coin, so it takes a short path; collisions take the general one.
The warmup is batch 0, summed like the others and dropped at the end. A
batch's sums stay in locals until it closes; its event count is its length,
and its idle count the events minus its transmissions. One seeded PCG64
stream feeds every draw in a fixed order, so a configuration is
bit-reproducible: initial counters Wi-Fi then LAA; per event the Wi-Fi
transmitters by index, then the LAA ones, each drawing its detection coin
(when one is needed) before its new counter.
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
# uint64 draws fetched from the generator at a time. Each is one raw PCG64
# output, so the stream does not depend on it; 30k events at 2-6 stations
# take 6k-53k draws.
_POOL_CHUNK = 1 << 12


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
    t_e_us: float     # mean event time: total simulated time / counted events
    event_counts: dict[str, int]
    stderr: dict[str, float]


EVENT_CLASSES = ("idle", "wifi-success", "laa-success",
                 "wifi-collision", "laa-collision", "cross-collision")


def simulate(cfg: SimConfig) -> SimReport:
    """Run the protocol with the scenario's cross-network energy detection.

    When exactly one station of a network overlaps only with the other
    network's transmissions, its backoff chain registers a collision with
    its network's detection probability and a success otherwise, as the
    analytic collision probabilities weight the cross-network term. Event
    class, duration and payload (none for a cross event) do not change. A
    detection probability of 1 draws no coin.
    """
    s = cfg.scenario.effective()
    n_w, n_l = s.n_wifi, s.n_laa
    p_d = (s.p_dw, s.p_dl)

    d = event_durations(s)
    t_sw, t_sl = d.t_sw, d.t_sl
    success = (("wifi-success", t_sw), ("laa-success", t_sl))
    # Collision kinds, indexed as n_coll below: Wi-Fi, LAA, cross.
    collision = (("wifi-collision", d.t_cw), ("laa-collision", d.t_cl),
                 ("cross-collision", d.t_cc))
    psize, _, _ = derived_durations(s.wifi)
    bit_w = psize * s.wifi.data_rate_mbps
    bit_l = s.laa.pdcch_fraction * s.laa.txop_us * s.laa.data_rate_mbps
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
    first = [wins[0] for wins in windows]

    draw = _draws(cfg.seed).__next__
    stage = [0] * (n_w + n_l)
    fire = []           # absolute index of each station's next transmission
    for width, mask in first:
        backoff = draw() & mask
        while backoff >= width:
            backoff = draw() & mask
        fire.append(backoff)

    horizon, warmup = cfg.horizon_events, cfg.warmup_events
    n_batches = min(_BATCHES, horizon - warmup)
    batch_size = (horizon - warmup) // n_batches
    # Batch k ends before event ends[k]: batch 0 is the warmup, the last ends
    # at the horizon, and the sentinel is never reached.
    next_end = iter([warmup + k * batch_size for k in range(n_batches)]
                    + [horizon, math.inf]).__next__
    b_end = next_end()
    batches = []
    # Sums of the open batch: time, bits, successes and attempts in collision
    # events per network, chain collisions per network, events per kind.
    time_us = bits_w = bits_l = 0.0
    n_sw = n_sl = att_w = att_l = 0
    col, n_coll = [0, 0], [0, 0, 0]

    trace = _TraceWriter(cfg.trace_path, n_w, n_l) if cfg.trace_path else None
    idx = 0             # first event not yet booked
    while True:
        t = min(fire)
        if trace:
            for at in range(idx, min(t, horizon)):
                trace.row(at, "idle", slot, stage, fire)
        while b_end <= t:       # close every batch that ends by this event
            if idx < b_end:     # idle runs may straddle batches
                time_us = _add_repeated(time_us, slot, b_end - idx)
                idx = b_end
            batches.append((time_us, bits_w, bits_l, n_sw + att_w,
                            n_sl + att_l, *col, n_sw, n_sl, *n_coll))
            time_us = bits_w = bits_l = 0.0
            n_sw = n_sl = att_w = att_l = 0
            col, n_coll = [0, 0], [0, 0, 0]
            b_end = next_end()
        if t >= horizon:
            break
        if idx < t:             # idle slots until the next transmission
            time_us = _add_repeated(time_us, slot, t - idx)

        i = fire.index(t)
        n_tx = fire.count(t)
        if n_tx == 1:   # a lone transmitter succeeds; no coin without a rival
            if trace:
                trace.row(t, *success[i >= n_w], stage, fire)
            if i < n_w:
                time_us += t_sw
                bits_w += bit_w
                n_sw += 1
            else:
                time_us += t_sl
                bits_l += bit_l
                n_sl += 1
            stage[i] = 0
            width, mask = first[i]
            backoff = draw() & mask
            while backoff >= width:
                backoff = draw() & mask
            fire[i] = t + 1 + backoff
        else:
            transmitters = [i]
            for _ in range(n_tx - 1):
                transmitters.append(fire.index(t, transmitters[-1] + 1))
            n_wt = bisect_left(transmitters, n_w)
            n_lt = n_tx - n_wt
            kind = 2 if n_wt and n_lt else n_wt == 0
            cls, dur = collision[kind]
            n_coll[kind] += 1
            if trace:
                trace.row(t, cls, dur, stage, fire)
            time_us += dur
            att_w += n_wt
            att_l += n_lt

            n_net = (n_wt, n_lt)
            for i in transmitters:
                net = i >= n_w
                # a network's lone station succeeds unless it senses the other
                if n_net[net] == 1 and not _detects(draw, p_d[net]):
                    stage[i] = 0
                else:
                    col[net] += 1
                    stage[i] = 0 if stage[i] == top[i] else stage[i] + 1
                width, mask = windows[i][stage[i]]
                backoff = draw() & mask
                while backoff >= width:
                    backoff = draw() & mask
                fire[i] = t + 1 + backoff
        idx = t + 1

    if trace:
        trace.close()
    columns = list(zip(*batches[1:]))
    counted = horizon - warmup
    tx = [sum(column) for column in columns[7:]]
    counts = dict(zip(EVENT_CLASSES, [counted - sum(tx)] + tx))
    b_events = [batch_size] * (n_batches - 1)
    b_events.append(counted - sum(b_events))
    return _report(n_w, n_l, counts, b_events, *columns[:7])


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


def _report(n_w, n_l, counts, b_events, b_time, b_bits_w, b_bits_l,
            b_att_w, b_att_l, b_col_w, b_col_l) -> SimReport:
    total_time = _fsum(b_time)
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
    # an overflowing spread is reported as a non-finite value below, not
    # as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        stderr = {name: float(np.std(values, ddof=1) / math.sqrt(len(values)))
                  if len(values) > 1 else 0.0
                  for name, values in batch_metrics.items()}

    report = SimReport(
        tput_wifi_mbps=_fsum(b_bits_w) / total_time,
        tput_laa_mbps=_fsum(b_bits_l) / total_time,
        measured_tau_w=att_w / (n_w * events) if n_w else 0.0,
        measured_tau_l=att_l / (n_l * events) if n_l else 0.0,
        measured_p_w=col_w / att_w if att_w else 0.0,
        measured_p_l=col_l / att_l if att_l else 0.0,
        t_e_us=total_time / events,
        event_counts=counts,
        stderr=stderr)
    for name, value in chain(vars(report).items(), (
            (f"stderr_{key}", err) for key, err in stderr.items())):
        if isinstance(value, float) and not math.isfinite(value):
            raise OverflowError(f"simulated {name} is {value}: a time, rate "
                                "or size is out of floating-point range")
    return report


def _fsum(values) -> float:
    """``math.fsum`` of non-negative values, inf where the sum overflows."""
    try:
        return math.fsum(values)
    except OverflowError:   # the exact sum lies beyond the largest float
        return math.inf


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
