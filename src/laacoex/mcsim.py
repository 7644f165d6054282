"""Slot-level Monte-Carlo simulator of the coexisting MAC protocols.

The simulator lives in the same slotted abstraction as the analytical model so
the two compare number for number: every channel event is one backoff step for
every station (counters freeze during others' transmissions and a busy period
is one event), a station transmits when its counter hits zero, and the six
event classes carry the analytical event durations. The loop is event-driven:
each station's next transmission is the absolute index of an event (its counter
at event k is that index minus k), so the run jumps from one transmission to
the next and touches only the transmitters. A binary heap keyed by (index,
station, stage), one int with the stage lowest, is the only record of those
indices and stages, so each transmitter costs O(log n) rather than a scan of
all n stations, and stations that share an event leave it by station number,
which is the draw order below. The stations of a network share one table per
stage of its next window and of its key increments, one per counter the window
can draw: the step that moves a key to the next event and stage plus that
counter in key units. So a transmitter's key is advanced in place by one lookup
and one add, and the batch edge is compared as a key: the loop splits a key
only to close a batch. The next transmitter's key is held out of the heap,
whose root, kept defined by a sentinel at the last edge, is then the runner-up
key; each reschedule is one heappushpop, which returns the new least key. A
lone transmitter always succeeds and draws no detection coin, so it takes a
short path; a collision walks the held key, one heappushpop per transmitter,
Wi-Fi's and then LAA's. A network whose p_d is below 1 reads whether its first
transmitter is its only one off the runner-up key; at p_d = 1 nothing hangs on
that, so it is not tested. The loop only counts, in batches that end at edges
its caller passes: a batch closes with its event count and its per-class and
per-network counts, idle being its events minus its busy ones and chain
collisions a network's attempts in collision events minus its undetected lone
stations. Time and payload bits are formed from the counts when the run ends,
each batch's time as the exact sum of count times duration over the six
classes, rounded once. The warmup is batch 0, counted like the others and
dropped at the end. One seeded PCG64 stream feeds every draw in a fixed order,
so a configuration is bit-reproducible: initial counters Wi-Fi then LAA; per
event the Wi-Fi transmitters by index, then the LAA ones, each drawing its
detection coin (when one is needed) before its new counter. A draw is only
masked, or compared with a coin's bound, the integer ceil(p_d * 2**64), so
``_count`` reads it packed into a small int, in slots: its bits under the
widest mask and, above them, how many bounds it reaches, one comparison per
bound, 4,096 at a time, each pulled with the builtin ``next()``. Where the mask
and rank bits do not fit in 64 the draw stays raw, and so do the bounds.
``simulate`` writes nothing: ``write_trace`` dumps a run from ``_replay``, a
plain per-event loop on its own raw copy of the stream, whose coin compares
with the float p_d * 2**64.
"""
from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappushpop
from itertools import chain
from operator import mul

import numpy as np

from ._fields import check_field_types
from .core import Scenario, ThroughputReport, check_run_length
from .throughput import (EVENT_CLASSES, _build_report, event_durations,
                         payload_bits)

_BATCHES = 100          # batch-means groups for standard-error estimates
MAX_STATIONS = 1024     # larger runs are refused before any list is built
# Raw PCG64 outputs fetched from the generator, and packed, at a time. Each
# draw is one output, so the stream does not depend on it; 30k events at 2-6
# stations take 6k-53k draws.
_POOL_CHUNK = 1 << 12
# Key increments tabulated per window up to CWmax + 1 of 802.11 and of LAA's
# class 4: a wider window's are the range itself, which indexes exactly at any
# width but forms an int per lookup. At 2+2 stations a list beats the range
# up to about 700 slots over 30k events and about 6,000 over 2M.
_INC_CAP = 1 << 10


def _pack(raw, bits, bounds):
    """Each uint64 of ``raw`` with its low ``bits`` bits kept and, above
    them, its rank: how many ``bounds`` it reaches, one uint64 comparison
    each (numpy 1.x would compare with a Python int >= 2**63 in float64),
    as a list of Python ints. All 64 bits leave no room for a rank, so they
    come with no bounds, and the mask keeps every output as it is."""
    packed = raw & np.uint64((1 << bits) - 1)
    for bound in bounds:
        packed += np.left_shift(raw >= np.uint64(bound), np.uint64(bits),
                                dtype=np.uint64)
    return packed.tolist()


def _draws(seed: int, bits: int = 64, bounds=()):
    """Endless iterator over PCG64's uint64 outputs, packed by ``_pack``
    ``_POOL_CHUNK`` at a time into Python ints for ``next()``. The
    defaults, all 64 bits and no bounds, give the raw outputs."""
    gen = np.random.PCG64(seed)
    return chain.from_iterable(iter(lambda: _pack(
        gen.random_raw(_POOL_CHUNK), bits, bounds), None))


def _incs(step, width, one):
    """The key increments of a window of ``width`` slots: entry b is
    ``step + b * one``, a list up to ``_INC_CAP`` slots, else the range."""
    incs = range(step, step + width * one, one)
    return list(incs) if width <= _INC_CAP else incs


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: scenario, length, seed, warmup, checked on build."""

    scenario: Scenario
    horizon_events: int = 2_000_000   # channel events simulated in total
    seed: int = 1                     # PCG64 seed
    warmup_events: int = 10_000       # leading events excluded from statistics

    def __post_init__(self) -> None:
        check_field_types(self)
        check_run_length(self.horizon_events, self.seed, self.warmup_events)
        n = self.scenario.n_wifi + self.scenario.n_laa
        if n > MAX_STATIONS:
            raise ValueError(f"n_wifi + n_laa must be <= {MAX_STATIONS} for "
                             f"the simulator, got {n}")


@dataclass(frozen=True)
class SimReport(ThroughputReport):
    """A ThroughputReport measured over the counted events, plus what only
    the simulator has. ``p_trw`` is the share of events with a Wi-Fi
    transmission, ``p_sw`` successes over successes plus Wi-Fi collisions
    (0.0 without either), LAA alike. The durations are the analytic ones.
    The counted events' time is the exact sum of count times duration over
    ``event_counts``, rounded once; ``t_e_us`` is that time per event, and
    a throughput is its network's successes times bits per success, rounded
    once, over that time."""

    tau_w: float      # attempts per Wi-Fi station per event
    tau_l: float
    p_w: float        # chain collisions per Wi-Fi attempt
    p_l: float
    event_counts: dict[str, int]   # per EVENT_CLASSES class
    stderr: dict[str, float]       # batch-means standard errors


def simulate(cfg: SimConfig) -> SimReport:
    """Run the protocol with the scenario's cross-network energy detection.

    When exactly one station of a network overlaps only with the other
    network's transmissions, its backoff chain registers a collision with
    its network's detection probability and a success otherwise, as the
    analytic collision probabilities weight the cross-network term. Event
    class, duration and payload (none for a cross event) do not change. A
    detection probability of 0 or 1 draws no coin.
    """
    horizon, warmup = cfg.horizon_events, cfg.warmup_events
    n_batches = min(_BATCHES, horizon - warmup)
    size = (horizon - warmup) // n_batches
    edges = [warmup + k * size for k in range(n_batches)] + [horizon]
    return _report(cfg.scenario, _count(cfg.scenario, cfg.seed, edges)[1:])


def _count(s: Scenario, seed: int, edges) -> list:
    """Count ``s``'s run from ``seed`` in batches, the k-th ending before
    event ``edges[k]``, the edges ascending; return them when they end."""
    n_w, n_l, chains = s.n_wifi, s.n_laa, s.chains()

    # Heap of fire << shift | station << sb | stage, fire being the absolute
    # index of the station's next transmission: the least key is the next
    # transmitter, and at a tie the lower station, so stations that share an
    # event come off in draw order.
    sb = max(m + extra for _, m, extra in chains).bit_length()
    shift = sb + (n_w + n_l).bit_length()
    one, low, smask = 1 << shift, (1 << shift) - 1, (1 << sb) - 1
    keep, laa_low = ~smask, n_w << sb   # no stage; the first LAA station
    # Per network, indexed by stage j: the window and the mask-and-reject
    # bit mask (no modulo bias) of the stage a collision at j moves to (the
    # next one, or 0 after the last stay at the top window), and the key
    # increments (_incs) of its counters, led by the step that adds one
    # event and that stage. The top's entry leads to stage 0, so it holds
    # the stage-0 window. Every stage that advances steps by one + 1, so
    # those share the increments of the top window. A lone station, and an
    # undetected one as after a success, draws from the stage-0 window and
    # steps one event from its key without its stage: by the lone list,
    # which is also the top's entry when stage 0 is the top.
    tab_w, tab_l = [], []
    lone_w, lone_l = lones = [_incs(one, w0, one) for w0, _, _ in chains]
    for tab, lone, (w0, m, extra) in zip((tab_w, tab_l), lones, chains):
        top = m + extra
        advance = _incs(one + 1, 2 ** m * w0, one) if top else None
        for j in range(top + 1):
            after = 0 if j == top else j + 1
            width = 2 ** min(after, m) * w0
            mask = (1 << (width - 1).bit_length()) - 1
            tab.append((width, mask, advance if after else _incs(
                one - j, width, one) if j else lone))
    (width_w, mask_w, _), (width_l, mask_l, _) = tab_w[-1], tab_l[-1]
    # A network's lone station in a cross collision goes undetected (its
    # chain records a success) for certain at p_d = 0, never at 1, else when
    # its draw is >= ceil(p_d * 2**64): an int compares with a float exactly,
    # so it splits the draws as the float p_d * 2**64 does. Only a blind
    # network (p_d < 1) asks whether its station is lone.
    miss_w, miss_l = s.p_dw == 0.0, s.p_dl == 0.0
    coin_w, coin_l = (math.ceil(p * 2.0 ** 64) if 0.0 < p < 1.0 else 0
                      for p in (s.p_dw, s.p_dl))
    blind_w, blind_l = s.p_dw < 1.0, s.p_dl < 1.0
    # The loop reads packed draws (_pack): the coin at the k-th bound is
    # k << bits. Where mask and rank bits do not fit in 64, all stay raw.
    bits = max(mask for _, mask, _ in tab_w + tab_l).bit_length()
    bounds = sorted({coin_w, coin_l} - {0})
    if bits + len(bounds).bit_length() > 64:
        bits, bounds = 64, []
    coin_w, coin_l = (bounds.index(c) + 1 << bits if c in bounds else c
                      for c in (coin_w, coin_l))

    # ``key`` holds the next transmitter, out of the heap, so heap[0] is the
    # runner-up, for the lone and blind tests; one heappushpop reschedules
    # a key and hands back the least (the new key, heap untouched, while it
    # leads). One sentinel at the last edge keeps heap[0] defined.
    draws = _draws(seed, bits, bounds)
    heap = [edges[-1] << shift | low]
    for i in range(n_w + n_l):
        width, mask = (width_w, mask_w) if i < n_w else (width_l, mask_l)
        while (backoff := next(draws) & mask) >= width:
            pass
        heap.append(backoff << shift | i << sb)
    heapify(heap)
    key = heappop(heap)
    # Batch k ends before event edges[k], whose least key is end_key.
    next_end = iter(edges).__next__
    b_start, b_end = 0, next_end()
    end_key = b_end << shift
    batches = []
    # Counts of the open batch: successes, attempts in collision events and
    # undetected lone stations (every other attempt in a collision event is
    # a chain collision) per network, then collision events per kind
    n_sw = n_sl = att_w = att_l = und_w = und_l = n_cw = n_cl = n_cc = 0

    while True:
        if key >= end_key:      # end_key <= the sentinel until the end
            t = key >> shift
            while b_end <= t:   # close every batch that ends by this event
                batches.append((b_end - b_start, n_sw + att_w, n_sl + att_l,
                                att_w - und_w, att_l - und_l,
                                n_sw, n_sl, n_cw, n_cl, n_cc))
                n_sw = n_sl = att_w = att_l = und_w = und_l = 0
                n_cw = n_cl = n_cc = 0
                try:
                    b_start, b_end = b_end, next_end()
                except StopIteration:
                    return batches
            end_key = b_end << shift

        last = key | low        # the largest key that fires with this one
        if heap[0] > last:      # lone: no rival, no coin
            if key & low < laa_low:
                n_sw += 1
                while (backoff := next(draws) & mask_w) >= width_w:
                    pass
                key = heappushpop(heap, (key & keep) + lone_w[backoff])
            else:
                n_sl += 1
                while (backoff := next(draws) & mask_l) >= width_l:
                    pass
                key = heappushpop(heap, (key & keep) + lone_l[backoff])
            continue
        # A collision walks the held key: each transmitter's new key lies
        # past last, so the next key is the next station that fires with
        # it, in station order, Wi-Fi's keys all below split and LAA's from
        # it. A blind network's first transmitter is its only one, and so
        # may go undetected in what must be a cross collision, when the
        # runner-up key, heap[0], is not its network's.
        split = last ^ low | laa_low    # the least LAA key of the event
        if key < split:
            if blind_w and heap[0] >= split and (
                    miss_w or coin_w and next(draws) >= coin_w):
                und_w += 1
                while (backoff := next(draws) & mask_w) >= width_w:
                    pass
                key = heappushpop(heap, (key & keep) + lone_w[backoff])
                att_w += 1
            while key < split:
                width, mask, incs = tab_w[key & smask]
                while (backoff := next(draws) & mask) >= width:
                    pass
                key = heappushpop(heap, key + incs[backoff])
                att_w += 1
            if key > last:
                n_cw += 1
                continue
            n_cc += 1
        else:                   # with no Wi-Fi, LAA has two or more
            n_cl += 1
        if blind_l and heap[0] > last and (
                miss_l or coin_l and next(draws) >= coin_l):
            und_l += 1
            while (backoff := next(draws) & mask_l) >= width_l:
                pass
            key = heappushpop(heap, (key & keep) + lone_l[backoff])
            att_l += 1
        while key <= last:
            width, mask, incs = tab_l[key & smask]
            while (backoff := next(draws) & mask) >= width:
                pass
            key = heappushpop(heap, key + incs[backoff])
            att_l += 1


def _exact_dot(weights):
    """The function of counts that returns ``sum(count * weight)`` over
    ``weights`` summed exactly and rounded once, inf beyond the float range.

    A finite float is an integer over a power of two, so over the largest
    such denominator every weight is an integer: the sum is an integer
    quotient, which int division rounds correctly.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    den = max(q for _, q in ratios)
    nums = [p * (den // q) for p, q in ratios]

    def dot(counts) -> float:
        try:
            return sum(map(mul, counts, nums)) / den
        except OverflowError:   # the exact sum lies beyond the largest float
            return math.inf
    return dot


def _report(s, batches) -> SimReport:
    """Measure the counted batches: each holds its event count, attempts and
    chain collisions per network, then its busy events per class."""
    n_w, n_l = s.n_wifi, s.n_laa
    durations = event_durations(s)
    bit_w, bit_l = payload_bits(s)
    time_of = _exact_dot(durations)
    b_events, b_att_w, b_att_l, b_col_w, b_col_l, *busy = zip(*batches)
    # per batch, events per EVENT_CLASSES class: idle is what is not busy
    b_counts = [(n - sum(b), *b) for n, *b in zip(b_events, *busy)]
    b_time = [time_of(c) for c in b_counts]
    counts = dict(zip(EVENT_CLASSES, map(sum, zip(*b_counts))))
    total_time = time_of(counts.values())
    events = sum(b_events)
    att_w, att_l = sum(b_att_w), sum(b_att_l)
    col_w, col_l = sum(b_col_w), sum(b_col_l)
    b_bits_w = [n * bit_w for n in busy[0]]
    b_bits_l = [n * bit_l for n in busy[1]]

    def per_batch(num, den, scale=1.0):
        return [n / (d * scale) if d else 0.0 for n, d in zip(num, den)]

    # a network with no stations attempts nothing: its tau row is all 0.0
    batch_metrics = {
        "tput_wifi_mbps": per_batch(b_bits_w, b_time),
        "tput_laa_mbps": per_batch(b_bits_l, b_time),
        "tau_w": per_batch(b_att_w, b_events, n_w or 1),
        "tau_l": per_batch(b_att_l, b_events, n_l or 1),
        "p_w": per_batch(b_col_w, b_att_w),
        "p_l": per_batch(b_col_l, b_att_l),
    }
    # an overflowing spread is reported as a non-finite value below, not
    # as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        spread = (np.std(list(batch_metrics.values()), axis=1, ddof=1)
                  / math.sqrt(len(batches)) if len(batches) > 1 else [0.0] * 6)
    stderr = dict(zip(batch_metrics, map(float, spread)))

    _, n_sw, n_sl, n_cw, n_cl, n_cc = counts.values()
    report = _build_report(
        SimReport, s, ((n_sw + n_cw + n_cc) / events,
                       n_sw / (n_sw + n_cw) if n_sw + n_cw else 0.0,
                       (n_sl + n_cl + n_cc) / events,
                       n_sl / (n_sl + n_cl) if n_sl + n_cl else 0.0),
        durations, (n_sw * bit_w, n_sl * bit_l), total_time, events,
        tau_w=att_w / (n_w * events) if n_w else 0.0,
        tau_l=att_l / (n_l * events) if n_l else 0.0,
        p_w=col_w / att_w if att_w else 0.0,
        p_l=col_l / att_l if att_l else 0.0,
        event_counts=counts,
        stderr=stderr)
    for name, value in chain(vars(report).items(), (
            (f"stderr_{key}", err) for key, err in stderr.items())):
        if isinstance(value, float) and not math.isfinite(value):
            raise OverflowError(f"simulated {name} is {value}: a time, rate "
                                "or size is out of floating-point range")
    return report


def _replay(s: Scenario, horizon: int, seed: int):
    """Yield the run event by event from a plain loop that scans every
    station's counter: the class, each station's stage and counter as the
    event begins, and whether each network's transmitters collided in their
    chains, a (Wi-Fi, LAA) pair. Windows from ``Scenario.chains()`` and the
    float coin ``p * 2.0 ** 64`` keep it apart from ``simulate``'s tables."""
    draw = _draws(seed).__next__
    (chain_w, chain_l), n_w = s.chains(), s.n_wifi
    chains = [chain_w] * n_w + [chain_l] * s.n_laa

    def counter(i, j):
        w0, m, _ = chains[i]
        width = w0 * 2 ** min(j, m)
        mask = 2 ** (width - 1).bit_length() - 1
        while (backoff := draw() & mask) >= width:
            pass
        return backoff

    def undetected(p):
        if p in (0.0, 1.0):     # certain: no coin
            return p == 0.0
        return draw() >= p * 2.0 ** 64     # an int compares exactly

    stage = [0] * len(chains)
    count = [counter(i, 0) for i in range(len(chains))]
    for _ in range(horizon):
        if 0 not in count:      # idle: every counter steps down one slot
            yield "idle", stage, count, (False, False)
            count = [c - 1 for c in count]
            continue
        tx = [i for i, c in enumerate(count) if c == 0]
        cut = bisect_left(tx, n_w)      # Wi-Fi's stations come first
        groups = tx[:cut], tx[cut:]
        if len(tx) == 1:
            cls = ("wifi-success", "laa-success")[tx[0] >= n_w]
        else:
            cls = ("cross-collision" if all(groups) else "wifi-collision"
                   if groups[0] else "laa-collision")
        begun = stage, count    # yielded lists are rebound, never changed
        stage, count = stage[:], [c - 1 for c in count]
        collided = []
        for net, group in enumerate(groups):
            # a lone transmitter succeeds; a network's one transmitter in a
            # cross collision succeeds in its chain when it goes undetected
            hit = len(tx) > 1 and bool(group) and not (
                len(group) == 1 and undetected((s.p_dw, s.p_dl)[net]))
            for i in group:
                _, m, extra = chains[i]
                stage[i] = stage[i] + 1 if hit and stage[i] < m + extra else 0
                count[i] = counter(i, stage[i])
            collided.append(hit)
        yield cls, *begun, tuple(collided)


def write_trace(out, cfg: SimConfig) -> None:
    """Write the per-event CSV dump of ``cfg``'s run, from ``_replay``, to
    the open text file ``out``: index, class, duration, then each station's
    stage and counter as the event begins."""
    s = cfg.scenario
    # formatted once; a float's str is what csv would write
    duration = dict(zip(EVENT_CLASSES, map(str, event_durations(s))))
    header = ["event_index", "event_class", "duration_us", *(
        f"{net}{i}_{col}" for net, n in (("w", s.n_wifi), ("l", s.n_laa))
        for i in range(n) for col in ("stage", "counter"))]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    row = [None] * len(header)
    for k, (cls, stage, count, _) in enumerate(
            _replay(s, cfg.horizon_events, cfg.seed)):
        row[:3] = k, cls, duration[cls]
        row[3::2], row[4::2] = stage, count
        writer.writerow(row)
