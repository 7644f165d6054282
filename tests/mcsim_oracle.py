"""Test oracle: the simulator's protocol as a plain per-event loop.

Keeps every station's backoff counter in a list and scans the list at every
channel event, drawing from the simulator's own stream in the documented
order: initial counters Wi-Fi then LAA; per event the Wi-Fi transmitters by
index, then the LAA ones, each drawing its detection coin (when one is
needed) and then its mask-and-reject counter. Deliberately independent of
the event-driven heap loop in ``laacoex.mcsim.simulate``, whose counts it
checks event for event.
"""
from __future__ import annotations

from laacoex.mcsim import EVENT_CLASSES, _draws


def reference_counts(s, horizon: int, seed: int, warmup: int):
    """Counts over events ``warmup`` to ``horizon - 1`` of scenario ``s``:
    events per EVENT_CLASSES class, then attempts and chain collisions per
    network, each as a (Wi-Fi, LAA) pair."""
    draw = _draws(seed).__next__
    n_w = s.n_wifi
    chains = [s.chains()[0]] * n_w + [s.chains()[1]] * s.n_laa
    p_d = (s.p_dw, s.p_dl)

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
    events = dict.fromkeys(EVENT_CLASSES, 0)
    att, col = [0, 0], [0, 0]
    for k in range(horizon):
        tx = [i for i, c in enumerate(count) if c == 0]
        count = [c - 1 for c in count]
        groups = [i for i in tx if i < n_w], [i for i in tx if i >= n_w]
        if not tx:
            cls = "idle"
        elif len(tx) == 1:
            cls = ("wifi-success", "laa-success")[tx[0] >= n_w]
        else:
            cls = ("cross-collision" if all(groups) else "wifi-collision"
                   if groups[0] else "laa-collision")
        for net, group in enumerate(groups):
            # a lone transmitter succeeds; a network's one transmitter in a
            # cross collision succeeds in its chain when it goes undetected
            collided = len(tx) > 1 and not (len(group) == 1
                                            and undetected(p_d[net]))
            for i in group:
                _, m, extra = chains[i]
                if not collided:
                    stage[i] = 0
                else:
                    stage[i] = stage[i] + 1 if stage[i] < m + extra else 0
                count[i] = counter(i, stage[i])
            if k >= warmup:
                att[net] += len(group)
                col[net] += len(group) if collided else 0
        if k >= warmup:
            events[cls] += 1
    return events, att, col
