"""A fixed pure-Python computation that gauges how fast the machine runs Python at the moment.

The shared host this benchmark was written on switches between a fast and
a slow state for minutes to hours, and within the slow state the speed
flips every second or two.  CPU time moves with wall time when it does:
the processor itself gets slower, so neither clock alone holds still.
`run.py` therefore times this computation between ops, with the same clock
as the ops, and reports `hrlq`'s times scaled to a machine on which it
takes `REF_MS`.  The computation is the benchmark's own and never calls
`hrlq`, so no change to the program can move it.  It is the same kind of
work `hrlq` does (resident-proposing deferred acceptance over dicts, lists
and small tuples, with allocation on every pass), so the slow state slows
both nearly alike: this by about 2.3 times, `hrlq`'s ops by 2.0-2.2.
"""

from __future__ import annotations

import random
import time

REF_MS = 10.0  # the scale: reported times are ms on a machine where `reference_work` takes this

_N_RES, _N_HOSP, _DEGREE, _PASSES = 240, 24, 6, 15


def _market(seed: int = 2110):
    rng = random.Random(seed)
    hospitals = [f"h{j}" for j in range(_N_HOSP)]
    prefs = {f"r{i}": rng.sample(hospitals, _DEGREE) for i in range(_N_RES)}
    applicants: dict[str, list[str]] = {h: [] for h in hospitals}
    for r, ps in prefs.items():
        for h in ps:
            applicants[h].append(r)
    ranking = {h: rng.sample(rs, len(rs)) for h, rs in applicants.items()}
    capacity = {h: 1 + j % 9 for j, h in enumerate(hospitals)}
    return prefs, ranking, capacity


_PREFS, _RANKING, _CAPACITY = _market()


def _deferred_acceptance(prefs, ranking, capacity) -> dict[str, str]:
    rank = {h: {r: k for k, r in enumerate(rs)} for h, rs in ranking.items()}
    nxt = dict.fromkeys(prefs, 0)
    held: dict[str, list[tuple[int, str]]] = {h: [] for h in ranking}
    free = list(prefs)
    while free:
        r = free.pop()
        if nxt[r] == len(prefs[r]):
            continue
        h = prefs[r][nxt[r]]
        nxt[r] += 1
        held[h].append((rank[h][r], r))
        if len(held[h]) > capacity[h]:
            held[h].sort()
            free.append(held[h].pop()[1])
    return {r: h for h, pairs in held.items() for _, r in pairs}


def reference_work() -> int:
    """The fixed computation; returns the number of residents placed (the same on every call)."""
    placed = 0
    for _ in range(_PASSES):
        placed += len(_deferred_acceptance(_PREFS, _RANKING, _CAPACITY))
    return placed


def reference_ms() -> float:
    """CPU time of one `reference_work()` call, in ms."""
    t0 = time.process_time()
    reference_work()
    return (time.process_time() - t0) * 1e3
