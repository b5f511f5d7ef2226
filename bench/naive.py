"""The benchmark's own exhaustive oracle, written from the definitions.

It shares no code with `hrlq.algorithms`: the enumeration prunes only by
counting (a hospital's unmet lower quota must not exceed the residents still
to come that accept it), and envy is recounted pair by pair against every
occupant.  It reads an instance only through its public fields, so it checks
the solvers rather than repeating them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Optima:
    min_ep: int
    min_er: int
    feasible: int  # number of feasible matchings


def acceptable(instance, assignment: dict) -> bool:
    """Every pair names a resident and a hospital that list each other."""
    return all(
        h in instance.resident_prefs.get(r, ()) and r in instance.hospital_prefs.get(h, ())
        for r, h in assignment.items()
    )


def quota_ok(instance, assignment: dict) -> bool:
    """Every pair is acceptable and every hospital's occupancy lies in its quota interval."""
    if not acceptable(instance, assignment):
        return False
    counts = {h: 0 for h in instance.hospitals}
    for h in assignment.values():
        counts[h] += 1
    return all(low <= counts[h] <= up for h, (low, up) in instance.quotas.items())


def envy(instance, assignment: dict) -> tuple[int, int]:
    """(envy pairs, envy residents) of a matching, straight from the definition.

    (r, h) is an envy pair when r prefers h to its own hospital (any
    acceptable h beats being unmatched) and h holds some resident it likes
    less than r.
    """
    occupants: dict[str, list[str]] = {}
    for r, h in assignment.items():
        occupants.setdefault(h, []).append(r)
    pairs = 0
    residents = 0
    for r in instance.residents:
        prefs = instance.resident_prefs[r]
        own = assignment.get(r)
        better = prefs[: prefs.index(own)] if own is not None else prefs
        envious = False
        for h in better:
            hp = instance.hospital_prefs[h]
            if any(hp.index(r) < hp.index(o) for o in occupants.get(h, ())):
                pairs += 1
                envious = True
        residents += envious
    return pairs, residents


def blocking(instance, assignment: dict) -> int:
    """Blocking pairs under the upper quotas alone (lower quotas ignored).

    (r, h) blocks when r prefers h to its own hospital and h either has a
    free seat or holds some resident it likes less than r.
    """
    occupants: dict[str, list[str]] = {}
    for r, h in assignment.items():
        occupants.setdefault(h, []).append(r)
    pairs = 0
    for r in instance.residents:
        prefs = instance.resident_prefs[r]
        own = assignment.get(r)
        for h in prefs[: prefs.index(own)] if own is not None else prefs:
            held = occupants.get(h, ())
            hp = instance.hospital_prefs[h]
            if len(held) < instance.quotas[h][1] or any(hp.index(r) < hp.index(o) for o in held):
                pairs += 1
    return pairs


def feasible_matchings(instance):
    """Yield every feasible matching once, as a resident -> hospital dict.

    The dict is reused between yields; copy it to keep it.
    """
    residents = list(instance.residents)
    hospitals = list(instance.hospitals)
    n = len(residents)
    low = {h: instance.quotas[h][0] for h in hospitals}
    up = {h: instance.quotas[h][1] for h in hospitals}
    # still_accepting[i][h]: residents at index >= i that list h.
    still_accepting = [dict.fromkeys(hospitals, 0) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        still_accepting[i].update(still_accepting[i + 1])
        for h in instance.resident_prefs[residents[i]]:
            still_accepting[i][h] += 1
    occ = dict.fromkeys(hospitals, 0)
    assignment: dict[str, str] = {}

    def hopeless(i: int) -> bool:
        short = 0
        for h in hospitals:
            need = low[h] - occ[h]
            if need > 0:
                if need > still_accepting[i][h]:
                    return True
                short += need
        return short > n - i

    def visit(i: int):
        if hopeless(i):
            return
        if i == n:
            yield assignment
            return
        r = residents[i]
        for h in instance.resident_prefs[r]:
            if occ[h] < up[h]:
                occ[h] += 1
                assignment[r] = h
                yield from visit(i + 1)
                del assignment[r]
                occ[h] -= 1
        yield from visit(i + 1)

    return visit(0)


def count_feasible(instance, cap: int) -> int:
    """The number of feasible matchings, or cap + 1 if there are more than cap."""
    return sum(1 for _ in itertools.islice(feasible_matchings(instance), cap + 1))


def optima(instance) -> Optima:
    """Minimum envy pairs, minimum envy residents and the number of feasible matchings.

    An instance without a feasible matching reports feasible == 0 and
    optima of -1.
    """
    best_ep = best_er = -1
    count = 0
    for assignment in feasible_matchings(instance):
        ep, er = envy(instance, assignment)
        best_ep = ep if count == 0 else min(best_ep, ep)
        best_er = er if count == 0 else min(best_er, er)
        count += 1
    return Optima(best_ep, best_er, count)
