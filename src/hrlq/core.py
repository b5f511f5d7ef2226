"""Instance model and envy/feasibility predicates.

An instance pairs a bipartite acceptability graph (residents on one side,
hospitals on the other, both with strict preference lists) with a quota
interval [lower, upper] per hospital.  A matching is feasible when every
hospital's occupancy lies inside its interval.  Everything in this module is
a pure function of immutable inputs; identical calls return identical,
identically ordered results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

Pair = tuple[str, str]


class InvalidInstanceError(ValueError):
    """An instance description breaks a structural invariant.

    Carries the complete list of violations, not just the first one found.
    """

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("invalid instance: " + "; ".join(self.violations))


class InvalidMatchingError(ValueError):
    """A matching names unknown vertices, unacceptable pairs, or reuses a resident."""


def _quota(value) -> tuple[int, int] | None:
    """`value` as a (lower, upper) pair of plain ints, or None if it is not one."""
    try:
        low, up = value
    except (TypeError, ValueError):
        return None
    return (low, up) if type(low) is int and type(up) is int else None


# A name the .hrlq grammar reads back: one token holding neither ':' nor '#'.
_NAME_RE = re.compile(r"[^\s:#]+")


@dataclass(frozen=True)
class Instance:
    """A validated hospitals/residents instance with quota intervals.

    Residents and hospitals keep their stable string names; dense integer
    indices are assigned by declaration order and drive every deterministic
    ordering produced by this package.  Construction validates all
    invariants (quota sanity, strict duplicate-free lists, mutual
    acceptability) and raises :class:`InvalidInstanceError` listing every
    violation at once.
    """

    residents: tuple[str, ...]
    hospitals: tuple[str, ...]
    resident_prefs: Mapping[str, tuple[str, ...]]
    hospital_prefs: Mapping[str, tuple[str, ...]]
    quotas: Mapping[str, tuple[int, int]]

    # Derived tables (set in __post_init__, excluded from eq/repr):
    #   resident_index, hospital_index  name -> dense index
    #   edges  all acceptable pairs sorted by (resident index, hospital index)
    # and, by dense index, the only compiled form the solvers and predicates read:
    #   _options[r]  (h, r's rank in h's list) for each h on r's list, in r's
    #                order, then (-1, -1), which stands for staying unmatched
    #   _acc_h[h]  h's preference list; _low, _up  quota vectors
    #   _edges  `edges` as index pairs

    def __post_init__(self) -> None:
        object.__setattr__(self, "residents", tuple(self.residents))
        object.__setattr__(self, "hospitals", tuple(self.hospitals))
        listed = (tuple(self.resident_prefs), tuple(self.hospital_prefs))
        object.__setattr__(
            self,
            "resident_prefs",
            {r: tuple(self.resident_prefs.get(r, ())) for r in self.residents},
        )
        object.__setattr__(
            self,
            "hospital_prefs",
            {h: tuple(self.hospital_prefs.get(h, ())) for h in self.hospitals},
        )
        quotas = {h: _quota(self.quotas.get(h)) for h in self.hospitals}
        violations = self._violations(quotas, *listed)
        if violations:
            raise InvalidInstanceError(violations)
        object.__setattr__(self, "quotas", quotas)

        ridx = {r: i for i, r in enumerate(self.residents)}
        hidx = {h: j for j, h in enumerate(self.hospitals)}
        acc = tuple(tuple(map(hidx.__getitem__, p)) for p in self.resident_prefs.values())
        acc_h = tuple(tuple(map(ridx.__getitem__, p)) for p in self.hospital_prefs.values())
        rank_h = [{r: k for k, r in enumerate(p)} for p in acc_h]
        options = tuple(
            tuple([(h, rank_h[h][r]) for h in prefs] + [(-1, -1)]) for r, prefs in enumerate(acc)
        )
        edges = tuple((i, j) for i, prefs in enumerate(acc) for j in sorted(prefs))
        object.__setattr__(self, "resident_index", ridx)
        object.__setattr__(self, "hospital_index", hidx)
        object.__setattr__(
            self, "edges", tuple((self.residents[i], self.hospitals[j]) for i, j in edges)
        )
        object.__setattr__(self, "_options", options)
        object.__setattr__(self, "_acc_h", acc_h)
        object.__setattr__(self, "_low", tuple(quotas[h][0] for h in self.hospitals))
        object.__setattr__(self, "_up", tuple(quotas[h][1] for h in self.hospitals))
        object.__setattr__(self, "_edges", edges)

    def _violations(self, quotas: dict, listed_residents: tuple, listed_hospitals: tuple) -> list[str]:
        out: list[str] = []
        for name in self.residents + self.hospitals:
            if not (isinstance(name, str) and _NAME_RE.fullmatch(name)):
                out.append(f"malformed name {name!r}: empty, or contains whitespace, ':' or '#'")
        seen: set[str] = set()
        for r in self.residents:
            if r in seen:
                out.append(f"duplicate resident name {r}")
            seen.add(r)
        hseen: set[str] = set()
        for h in self.hospitals:
            if h in hseen:
                out.append(f"duplicate hospital name {h}")
            hseen.add(h)
        for name in sorted(seen & hseen):
            out.append(f"name {name} used for both a resident and a hospital")

        for r in listed_residents:
            if r not in seen:
                out.append(f"preference list for unknown resident {r}")
        for h in listed_hospitals:
            if h not in hseen:
                out.append(f"preference list for unknown hospital {h}")
        for h in self.quotas:
            if h not in hseen:
                out.append(f"quota for unknown hospital {h}")

        for h in self.hospitals:
            q = quotas.get(h)
            if q is None:
                out.append(f"missing or malformed quota for {h}")
            else:
                low, up = q
                if low < 0:
                    out.append(f"negative lower quota at {h}")
                if low > up:
                    out.append(f"quota inversion at {h}: lower {low} exceeds upper {up}")

        for r in self.residents:
            local: set[str] = set()
            for h in self.resident_prefs[r]:
                if h in local:
                    out.append(f"duplicate hospital {h} in preference list of {r}")
                local.add(h)
                if h not in hseen:
                    out.append(f"unknown hospital {h} in preference list of {r}")
        for h in self.hospitals:
            local = set()
            for r in self.hospital_prefs[h]:
                if r in local:
                    out.append(f"duplicate resident {r} in preference list of {h}")
                local.add(r)
                if r not in seen:
                    out.append(f"unknown resident {r} in preference list of {h}")

        hosp_accepts = {h: set(self.hospital_prefs[h]) for h in self.hospitals}
        res_accepts = {r: set(self.resident_prefs[r]) for r in self.residents}
        for r in self.residents:
            for h in self.resident_prefs[r]:
                if h in hosp_accepts and r not in hosp_accepts[h]:
                    out.append(
                        f"one-sided acceptability ({r},{h}): {r} lists {h} but {h} does not list {r}"
                    )
        for h in self.hospitals:
            for r in self.hospital_prefs[h]:
                if r in res_accepts and h not in res_accepts[r]:
                    out.append(
                        f"one-sided acceptability ({r},{h}): {h} lists {r} but {r} does not list {h}"
                    )
        return out


@dataclass(frozen=True)
class Matching:
    """A partial assignment of residents to hospitals.

    Built via :func:`make_matching` (or by the solvers), the assignment dict
    iterates in resident-index order, which keeps downstream output
    deterministic.
    """

    assignment: Mapping[str, str]

    def pairs(self) -> tuple[Pair, ...]:
        return tuple(self.assignment.items())

    def __len__(self) -> int:
        return len(self.assignment)


EMPTY_MATCHING = Matching({})


@dataclass(frozen=True)
class EnvyReport:
    """Envy, blocking, and feasibility verdicts for one (instance, matching) pair.

    `envy_residents` has set semantics but is stored sorted by resident index.
    Every envy-pair is also a blocking pair.
    """

    envy_pairs: tuple[Pair, ...]
    envy_residents: tuple[str, ...]
    blocking_pairs: tuple[Pair, ...]
    deficient_hospitals: tuple[str, ...]
    over_subscribed_hospitals: tuple[str, ...]
    feasible: bool


def validate_instance(
    residents: Iterable[str],
    hospitals: Iterable[str],
    resident_prefs: Mapping[str, Iterable[str]],
    hospital_prefs: Mapping[str, Iterable[str]],
    quotas: Mapping[str, tuple[int, int]],
) -> Instance:
    """Build a canonical Instance from a loose description.

    Raises InvalidInstanceError carrying the complete violation list when the
    description is inconsistent; each violation names the offending vertex or
    pair.
    """
    return Instance(
        tuple(residents),
        tuple(hospitals),
        {r: tuple(v) for r, v in resident_prefs.items()},
        {h: tuple(v) for h, v in hospital_prefs.items()},
        dict(quotas),
    )


def make_matching(instance: Instance, pairs: Iterable[Pair]) -> Matching:
    """Build a Matching from (resident, hospital) pairs, validated against the instance."""
    errors: list[str] = []
    assignment: dict[str, str] = {}
    for r, h in pairs:
        if r not in instance.resident_index:
            errors.append(f"unknown resident {r}")
            continue
        if h not in instance.hospital_index:
            errors.append(f"unknown hospital {h}")
            continue
        if h not in instance.resident_prefs[r]:
            errors.append(f"unacceptable pair ({r},{h})")
            continue
        if r in assignment:
            errors.append(f"resident {r} assigned more than once")
            continue
        assignment[r] = h
    if errors:
        raise InvalidMatchingError("; ".join(errors))
    ordered = dict(sorted(assignment.items(), key=lambda kv: instance.resident_index[kv[0]]))
    return Matching(ordered)


def _occupancy_counts(matching: Matching) -> dict[str, int]:
    counts: dict[str, int] = {}
    for h in matching.assignment.values():
        counts[h] = counts.get(h, 0) + 1
    return counts


def _choice(instance: Instance, matching: Matching) -> list[int]:
    """The matching as a hospital index per resident index, -1 for unmatched."""
    ridx, hidx = instance.resident_index, instance.hospital_index
    choice = [-1] * len(instance.residents)
    for r, h in matching.assignment.items():
        choice[ridx[r]] = hidx[h]
    return choice


def _envy_scan(
    options: tuple,
    choice: list[int],
    cut: list[int],
    stop_pairs: int,
    stop_residents: int,
    found: list[tuple[int, int]] | None = None,
) -> tuple[int, int]:
    """The numbers of envy pairs and of envious residents, given each hospital's cut.

    The one loop that finds envy: `_envy` and the brute oracles' leaf
    score both run it.  `options` is `Instance._options`; cut[h] is
    the rank, in h's list, of h's worst occupant (-1 when h is empty), and
    (r, h) is an envy pair when h comes before r's own hospital on r's
    list (the (-1, -1) entry ends an unmatched resident's list) and r's
    rank at h is below cut[h].  Residents are scanned by index, each one's
    list in preference order, and every pair found is appended to `found`
    when it is given.  The scan stops once both counts have reached their
    stop values, since neither can fall; so both counts are exact whenever
    either ends below its stop value.
    """
    pairs = residents = 0
    last = -1
    for r, own in enumerate(choice):
        for h, rank in options[r]:
            if h == own:
                break
            if rank < cut[h]:
                if found is not None:
                    found.append((r, h))
                pairs += 1
                if r != last:
                    residents += 1
                    last = r
                if pairs >= stop_pairs and residents >= stop_residents:
                    return pairs, residents
    return pairs, residents


def _envy(instance: Instance, choice: list[int], wasteful: bool = False) -> list[tuple[int, int]]:
    """Envy pairs (blocking pairs with `wasteful`) as (resident, hospital) index pairs, in index order.

    The one place envy is defined: every predicate and report reads it
    through this function, and the brute oracles run the same scan,
    `_envy_scan`, with the cut their search keeps along its path.  (r, h)
    is an envy pair when r prefers h to its own hospital (any acceptable h
    beats being unmatched) and h holds a resident it ranks below r.  The
    cut, each hospital's worst occupant rank, is derived from the choice
    vector here.  With `wasteful`, pairs whose hospital has a free seat
    under its upper quota count too, which gives the classical blocking
    pairs.
    """
    options, acc_h = instance._options, instance._acc_h
    cut = [-1] * len(acc_h)  # h takes r exactly when r's rank at h is below cut[h]
    for r, h in enumerate(choice):
        if h >= 0:
            for j, rank in options[r]:
                if j == h:
                    if rank > cut[h]:
                        cut[h] = rank
                    break
    if wasteful:
        seats = list(instance._up)
        for h in choice:
            if h >= 0:
                seats[h] -= 1
        cut = [len(listed) if free > 0 else c for listed, free, c in zip(acc_h, seats, cut)]
    found: list[tuple[int, int]] = []
    never = len(instance._edges) + 1  # above any count
    _envy_scan(options, choice, cut, never, never, found)
    return sorted(found)


def _named(instance: Instance, pairs: list[tuple[int, int]]) -> tuple[Pair, ...]:
    residents, hospitals = instance.residents, instance.hospitals
    return tuple((residents[r], hospitals[h]) for r, h in pairs)


def is_feasible(instance: Instance, matching: Matching) -> bool:
    """True iff every hospital's occupancy lies in its quota interval."""
    counts = _occupancy_counts(matching)
    for h, (low, up) in instance.quotas.items():
        if not low <= counts.get(h, 0) <= up:
            return False
    return True


def envy_pairs(instance: Instance, matching: Matching) -> tuple[Pair, ...]:
    """All pairs (r, h) where r prefers h to its assignment and h holds someone it likes less.

    Unmatched residents prefer every acceptable hospital to staying
    unmatched.  Output is sorted by (resident index, hospital index).
    """
    return _named(instance, _envy(instance, _choice(instance, matching)))


def envy_residents(instance: Instance, matching: Matching) -> tuple[str, ...]:
    """Residents involved in at least one envy-pair, sorted by index (set semantics)."""
    return tuple(dict.fromkeys(r for r, _ in envy_pairs(instance, matching)))


def blocking_pairs(instance: Instance, matching: Matching) -> tuple[Pair, ...]:
    """Classical blocking pairs: envy-pairs plus wasteful pairs at under-subscribed hospitals."""
    return _named(instance, _envy(instance, _choice(instance, matching), wasteful=True))


def is_envy_free(instance: Instance, matching: Matching) -> bool:
    return not envy_pairs(instance, matching)


def analyze(instance: Instance, matching: Matching) -> EnvyReport:
    """Full envy/blocking/feasibility report for a matching."""
    counts = _occupancy_counts(matching)
    deficient = tuple(h for h in instance.hospitals if counts.get(h, 0) < instance.quotas[h][0])
    over = tuple(h for h in instance.hospitals if counts.get(h, 0) > instance.quotas[h][1])
    choice = _choice(instance, matching)
    eps = _named(instance, _envy(instance, choice))
    return EnvyReport(
        envy_pairs=eps,
        envy_residents=tuple(dict.fromkeys(r for r, _ in eps)),
        blocking_pairs=_named(instance, _envy(instance, choice, wasteful=True)),
        deficient_hospitals=deficient,
        over_subscribed_hospitals=over,
        feasible=not deficient and not over,
    )


def without_edges(instance: Instance, pairs: Iterable[Pair]) -> Instance:
    """A copy of the instance with the given acceptable pairs deleted.

    Each pair is removed from both preference lists; the relative order of
    the remaining entries is preserved.  This is the paper's trimmed
    instance G - E' for a guess E', built literally as a new validated
    Instance.  No solver calls it: `min_ep_exact` hands each guess to
    deferred acceptance as dropped pairs.  Tests and benchmark probes use
    it as the reference that shortcut is checked against.
    """
    drop = {tuple(p) for p in pairs}
    unknown = drop - set(instance.edges)
    if unknown:
        names = ", ".join(f"({r},{h})" for r, h in sorted(unknown))
        raise ValueError(f"cannot delete pairs outside the instance: {names}")
    return Instance(
        instance.residents,
        instance.hospitals,
        {r: tuple(h for h in prefs if (r, h) not in drop)
         for r, prefs in instance.resident_prefs.items()},
        {h: tuple(r for r in prefs if (r, h) not in drop)
         for h, prefs in instance.hospital_prefs.items()},
        dict(instance.quotas),
    )
