"""Instance model and envy/feasibility predicates.

An instance pairs a bipartite acceptability graph (residents on one side,
hospitals on the other, both with strict preference lists) with a quota
interval [lower, upper] per hospital.  A matching is feasible when every
hospital's occupancy lies inside its interval.  Everything in this module is
a pure function of immutable inputs; identical calls return identical,
identically ordered results.
"""

from __future__ import annotations

from collections import Counter
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

    # Derived tables (set in __post_init__, excluded from eq/repr), built in
    # the pass that validates: the index maps and each hospital's position
    # table are the validator's lookup tables, reused to compile.
    #   resident_index, hospital_index  name -> dense index
    #   edges  all acceptable pairs sorted by (resident index, hospital index)
    # and, by dense index, the four compiled tables the solvers and predicates read:
    #   _options[r]  (h, r's rank in h's list) for each h on r's list, in r's
    #                order, then (-1, -1), which stands for staying unmatched;
    #                inside the solvers a pair is r and its position k here
    #   _acc_h[h]  h's preference list; _low, _up  quota vectors

    def __post_init__(self) -> None:
        residents, hospitals = tuple(self.residents), tuple(self.hospitals)
        # Dense indices in declaration order; a repeated name keeps its first.
        ridx = {r: i for i, r in enumerate(dict.fromkeys(residents))}
        hidx = {h: j for j, h in enumerate(dict.fromkeys(hospitals))}
        rprefs = {r: tuple(self.resident_prefs.get(r, ())) for r in ridx}
        hprefs = {h: tuple(self.hospital_prefs.get(h, ())) for h in hidx}
        quotas = {h: _quota(self.quotas.get(h)) for h in hidx}

        # A name is one token of the .hrlq grammar: split at whitespace, cut at ':' and '#'.
        out = [
            f"malformed name {name!r}: empty, or contains whitespace, ':' or '#'"
            for name in residents + hospitals
            if not (isinstance(name, str) and name.split() == [name]
                    and ":" not in name and "#" not in name)
        ]
        out += [f"duplicate resident name {r}" for r in _repeats(residents)]
        out += [f"duplicate hospital name {h}" for h in _repeats(hospitals)]
        out += [f"name {name} used for both a resident and a hospital"
                for name in sorted(ridx.keys() & hidx.keys())]
        out += [f"preference list for unknown resident {r}"
                for r in self.resident_prefs if r not in ridx]
        out += [f"preference list for unknown hospital {h}"
                for h in self.hospital_prefs if h not in hidx]
        out += [f"quota for unknown hospital {h}" for h in self.quotas if h not in hidx]
        for h, q in quotas.items():
            if q is None:
                out.append(f"missing or malformed quota for {h}")
                continue
            low, up = q
            if low < 0:
                out.append(f"negative lower quota at {h}")
            if low > up:
                out.append(f"quota inversion at {h}: lower {low} exceeds upper {up}")

        # A hospital's position table is its rank table; a resident's lives
        # until the one-sided checks are done.
        position = [_positions(p, hidx, "hospital", r, out) for r, p in rprefs.items()]
        rank_h = [_positions(p, ridx, "resident", h, out) for h, p in hprefs.items()]
        out += [
            f"one-sided acceptability ({r},{h}): {r} lists {h} but {h} does not list {r}"
            for r, listed in zip(rprefs, position) for h in listed
            if h in hidx and r not in rank_h[hidx[h]]
        ]
        out += [
            f"one-sided acceptability ({r},{h}): {h} lists {r} but {r} does not list {h}"
            for h, listed in zip(hprefs, rank_h) for r in listed
            if r in ridx and h not in position[ridx[r]]
        ]
        if out:  # a name declared or listed twice repeats messages; each goes once
            raise InvalidInstanceError(dict.fromkeys(out))
        del position

        options = tuple(
            tuple([(j, rank_h[j][r]) for j in map(hidx.__getitem__, p)] + [(-1, -1)])
            for r, p in rprefs.items()
        )
        acc_h = tuple(tuple(map(ridx.__getitem__, p)) for p in hprefs.values())
        object.__setattr__(self, "residents", residents)
        object.__setattr__(self, "hospitals", hospitals)
        object.__setattr__(self, "resident_prefs", rprefs)
        object.__setattr__(self, "hospital_prefs", hprefs)
        object.__setattr__(self, "quotas", quotas)
        object.__setattr__(self, "resident_index", ridx)
        object.__setattr__(self, "hospital_index", hidx)
        object.__setattr__(self, "edges", tuple(
            (r, h) for r, p in rprefs.items() for h in sorted(p, key=hidx.__getitem__)
        ))
        object.__setattr__(self, "_options", options)
        object.__setattr__(self, "_acc_h", acc_h)
        object.__setattr__(self, "_low", tuple(low for low, _ in quotas.values()))
        object.__setattr__(self, "_up", tuple(up for _, up in quotas.values()))


def _repeats(names: tuple) -> list:
    """Each name in `names` that equals an earlier one, in order."""
    seen: set = set()
    return [name for name in names if name in seen or seen.add(name)]  # add() gives None


def _positions(listed: tuple, known: dict, kind: str, owner: str, out: list[str]) -> dict:
    """`owner`'s list as a name -> position table; its repeats and unknown names go to `out`."""
    table = {name: k for k, name in enumerate(listed)}
    if len(table) < len(listed) or not table.keys() <= known.keys():
        seen: set = set()
        for name in listed:
            if name in seen:
                out.append(f"duplicate {kind} {name} in preference list of {owner}")
            elif name not in known:
                out.append(f"unknown {kind} {name} in preference list of {owner}")
            seen.add(name)
    return table


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
    """Build a canonical Instance from a loose description: any iterables of names.

    `Instance` itself turns the names and each declared vertex's list into
    tuples.  Raises InvalidInstanceError carrying the complete violation list,
    each violation once, when the description is inconsistent; each violation
    names the offending vertex or pair.
    """
    return Instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


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
    never = len(instance.edges) + 1  # above any count
    _envy_scan(options, choice, cut, never, never, found)
    return sorted(found)


def _named(instance: Instance, pairs: list[tuple[int, int]]) -> tuple[Pair, ...]:
    residents, hospitals = instance.residents, instance.hospitals
    return tuple((residents[r], hospitals[h]) for r, h in pairs)


def is_feasible(instance: Instance, matching: Matching) -> bool:
    """True iff every hospital's occupancy lies in its quota interval."""
    counts = Counter(matching.assignment.values())
    for h, (low, up) in instance.quotas.items():
        if not low <= counts[h] <= up:
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
    counts = Counter(matching.assignment.values())
    deficient = tuple(h for h in instance.hospitals if counts[h] < instance.quotas[h][0])
    over = tuple(h for h in instance.hospitals if counts[h] > instance.quotas[h][1])
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
    Instance.  No solver calls it: `min_ep_exact` bans each guess's list
    positions in deferred acceptance.  Tests and benchmark probes use it as
    the reference that shortcut is checked against.
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
