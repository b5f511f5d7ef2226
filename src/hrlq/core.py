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
from collections.abc import Iterable, Mapping

Pair = tuple[str, str]


class InvalidInstanceError(ValueError):
    """An instance description breaks a structural invariant.

    Carries the complete list of violations, not just the first one found.
    """

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("invalid instance: " + "; ".join(self.violations))


class InvalidMatchingError(ValueError):
    """A matching names unknown vertices or unacceptable pairs, reuses a resident, or is not a mapping."""


def _quota(value) -> tuple[int, int] | None:
    """`value` as a (lower, upper) pair of plain ints, or None if it is not one."""
    try:
        low, up = value
    except (TypeError, ValueError):
        return None
    return (low, up) if type(low) is int and type(up) is int else None


def _plain_int(value: int, what: str, error: type[Exception]) -> int:
    """`value` if it is a plain int; anything else, `bool` too, raises `error`, as in `_quota`."""
    if type(value) is not int:
        raise error(f"{what} must be an int, got {value!r}")
    return value


class _Record:
    """A frozen record: the fields named in `__match_args__`, set once by `__init__`.

    Each record writes its own `__init__`, which checks its arguments and
    stores the fields straight into `__dict__`.  Records of the same class
    are equal when their fields are; a record hashes the tuple of its fields,
    its repr is `Cls(field=value, ...)`, and any assignment or deletion
    raises AttributeError.  Pickle and copy restore `__dict__` directly.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Instance(_Record):
    """A validated hospitals/residents instance with quota intervals.

    Residents and hospitals keep their stable string names; dense integer
    indices are assigned by declaration order and drive every deterministic
    ordering produced by this package.  Construction validates all
    invariants (quota sanity, strict duplicate-free lists, mutual
    acceptability) and raises :class:`InvalidInstanceError` listing every
    violation at once.  Containers of the wrong kind (a `str`, or anything
    not iterable, where names belong; prefs or quotas that are not a
    mapping) and members of the wrong kind (a name that is not a `str`) are
    reported first, on their own, since nothing can be read from them.
    """

    __match_args__ = ("residents", "hospitals", "resident_prefs", "hospital_prefs", "quotas")
    residents: tuple[str, ...]
    hospitals: tuple[str, ...]
    resident_prefs: Mapping[str, tuple[str, ...]]
    hospital_prefs: Mapping[str, tuple[str, ...]]
    quotas: Mapping[str, tuple[int, int]]

    # Derived tables (set in __init__, left out of eq/repr), built in the
    # pass that validates: the index maps and each hospital's position
    # table are the validator's lookup tables, reused to compile.
    #   resident_index, hospital_index  name -> dense index
    #   edges  all acceptable pairs sorted by (resident index, hospital index)
    # and, by dense index, the four compiled tables the solvers and predicates read:
    #   _options[r]  (h, r's rank in h's list) for each h on r's list, in r's
    #                order, then (-1, -1), which stands for staying unmatched;
    #                inside the solvers a pair is r and its position k here
    #   _acc_h[h]  h's preference list; _low, _up  quota vectors

    def __init__(
        self,
        residents: Iterable[str],
        hospitals: Iterable[str],
        resident_prefs: Mapping[str, Iterable[str]],
        hospital_prefs: Mapping[str, Iterable[str]],
        quotas: Mapping[str, tuple[int, int]],
    ) -> None:
        # A container of the wrong kind is reported before anything is read from it.
        rnames, hnames = _members(residents), _members(hospitals)
        out = [v for what, given, read in (
            ("residents", residents, rnames), ("hospitals", hospitals, hnames)
        ) for v in _not_names(what, given, read)]
        out += [f"{what} must be a mapping, got {type(given).__name__}" for what, given in (
            ("resident_prefs", resident_prefs), ("hospital_prefs", hospital_prefs),
            ("quotas", quotas),
        ) if not isinstance(given, Mapping)]
        if out:
            raise InvalidInstanceError(out)
        # Dense indices in declaration order; a repeated name keeps its first.
        ridx = {r: i for i, r in enumerate(dict.fromkeys(rnames))}
        hidx = {h: j for j, h in enumerate(dict.fromkeys(hnames))}
        rprefs = {r: _members(resident_prefs.get(r, ())) for r in ridx}
        hprefs = {h: _members(hospital_prefs.get(h, ())) for h in hidx}
        out = [v for given, read in ((resident_prefs, rprefs), (hospital_prefs, hprefs))
               for owner, listed in read.items()
               for v in _not_names(f"preference list of {owner}", given.get(owner), listed)]
        if out:
            raise InvalidInstanceError(out)
        bounds = {h: _quota(quotas.get(h)) for h in hidx}

        # A name is one token of the .hrlq grammar: split at whitespace, cut at ':' and '#'.
        out = [
            f"malformed name {name!r}: empty, or contains whitespace, ':' or '#'"
            for name in rnames + hnames
            if not (name.split() == [name] and ":" not in name and "#" not in name)
        ]
        out += [f"duplicate resident name {r}" for r in _repeats(rnames)]
        out += [f"duplicate hospital name {h}" for h in _repeats(hnames)]
        out += [f"name {name} used for both a resident and a hospital"
                for name in sorted(ridx.keys() & hidx.keys())]
        out += [f"preference list for unknown resident {r}"
                for r in resident_prefs if r not in ridx]
        out += [f"preference list for unknown hospital {h}"
                for h in hospital_prefs if h not in hidx]
        out += [f"quota for unknown hospital {h}" for h in quotas if h not in hidx]
        for h, q in bounds.items():
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
        self.__dict__.update(
            residents=rnames,
            hospitals=hnames,
            resident_prefs=rprefs,
            hospital_prefs=hprefs,
            quotas=bounds,
            resident_index=ridx,
            hospital_index=hidx,
            edges=tuple((r, h) for r, p in rprefs.items() for h in sorted(p, key=hidx.__getitem__)),
            _options=options,
            _acc_h=tuple(tuple(map(ridx.__getitem__, p)) for p in hprefs.values()),
            _low=tuple(low for low, _ in bounds.values()),
            _up=tuple(up for _, up in bounds.values()),
        )


def _members(given) -> tuple | None:
    """`given`'s members as a tuple, or None when it is not a collection: a str, or not iterable.

    A str iterates over its characters, so a name given where a collection
    of names belongs would otherwise be read as one name per character.
    """
    if isinstance(given, str):
        return None
    try:
        return tuple(given)
    except TypeError:
        return None


def _not_names(what: str, given, read: tuple | None) -> list[str]:
    """The violations of `given`, named `what` and read as `read`, where `str` names belong."""
    if read is None:
        return [f"{what} must be a collection of names, got {type(given).__name__}"]
    return [f"{what} must hold only names, got {type(name).__name__} {name!r}"
            for name in read if not isinstance(name, str)]


def _pairs(given, error: type[ValueError]) -> list[tuple]:
    """`given`'s pairs, each a collection of two `str` as `_members` reads it, or else `error`."""
    members = _members(given)
    if members is None:
        raise error(f"pairs must be a collection, got {type(given).__name__}")
    out = []
    for pair in members:
        names = _members(pair)
        if names is None or len(names) != 2 or not all(isinstance(n, str) for n in names):
            raise error(f"pair must be two names, got {pair!r}")
        out.append(names)
    return out


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


class Matching(_Record):
    """A partial assignment of residents to hospitals.

    Built via :func:`make_matching` (or by the solvers), the assignment dict
    iterates in resident-index order, which keeps downstream output
    deterministic.  A Matching built directly is checked where it is read:
    `pairs()` refuses an assignment that is not a mapping, and every reader
    checks the pairs against its instance with `_choice`.  Its length and
    hash read `pairs()` too.
    """

    __match_args__ = ("assignment",)
    assignment: Mapping[str, str]

    def __init__(self, assignment: Mapping[str, str]) -> None:
        self.__dict__["assignment"] = assignment

    def pairs(self) -> tuple[Pair, ...]:
        if not isinstance(self.assignment, Mapping):
            raise InvalidMatchingError(
                f"assignment must be a mapping, got {type(self.assignment).__name__}")
        return tuple(self.assignment.items())

    def __len__(self) -> int:
        return len(self.pairs())

    def __hash__(self) -> int:
        # == compares the assignments as mappings, which ignores their order.
        return hash(frozenset(self.pairs()))


EMPTY_MATCHING = Matching({})


class EnvyReport(_Record):
    """Envy, blocking, and feasibility verdicts for one (instance, matching) pair.

    `envy_residents` has set semantics but is stored sorted by resident index.
    Every envy-pair is also a blocking pair.
    """

    __match_args__ = ("envy_pairs", "envy_residents", "blocking_pairs", "deficient_hospitals",
                      "over_subscribed_hospitals", "feasible")
    envy_pairs: tuple[Pair, ...]
    envy_residents: tuple[str, ...]
    blocking_pairs: tuple[Pair, ...]
    deficient_hospitals: tuple[str, ...]
    over_subscribed_hospitals: tuple[str, ...]
    feasible: bool

    def __init__(
        self,
        envy_pairs: tuple[Pair, ...],
        envy_residents: tuple[str, ...],
        blocking_pairs: tuple[Pair, ...],
        deficient_hospitals: tuple[str, ...],
        over_subscribed_hospitals: tuple[str, ...],
        feasible: bool,
    ) -> None:
        self.__dict__.update(
            envy_pairs=envy_pairs,
            envy_residents=envy_residents,
            blocking_pairs=blocking_pairs,
            deficient_hospitals=deficient_hospitals,
            over_subscribed_hospitals=over_subscribed_hospitals,
            feasible=feasible,
        )


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
    return _matching(instance, _choice(instance, _pairs(pairs, InvalidMatchingError)))


def _choice(instance: Instance, pairs: Iterable[Pair]) -> list[int]:
    """The pairs as a hospital index per resident index (-1 for unmatched), checked.

    The one check of a matching: `make_matching` runs it on the pairs it is
    given, and every reader of a `Matching`, which may be built directly, on
    its `pairs()`.  A pair is refused when it names a resident or hospital
    the instance lacks, when the instance does not accept it, or when its
    resident is already assigned; every refusal, in order, goes into one
    InvalidMatchingError.
    """
    ridx, hidx, prefs = instance.resident_index, instance.hospital_index, instance.resident_prefs
    choice = [-1] * len(ridx)
    errors: list[str] = []
    for r, h in pairs:
        if r not in ridx:
            errors.append(f"unknown resident {r}")
        elif not isinstance(h, str) or h not in hidx:
            errors.append(f"unknown hospital {h}")
        elif h not in prefs[r]:
            errors.append(f"unacceptable pair ({r},{h})")
        elif choice[ridx[r]] >= 0:
            errors.append(f"resident {r} assigned more than once")
        else:
            choice[ridx[r]] = hidx[h]
    if errors:
        raise InvalidMatchingError("; ".join(errors))
    return choice


def _matching(instance: Instance, choice: list[int]) -> Matching:
    """The Matching for a hospital index per resident index (-1 for unmatched).

    The one builder of a Matching: its assignment iterates in resident-index order.
    """
    residents, hospitals = instance.residents, instance.hospitals
    return Matching({residents[r]: hospitals[h] for r, h in enumerate(choice) if h >= 0})


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
    counts = Counter(_choice(instance, matching.pairs()))
    return all(low <= counts[j] <= up for j, (low, up) in enumerate(instance.quotas.values()))


def envy_pairs(instance: Instance, matching: Matching) -> tuple[Pair, ...]:
    """All pairs (r, h) where r prefers h to its assignment and h holds someone it likes less.

    Unmatched residents prefer every acceptable hospital to staying
    unmatched.  Output is sorted by (resident index, hospital index).
    """
    return _named(instance, _envy(instance, _choice(instance, matching.pairs())))


def envy_residents(instance: Instance, matching: Matching) -> tuple[str, ...]:
    """Residents involved in at least one envy-pair, sorted by index (set semantics)."""
    return tuple(dict.fromkeys(r for r, _ in envy_pairs(instance, matching)))


def blocking_pairs(instance: Instance, matching: Matching) -> tuple[Pair, ...]:
    """Classical blocking pairs: envy-pairs plus wasteful pairs at under-subscribed hospitals."""
    return _named(instance, _envy(instance, _choice(instance, matching.pairs()), wasteful=True))


def is_envy_free(instance: Instance, matching: Matching) -> bool:
    return not envy_pairs(instance, matching)


def analyze(instance: Instance, matching: Matching) -> EnvyReport:
    """Full envy/blocking/feasibility report for a matching."""
    choice = _choice(instance, matching.pairs())
    counts = Counter(choice)
    deficient = tuple(h for j, h in enumerate(instance.hospitals) if counts[j] < instance._low[j])
    over = tuple(h for j, h in enumerate(instance.hospitals) if counts[j] > instance._up[j])
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
    drop = set(_pairs(pairs, ValueError))
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
