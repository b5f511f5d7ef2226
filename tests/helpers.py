"""Shared fixtures: the two worked micro-instances, seeded random families, long
chains, a by-name rebuild of the compiled tables, a reference recount of envy
and blocking pairs, the oracles' picks and the search's leaf state, a
product-space enumeration of feasible matchings, a textbook deferred
acceptance, a full deferred-acceptance run, a check of resumed runs and a
paper-order Min-EP search."""

from __future__ import annotations

import itertools
import random

import hrlq


def instance_a() -> hrlq.Instance:
    """Two residents, two [1,1] hospitals; unique feasible matching has one envy-pair."""
    return hrlq.validate_instance(
        ["r1", "r2"],
        ["h1", "h2"],
        {"r1": ["h1", "h2"], "r2": ["h1"]},
        {"h1": ["r1", "r2"], "h2": ["r1"]},
        {"h1": (1, 1), "h2": (1, 1)},
    )


def instance_b() -> hrlq.Instance:
    """Envy-free feasible matching exists: r1 fills h2's lower quota."""
    return hrlq.validate_instance(
        ["r1", "r2"],
        ["h1", "h2"],
        {"r1": ["h1", "h2"], "r2": ["h2"]},
        {"h1": ["r1"], "h2": ["r1", "r2"]},
        {"h1": (0, 1), "h2": (1, 1)},
    )


def instance_c() -> hrlq.Instance:
    """One resident and a [0,1] hospital: the envy-free matching Yokoi's test finds is empty."""
    return hrlq.validate_instance(["r1"], ["h1"], {"r1": ["h1"]}, {"h1": ["r1"]}, {"h1": (0, 1)})


def random_instance(
    rng: random.Random,
    max_residents: int = 6,
    max_hospitals: int = 4,
    max_upper: int = 2,
    density: float = 0.75,
    tight: float = 0.6,
    min_residents: int = 2,
    min_hospitals: int = 1,
) -> hrlq.Instance:
    """Random instance biased toward binding lower quotas (tight fraction l == u)."""
    n_res = rng.randint(min_residents, max_residents)
    n_hosp = rng.randint(min_hospitals, max_hospitals)
    residents = [f"r{i}" for i in range(1, n_res + 1)]
    hospitals = [f"h{j}" for j in range(1, n_hosp + 1)]
    resident_prefs = {}
    accepted: dict[str, list[str]] = {h: [] for h in hospitals}
    for r in residents:
        acc = [h for h in hospitals if rng.random() < density]
        rng.shuffle(acc)
        resident_prefs[r] = tuple(acc)
        for h in acc:
            accepted[h].append(r)
    hospital_prefs = {}
    for h in hospitals:
        order = accepted[h][:]
        rng.shuffle(order)
        hospital_prefs[h] = tuple(order)
    quotas = {}
    for h in hospitals:
        up = rng.randint(1, max_upper)
        low = up if rng.random() < tight else rng.randint(0, up)
        quotas[h] = (low, up)
    return hrlq.validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


def random_feasible_instances(seed: int, count: int, **kwargs) -> list[hrlq.Instance]:
    rng = random.Random(seed)
    out: list[hrlq.Instance] = []
    while len(out) < count:
        inst = random_instance(rng, **kwargs)
        if hrlq.exists_feasible(inst):
            out.append(inst)
    return out


def random_tight_instance(rng: random.Random, **kwargs) -> hrlq.Instance:
    """A `random_instance` market made tight: each lower quota equals its upper
    quota, and together they add up to the number of residents.

    Each resident's slot goes to a random hospital, so some hospitals may get
    quota [0, 0].  Every feasible matching of such a market seats every
    resident at a hospital with a positive lower quota.
    """
    inst = random_instance(rng, **kwargs)
    slots = dict.fromkeys(inst.hospitals, 0)
    for _ in inst.residents:
        slots[rng.choice(inst.hospitals)] += 1
    return hrlq.validate_instance(inst.residents, inst.hospitals, inst.resident_prefs,
                                  inst.hospital_prefs, {h: (s, s) for h, s in slots.items()})


def tight_market(rng: random.Random, n_res: int, n_hosp: int) -> hrlq.Instance:
    """A tight market of `n_res` residents listing 2-4 of `n_hosp` hospitals each.

    Every quota is [s, s] with s >= 1, and the s add up to `n_res`.  The
    draws are those of the benchmark's tight random inputs, so
    `tight_market(random.Random(f"tight:{n}:{seed}"), n, m)` is its tight
    n×m market of that seed.
    """
    residents = [f"r{i}" for i in range(1, n_res + 1)]
    hospitals = [f"h{j}" for j in range(1, n_hosp + 1)]
    resident_prefs = {}
    accepted: dict[str, list[str]] = {h: [] for h in hospitals}
    for r in residents:
        resident_prefs[r] = rng.sample(hospitals, min(n_hosp, rng.randint(2, 4)))
        for h in resident_prefs[r]:
            accepted[h].append(r)
    hospital_prefs = {h: rng.sample(listed, len(listed)) for h, listed in accepted.items()}
    slots = dict.fromkeys(hospitals, 1)
    for _ in range(n_res - n_hosp):
        slots[rng.choice(hospitals)] += 1
    return hrlq.validate_instance(residents, hospitals, resident_prefs, hospital_prefs,
                                  {h: (s, s) for h, s in slots.items()})


def wide_list_instance(rng: random.Random) -> hrlq.Instance:
    """A random instance where h1 lists every one of 70-100 residents, all caps above 1.

    Ranks on h1's list reach 69 or more, so a bitmask of them spans more
    than 64 bits.  h1 is first on most residents' lists and its upper quota
    is drawn up to the number of residents, so it may hold residents ranked
    that low.  The other hospitals are on about 30% of the lists, each with a
    lower quota of 2-20, so deferred acceptance at the lower quotas may fail.
    """
    n_res, n_hosp = rng.randint(70, 100), rng.randint(3, 6)
    residents = [f"r{i}" for i in range(1, n_res + 1)]
    hospitals = [f"h{j}" for j in range(1, n_hosp + 1)]
    resident_prefs = {}
    for r in residents:
        others = [h for h in hospitals[1:] if rng.random() < 0.3]
        rng.shuffle(others)
        at = 0 if rng.random() < 0.7 else rng.randint(0, len(others))
        resident_prefs[r] = tuple(others[:at] + ["h1"] + others[at:])
    hospital_prefs = {}
    for h in hospitals:
        order = [r for r in residents if h in resident_prefs[r]]
        rng.shuffle(order)
        hospital_prefs[h] = tuple(order)
    quotas = {}
    for h in hospitals:
        low = rng.randint(2, 20)
        quotas[h] = (low, rng.randint(low, n_res if h == "h1" else 40))
    return hrlq.validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


def chain_instance(links: int, open_end: int = -1) -> hrlq.Instance:
    """A chain of `links` residents whose only feasible matching is forced link by link.

    Resident ri lists h(i+1), then hi; each hospital lists its
    lower-numbered resident first.  Every hospital has quota [1,1] except
    the one at `open_end` (-1: the last, h<links>; 0: the first, h0), which
    has [0,1].  With the last open, ri takes hi and every resident but the
    last envies: min-EP and min-ER are both links - 1.  With the first open,
    ri takes h(i+1) and the matching is envy-free.
    """
    residents = [f"r{i}" for i in range(links)]
    hospitals = [f"h{i}" for i in range(links + 1)]
    resident_prefs = {f"r{i}": (f"h{i + 1}", f"h{i}") for i in range(links)}
    hospital_prefs = {f"h{i}": tuple(f"r{k}" for k in (i - 1, i) if 0 <= k < links)
                      for i in range(links + 1)}
    quotas = {h: (1, 1) for h in hospitals}
    quotas[hospitals[open_end]] = (0, 1)
    return hrlq.validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)


def _preference_options(items: tuple[str, ...]):
    """Every strict preference list over any subset of items, empty included."""
    for size in range(len(items) + 1):
        for subset in itertools.combinations(items, size):
            yield from itertools.permutations(subset)


def exhaustive_two_by_two():
    """Every 2-resident, 2-hospital instance with u <= 2 and all strict preferences."""
    residents = ("r1", "r2")
    hospitals = ("h1", "h2")
    quota_options = [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]
    res_options = list(_preference_options(hospitals))
    for p1, p2 in itertools.product(res_options, repeat=2):
        resident_prefs = {"r1": p1, "r2": p2}
        accepted = {
            h: tuple(r for r in residents if h in resident_prefs[r]) for h in hospitals
        }
        for o1 in itertools.permutations(accepted["h1"]):
            for o2 in itertools.permutations(accepted["h2"]):
                for q1, q2 in itertools.product(quota_options, repeat=2):
                    yield hrlq.validate_instance(
                        residents,
                        hospitals,
                        resident_prefs,
                        {"h1": o1, "h2": o2},
                        {"h1": q1, "h2": q2},
                    )


def naive_tables(residents, hospitals, resident_prefs, hospital_prefs, quotas) -> dict:
    """The index maps, edges and compiled tables of a valid description, rebuilt naively.

    Takes lists of names, a list of names per resident and per hospital
    (none is an empty list), and a (lower, upper) pair per hospital.  An
    index is a declaration position, found by `list.index`; a tuple equals
    no list, so comparing with an instance checks the container types too.
    Shares no code with `hrlq.core`.
    """
    residents, hospitals = list(residents), list(hospitals)
    rp = {r: list(resident_prefs.get(r, [])) for r in residents}
    hp = {h: list(hospital_prefs.get(h, [])) for h in hospitals}
    return {
        "resident_index": {r: residents.index(r) for r in residents},
        "hospital_index": {h: hospitals.index(h) for h in hospitals},
        "edges": tuple((r, h) for r in residents for h in hospitals if h in rp[r]),
        "_options": tuple(
            tuple((hospitals.index(h), hp[h].index(r)) for h in rp[r])
            for r in residents
        ),
        "_acc_h": tuple(tuple(residents.index(r) for r in hp[h]) for h in hospitals),
        "_low": tuple(quotas[h][0] for h in hospitals),
        "_up": tuple(quotas[h][1] for h in hospitals),
    }


def check_tables_by_name(instance: hrlq.Instance) -> None:
    """Assert that the index maps, edges and compiled tables equal a rebuild from the string fields."""
    rebuilt = naive_tables(instance.residents, instance.hospitals, instance.resident_prefs,
                           instance.hospital_prefs, instance.quotas)
    for name, table in rebuilt.items():
        assert getattr(instance, name) == table, name


def has_envy_free_feasible(instance: hrlq.Instance, node_budget: int = 10**6) -> bool:
    """Exhaustive ground truth for the envy-free decision procedure."""
    return any(
        not hrlq.envy_pairs(instance, m)
        for m in hrlq.enumerate_feasible(instance, node_budget)
    )


def product_space_choices(instance: hrlq.Instance) -> list[tuple]:
    """Every feasible matching as a hospital (or None) per resident, in the search's order.

    `itertools.product` over each resident's list followed by None
    (unmatched), the first resident varying slowest, filtered by the quota
    intervals.  Shares no code with `hrlq`'s search.
    """
    options = [instance.resident_prefs[r] + (None,) for r in instance.residents]
    out = []
    for combo in itertools.product(*options):
        counts = {h: 0 for h in instance.hospitals}
        for h in combo:
            if h is not None:
                counts[h] += 1
        if all(low <= counts[h] <= up for h, (low, up) in instance.quotas.items()):
            out.append(combo)
    return out


def choice_pairs(instance: hrlq.Instance, combo: tuple) -> tuple:
    """A product-space choice as (resident, hospital) pairs in resident order."""
    return tuple((r, h) for r, h in zip(instance.residents, combo) if h is not None)


def _occupants(matching: hrlq.Matching) -> dict[str, list[str]]:
    occupants: dict[str, list[str]] = {}
    for r, h in matching.assignment.items():
        occupants.setdefault(h, []).append(r)
    return occupants


def _better_hospitals(instance: hrlq.Instance, matching: hrlq.Matching, r: str):
    """The hospitals r lists above its own one (all of them when unmatched), in index order."""
    prefs = instance.resident_prefs[r]
    own = matching.assignment.get(r)
    better = prefs if own is None else prefs[: prefs.index(own)]
    return [h for h in instance.hospitals if h in better]


def naive_envy_pairs(instance: hrlq.Instance, matching: hrlq.Matching) -> tuple:
    """Envy pairs straight from the definition, by (resident, hospital) declaration order.

    (r, h) is an envy pair when r prefers h to its own hospital and h holds
    some resident it likes less than r.  Shares no code with `hrlq.core`.
    """
    occupants = _occupants(matching)
    out = []
    for r in instance.residents:
        for h in _better_hospitals(instance, matching, r):
            hp = instance.hospital_prefs[h]
            if any(hp.index(r) < hp.index(o) for o in occupants.get(h, ())):
                out.append((r, h))
    return tuple(out)


def naive_first_minima(instance: hrlq.Instance) -> tuple:
    """The first strict minimum of each objective in `enumerate_feasible` order.

    Each leaf is scored by `naive_envy_pairs`, so the picks share no
    scoring code with `hrlq.core`.  Returns (min-EP matching, its number
    of envy pairs, min-ER matching, its number of envious residents); all
    four are None when nothing is feasible.
    """
    best_ep = best_er = None
    ep = er = None
    for matching in hrlq.enumerate_feasible(instance):
        pairs = naive_envy_pairs(instance, matching)
        residents = len({r for r, _ in pairs})
        if ep is None or len(pairs) < ep:
            best_ep, ep = matching, len(pairs)
        if er is None or residents < er:
            best_er, er = matching, residents
    return best_ep, ep, best_er, er


def worst_occupant_ranks(instance: hrlq.Instance, choice: list[int]) -> list[int]:
    """Per hospital, the rank in its list of its worst occupant (-1 when empty), recounted by name."""
    held: dict[str, list[int]] = {}
    for r, j in zip(instance.residents, choice):
        if j >= 0:
            h = instance.hospitals[j]
            held.setdefault(h, []).append(instance.hospital_prefs[h].index(r))
    return [max(held.get(h, [-1])) for h in instance.hospitals]


def check_leaf_state(instance: hrlq.Instance) -> int:
    """Check the search's path-kept cut and its leaf score at every leaf; return the leaves.

    At each leaf `_FeasibleSearch.cut` must equal each hospital's worst
    occupant rank recounted from the choice vector by name, and the scan
    the oracles run on it must count `_envy`'s pairs and their distinct
    residents.
    """
    core = hrlq.core
    never = len(instance.edges) + 1
    search = hrlq.algorithms._FeasibleSearch(instance, 10**7)
    leaves = 0
    for choice in search.leaves():
        assert search.cut == worst_occupant_ranks(instance, choice), choice
        score = core._envy_scan(instance._options, choice, search.cut, never, never)
        pairs = core._envy(instance, choice)
        assert score == (len(pairs), len({r for r, _ in pairs})), choice
        leaves += 1
    return leaves


def naive_blocking_pairs(instance: hrlq.Instance, matching: hrlq.Matching) -> tuple:
    """Blocking pairs from the definition: envy pairs plus pairs whose hospital has a free seat."""
    occupants = _occupants(matching)
    out = []
    for r in instance.residents:
        for h in _better_hospitals(instance, matching, r):
            held = occupants.get(h, ())
            hp = instance.hospital_prefs[h]
            if len(held) < instance.quotas[h][1] or any(hp.index(r) < hp.index(o) for o in held):
                out.append((r, h))
    return tuple(out)


def textbook_da(
    instance: hrlq.Instance, caps: dict[str, int], dropped: set[tuple[str, str]] = frozenset()
) -> dict[str, str]:
    """Resident-proposing deferred acceptance in rounds, on names, as the reference for the kernel.

    In each round every resident without a hospital, and with hospitals
    left to try, proposes to the next one on its list; each hospital then
    keeps its `caps[h]` best among those it held and the new proposers and
    refuses the rest.  Pairs in `dropped` are skipped as if unlisted.  The
    result, a hospital per matched resident, is the resident-optimal stable
    matching for the capacities, whatever the proposal order.  Shares no
    code with `hrlq.algorithms`.
    """
    lists = {
        r: [h for h in instance.resident_prefs[r] if (r, h) not in dropped]
        for r in instance.residents
    }
    tried = {r: 0 for r in instance.residents}
    holds: dict[str, list[str]] = {h: [] for h in instance.hospitals}
    assigned: dict[str, str] = {}
    while True:
        proposals: dict[str, list[str]] = {}
        for r in instance.residents:
            if r not in assigned and tried[r] < len(lists[r]):
                proposals.setdefault(lists[r][tried[r]], []).append(r)
                tried[r] += 1
        if not proposals:
            return assigned
        for h, new in proposals.items():
            ranked = sorted(holds[h] + new, key=instance.hospital_prefs[h].index)
            holds[h] = ranked[: caps[h]]
            for r in ranked[caps[h]:]:
                assigned.pop(r, None)
            for r in holds[h]:
                assigned[r] = h


def full_run(instance: hrlq.Instance, caps: tuple[int, ...], banned: list[int] | None = None):
    """A `_Run` that has admitted every resident at `caps` under `banned` (none by default)."""
    n = len(instance.residents)
    run = hrlq.algorithms._Run(instance, caps, n)
    run.admit(banned or [0] * n, n)
    return run


def check_resumed_runs(instance: hrlq.Instance, rng: random.Random) -> int:
    """Check deferred acceptance resumed at each resident against a full run; return the runs.

    At the lower and at the upper quotas, for each entry point r, a run is
    admitted up to r under random bans, then resumed twice, each time from
    a fresh copy after the bans of residents r and later are drawn again.
    Each copy's choice and `taken` must equal those of a full run under
    the final bans, and its matching `textbook_da`'s.  At the lower quotas
    a run that stops once more residents have fallen off than may stay
    unmatched, admitted up to r and resumed from a copy as `min_ep_exact`'s
    runs, must give the verdict of a plain count: the full run matches
    exactly sum(low) residents.
    """
    algorithms = hrlq.algorithms
    n = len(instance.residents)
    positions = [(r, k) for r in range(n) for k in range(len(instance._options[r]))]

    def bans() -> list[int]:
        banned = [0] * n
        for r, k in positions:
            if rng.random() < 0.25:
                banned[r] |= 1 << k
        return banned

    runs = 0
    for bound, caps in enumerate((instance._low, instance._up)):
        named_caps = {h: quota[bound] for h, quota in instance.quotas.items()}
        for r in range(n + 1):
            banned = bans()
            cursor = algorithms._Run(instance, caps, n)
            cursor.admit(banned, r)
            for _ in range(2):  # two resumed copies: the first may not disturb the cursor
                banned[r:] = bans()[r:]
                full = full_run(instance, caps, banned)
                resumed = cursor.copy(n)
                resumed.admit(banned, n)
                choice = full.choice()
                resumed_state = (resumed.choice(), resumed.taken)
                assert resumed_state == (choice, full.taken), (bound, r)
                dropped = {(instance.residents[i], instance.resident_prefs[instance.residents[i]][k])
                           for i, k in positions if banned[i] >> k & 1}
                named = {instance.residents[i]: instance.hospitals[h]
                         for i, h in enumerate(choice) if h >= 0}
                assert named == textbook_da(instance, named_caps, dropped), (bound, r)
                if bound == 0:
                    stopped = algorithms._Run(instance, caps, n - sum(caps))
                    verdict = stopped.admit(banned, r) and stopped.copy(stopped.limit).admit(banned, n)
                    matched = sum(h >= 0 for h in choice)
                    assert verdict == (matched == sum(caps)), r
                runs += 1
    return runs


def paper_min_ep(instance: hrlq.Instance, level_cap: int | None = None) -> hrlq.SolveResult:
    """Min-EP by the paper's simple exponential-time algorithm, as the reference for `min_ep_exact`.

    For k = 0, 1, ... every k-subset of the acceptable pairs, in
    lexicographic edge order, is deleted and the trimmed instance is rebuilt
    and handed to Yokoi's test; the first success wins.  Every guess is
    counted.  Raises hrlq.LevelCapExceeded, with the number of guesses
    made, once level_cap (or the number of pairs) is exhausted.
    """
    edges = instance.edges
    max_level = len(edges) if level_cap is None else min(level_cap, len(edges))
    guesses = 0
    for k in range(max_level + 1):
        for guess in itertools.combinations(edges, k):
            guesses += 1
            matching = hrlq.yokoi_envy_free(hrlq.without_edges(instance, guess))
            if matching is not None:
                return hrlq.SolveResult(
                    matching,
                    len(hrlq.envy_pairs(instance, matching)),
                    hrlq.ObjectiveKind.MIN_EP,
                    hrlq.SolveStats(guesses_examined=guesses, level=k, guess=guess),
                )
    raise hrlq.LevelCapExceeded(max_level, guesses)
