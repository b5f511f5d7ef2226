"""Solvers: deferred acceptance, envy-free decision, exact and brute-force envy minimization.

The exact minimum-envy-pair solver deletes guessed edge sets of growing size
and asks the envy-free decision procedure whether the trimmed instance admits
an envy-free matching that fills every lower quota; the first success is
optimal.  The brute-force oracles enumerate every feasible matching and are
the independent cross-check for the exact route.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from math import comb
from operator import itemgetter

from .core import Instance, Matching, Pair, _envy, _envy_scan, _matching, _plain_int, _Record

DEFAULT_NODE_BUDGET = 10**7


class Infeasible(Exception):
    """No matching can satisfy every hospital's quota interval."""


class BudgetExceeded(Exception):
    """The search visited more nodes than the caller allowed."""

    def __init__(self, node_budget: int):
        self.node_budget = node_budget
        super().__init__(f"search exceeded the node budget of {node_budget}")


class LevelCapExceeded(Exception):
    """The guess-level search was capped before any guess succeeded."""

    def __init__(self, level_cap: int, guesses_examined: int):
        self.level_cap = level_cap
        self.guesses_examined = guesses_examined
        super().__init__(
            f"no solution within guess level {level_cap} "
            f"({guesses_examined} guesses examined)"
        )


class ObjectiveKind(Enum):
    MIN_EP = "min-ep"
    MIN_ER = "min-er"
    ENVY_FREE = "envy-free"


class SolveStats(_Record):
    """Search statistics.

    guesses_examined  min_ep_exact: edge sets up to and including the winner
                      in the paper's order (by size, then lexicographic over
                      all acceptable pairs), whether or not deferred
                      acceptance ran on them; 0 elsewhere
    level             min_ep_exact: size of the winning guess; 0 elsewhere
    nodes             brute_*: search states entered, the root and each
                      partial assignment that some feasible matching
                      extends; 0 elsewhere
    guess             min_ep_exact: the winning deleted pairs; () elsewhere
    """

    __match_args__ = ("guesses_examined", "level", "nodes", "guess")
    guesses_examined: int
    level: int
    nodes: int
    guess: tuple[Pair, ...]

    def __init__(self, guesses_examined: int = 0, level: int = 0, nodes: int = 0,
                 guess: tuple[Pair, ...] = ()) -> None:
        self.__dict__.update(guesses_examined=guesses_examined, level=level, nodes=nodes,
                             guess=guess)


class SolveResult(_Record):
    __match_args__ = ("matching", "objective", "objective_kind", "stats")
    matching: Matching
    objective: int
    objective_kind: ObjectiveKind
    stats: SolveStats

    def __init__(self, matching: Matching, objective: int, objective_kind: ObjectiveKind,
                 stats: SolveStats) -> None:
        self.__dict__.update(matching=matching, objective=objective,
                             objective_kind=objective_kind, stats=stats)


class _Run:
    """A deferred-acceptance run that admits residents one at a time, in index order.

    A run is built for one instance, its capacities `caps` (the lower
    quotas for Yokoi's test, the upper ones for plain deferred acceptance)
    and its stop `limit`, the residents that may fall off their lists:
    n - sum(low) at the lower quotas, where at most sum(low) find a seat,
    and n at the upper ones.  They stay fixed for the run and its copies.

    taken[r]   bitmask with bit k set when the hospital at position k of r's
               list held r at some point of the run, even if it later
               displaced r; a displaced resident proposes again from just
               past its highest set bit
    held[h]    bitmask with bit k set when the resident at rank k of h's
               own list holds one of h's seats: the ranks in one list are
               distinct, so h has `held[h].bit_count()` occupants and its
               worst is rank `held[h].bit_length() - 1`
    entered    residents 0..entered-1 have entered, and every displacement
               chain they set off has settled; in a stopped run, the
               resident whose entry set off the chain that stopped it
    fallen     how many residents fell off the end of their lists; such a
               resident stays unmatched for the rest of the run.  In a
               stopped run, the count that passed the limit

    The run keeps no choice vector: a resident's seat is its rank's bit in
    one hospital's mask, and `choice` reads the vector off `held` once, for
    the matching a solver returns.  A displaced resident proposes on at
    once, so between calls to `admit` no resident is in flight, except in a
    stopped run, where the one in flight is the resident that fell, and it
    holds no seat.

    Each resident enters after the chains set off before it have settled
    (McVitie and Wilson's order).  Any order ends in the resident-optimal
    stable matching, so a finished run's `held` does not depend on it;
    `taken` does (a hospital may hold a resident before a better one comes,
    or refuse it at once), but one fixed order gives one `taken`.  The
    state just before r enters depends only on the residents before r and
    their bans, so `min_ep_exact` copies a run there and resumes it.
    Banning as well a pair whose bit is clear in `taken` repeats the run
    step for step up to where it ended, so it finishes or stops the same.
    """

    __slots__ = ("instance", "caps", "limit", "taken", "held", "entered", "fallen")

    def __init__(self, instance: Instance, caps: tuple[int, ...], limit: int):
        self.instance, self.caps, self.limit = instance, caps, limit
        self.taken = [0] * len(instance._options)
        self.held = [0] * len(caps)
        self.entered = self.fallen = 0

    def copy(self) -> _Run:
        run = _Run.__new__(_Run)
        run.instance, run.caps, run.limit = self.instance, self.caps, self.limit
        run.taken, run.held = self.taken.copy(), self.held.copy()
        run.entered, run.fallen = self.entered, self.fallen
        return run

    def admit(self, banned: list[int], stop: int) -> bool:
        """Admit residents `entered`..stop-1, each once every chain before it has settled.

        `banned[r]` is a mask shaped like `taken[r]`; its bit k deletes the
        pair at position k of r's list from both lists.  Only the bans of
        the residents admitted here are read.  Returns whether at most
        `limit` residents have fallen off; once more have, it returns at
        once and leaves the run stopped, not to be admitted to again, with
        `entered` and `fallen` saying where it stopped.
        """
        options, acc_h = self.instance._options, self.instance._acc_h
        caps, limit, taken, held = self.caps, self.limit, self.taken, self.held
        fallen = self.fallen
        for entrant in range(self.entered, stop):
            r = entrant
            while r >= 0:  # r proposes; the resident it displaces, if any, goes next
                prefs = options[r]
                ban = banned[r]
                for k in range(taken[r].bit_length(), len(prefs) - 1):  # the (-1, -1) entry is not tried
                    h, rank = prefs[k]
                    cap = caps[h]
                    if not cap or ban and ban >> k & 1:
                        continue
                    ranks = held[h]
                    if ranks.bit_count() < cap:
                        held[h] = ranks | 1 << rank
                        displaced = -1
                        break
                    worst = ranks.bit_length() - 1
                    if rank < worst:
                        held[h] = ranks ^ (1 << worst | 1 << rank)
                        displaced = acc_h[h][worst]
                        break
                else:  # falling through the list leaves r unmatched for good
                    fallen += 1
                    if fallen > limit:
                        self.entered, self.fallen = entrant, fallen
                        return False
                    break
                taken[r] |= 1 << k
                r = displaced
        self.entered, self.fallen = stop, fallen
        return fallen <= limit

    def choice(self) -> list[int]:
        """The choice vector the masks describe: r's hospital index, -1 where r holds no seat."""
        choice = [-1] * len(self.taken)
        for h, ranks in enumerate(self.held):
            listed = self.instance._acc_h[h]
            while ranks:  # worst occupant first, so the mask shrinks as it goes
                rank = ranks.bit_length() - 1
                choice[listed[rank]] = h
                ranks ^= 1 << rank
        return choice


def deferred_acceptance(instance: Instance) -> Matching:
    """Resident-proposing deferred acceptance against the upper quotas.

    Lower quotas are ignored.  Residents propose in index order, hospitals
    reject by preference only; the result is the unique resident-optimal
    stable matching for the capacities, so it has no blocking pairs.
    """
    n = len(instance._options)
    run = _Run(instance, instance._up, n)
    run.admit([0] * n, n)
    return _matching(instance, run.choice())


def reduced_capacity_instance(instance: Instance) -> Instance:
    """The companion instance whose upper quotas are the original lower quotas.

    Envy-free matchings that fill every lower quota correspond to stable
    matchings of this instance that fill every hospital.  This is the
    paper's reduced-capacity instance, built literally as a new validated
    Instance.  No solver calls it: `yokoi_envy_free` and `min_ep_exact`
    run deferred acceptance with the capacities lowered in place.  Tests
    and benchmark probes use it as the reference that shortcut is checked
    against.
    """
    return Instance(
        instance.residents,
        instance.hospitals,
        dict(instance.resident_prefs),
        dict(instance.hospital_prefs),
        {h: (0, low) for h, (low, _) in instance.quotas.items()},
    )


def yokoi_envy_free(instance: Instance) -> Matching | None:
    """Decide whether a feasible envy-free matching exists, returning one if so.

    Runs deferred acceptance with every capacity lowered to the hospital's
    lower quota, as on the reduced-capacity instance (Yokoi's
    characterization): an envy-free matching filling all lower quotas exists
    iff that run fills every hospital to exactly its lower quota.  Returns
    None otherwise; that is a regular outcome, not a failure.
    """
    low, n = instance._low, len(instance._options)
    run = _Run(instance, low, n - sum(low))
    return _matching(instance, run.choice()) if run.admit([0] * n, n) else None


def _frontier_reader(spans: list[tuple[int, int, int]], i: int):
    """The reader of the frontier occupancy at level i.

    `spans` holds (first lister, last lister, h) for the hospitals h with
    a positive lower quota.  The frontier F_i holds those listed both by a
    resident <= i and by a resident > i; the reader maps the occupancy
    vector to its entries on F_i.  It is built only when level i takes a
    memo key, and then F_i is never empty: either i's option frees a slot
    of a hospital that has a positive lower quota, that i lists and that
    passed the last-lister check, so a resident after i lists it; or the
    option fills j while i covers no slot, so the cover gives a slot of j
    to a resident after i.
    """
    return itemgetter(*[h for first, last, h in spans if first <= i < last])


def _augment(acc_h: tuple, hospital: int, start: int, cover: list[int]) -> bool:
    """Cover one more slot of `hospital` with residents from `start` on, if possible.

    `acc_h` is `Instance._acc_h`.  A free resident on the hospital's list
    takes the slot directly; otherwise a breadth-first search over
    alternating paths finds a free resident and shifts every resident on
    the path by one slot.
    """
    listed = acc_h[hospital]
    for r in listed:
        if r >= start and cover[r] < 0:
            cover[r] = hospital
            return True
    # via[r]: the resident whose covered hospital r was reached from
    # (-1 for `hospital` itself).
    via = {r: -1 for r in listed if r >= start}
    expanded = {hospital}
    queue = list(via)
    for q in queue:
        h = cover[q]
        if h in expanded:
            continue
        expanded.add(h)
        for r in acc_h[h]:
            if r < start or r in via:
                continue
            via[r] = q
            if cover[r] < 0:
                while r >= 0:
                    q = via[r]
                    cover[r] = hospital if q < 0 else cover[q]
                    r = q
                return True
            queue.append(r)
    return False


def _initial_cover(instance: Instance) -> list[int] | None:
    """Cover every lower-quota slot with a distinct resident, or None when that is impossible."""
    acc_h = instance._acc_h
    cover = [-1] * len(instance._options)
    for j, low in enumerate(instance._low):
        for _ in range(low):
            if not _augment(acc_h, j, 0, cover):
                return None
    return cover


class _FeasibleSearch:
    """Depth-first enumeration of feasible matchings, without recursion.

    Residents are decided in index order.  Resident i's options are the
    entries of `Instance._options[i]`: its acceptable hospitals, each with
    i's rank there, in preference order, then (-1, -1) for staying
    unmatched; a hospital whose upper quota is full is skipped.  A branch
    survives only while the undecided residents can still meet the
    remaining lower-quota demand, so dead branches are cut at the node
    where they die.  Three tests decide that, cheapest first:

    * a count, in O(1): the demand left may not exceed the residents left;
    * the last-lister check, in O(1): an option that frees a slot i covers
      dies when no resident after i lists that slot's hospital;
    * a cover, which gives every demand slot its own undecided resident.
      Each level of the explicit stack holds its cover: the parent's, or
      one repaired with one augmenting path (`_augment`) when the decision
      frees or removes a slot.  Any repair gives the same decision,
      because the cover only has to exist.

    Whether the residents after i can meet the demand depends only on i
    and the demand after i's decision on the frontier F_i: the hospitals
    with a positive lower quota listed both by a resident <= i and by one
    after i.  A hospital listed only after i still has all its demand,
    and on a live branch one listed only up to i has none left (the cover
    and the last-lister check see to that).  The occupancy on F_i fixes
    that demand, so repairs are memoized by (i, frontier occupancy), dead
    or the repaired cover, and a branch that meets a known state reuses
    the verdict and the cover, which is copied before it is ever changed.
    The key is the per-node state a bound can share with the enumeration.

    Along the path the search keeps, besides each hospital's occupancy,
    `cut[h]`: the rank in h's list of h's worst decided occupant (-1 while
    h holds nobody).  Placing a resident raises it, backtracking restores
    it, and at a leaf it covers every resident, so `core._envy_scan` scores
    the leaf from it without rebuilding it.
    """

    def __init__(self, instance: Instance, node_budget: int):
        if _plain_int(node_budget, "node_budget", ValueError) < 0:
            raise ValueError(f"node_budget must be non-negative, got {node_budget}")
        self.node_budget = node_budget
        self.nodes = 0
        self.instance = instance
        self.cut = [-1] * len(instance._acc_h)

    def leaves(self) -> Iterator[list[int]]:
        """Yield the live choice vector at each feasible leaf; copy it to keep it.

        While a leaf is out, `self.cut` is that leaf's cut.  An instance
        without a feasible matching yields nothing and enters no state.
        Otherwise every state entered counts as a node, and entering one
        past the budget raises BudgetExceeded.
        """
        instance = self.instance
        cover = _initial_cover(instance)
        if cover is None:
            return
        acc_h, low, up = instance._acc_h, instance._low, instance._up
        budget, n = self.node_budget, len(instance._options)
        options, cut = instance._options, self.cut
        last = [max(listed, default=-1) for listed in acc_h]  # h's last lister
        spans = [(min(listed), last[h], h)
                 for h, listed in enumerate(acc_h) if low[h] and len(listed) > 1]
        readers = [None] * n  # readers[i]: F_i's reader, built when level i first takes a key
        occ = [0] * len(acc_h)
        repaired: dict[tuple, list[int] | None] = {}  # (i, frontier occupancy) -> cover, or None: dead
        choice = [-1] * n
        covers = [cover] * n  # covers[i]: the cover while resident i is decided
        # slack[i]: undecided residents minus unmet lower-quota demand at level i
        slack = [n - sum(low)] * n
        kept = [-1] * n  # kept[i]: the cut of i's hospital before i took it
        pending = [None] * n  # pending[i]: the options resident i has not tried yet
        self.nodes += 1
        if self.nodes > budget:
            raise BudgetExceeded(budget)
        if not n:
            yield choice
            return
        i = 0
        it = iter(options[0])
        while True:
            for j, rank in it:
                if j >= 0 and occ[j] >= up[j]:
                    continue
                fills = j >= 0 and occ[j] < low[j]
                if not (fills or slack[i]):
                    continue  # the count check: the rest could not meet the demand
                # Entries of residents before i are stale and never read again.
                cover = covers[i]
                freed = cover[i]
                if freed != j and (fills or freed >= 0):
                    if freed >= 0 and last[freed] <= i:
                        continue  # the last-lister check: nobody after i can take the slot
                    reader = readers[i]
                    if reader is None:
                        reader = readers[i] = _frontier_reader(spans, i)
                    if j >= 0:  # the key is taken after i's decision
                        occ[j] += 1
                    key = (i, reader(occ))
                    if j >= 0:
                        occ[j] -= 1
                    if key in repaired:
                        cover = repaired[key]
                    else:
                        cover = cover.copy()
                        if fills:  # a slot of j that i did not cover disappears
                            cover[cover.index(j, i + 1)] = -1
                        if freed >= 0 and not _augment(acc_h, freed, i + 1, cover):
                            cover = None
                        repaired[key] = cover
                    if cover is None:
                        continue
                self.nodes += 1
                if self.nodes > budget:
                    raise BudgetExceeded(budget)
                if i + 1 == n:  # a leaf
                    choice[i] = j
                    if j >= 0 and rank > cut[j]:
                        below, cut[j] = cut[j], rank
                        yield choice
                        cut[j] = below
                    else:
                        yield choice
                    choice[i] = -1
                    continue
                if j >= 0:
                    choice[i] = j
                    occ[j] += 1
                    kept[i] = cut[j]
                    if rank > cut[j]:
                        cut[j] = rank
                pending[i] = it
                i += 1
                covers[i] = cover
                slack[i] = slack[i - 1] - (not fills)
                it = iter(options[i])
                break
            else:  # back to the previous resident's next option
                if i == 0:
                    return
                i -= 1
                j = choice[i]
                if j >= 0:
                    occ[j] -= 1
                    cut[j] = kept[i]
                    choice[i] = -1
                it = pending[i]


def exists_feasible(instance: Instance) -> bool:
    """True iff some matching satisfies every quota interval.

    Decided by matching residents against one demand slot per unit of lower
    quota; surplus residents may stay unmatched, so saturating the demand
    slots is both necessary and sufficient.
    """
    return _initial_cover(instance) is not None


def enumerate_feasible(
    instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET
) -> Iterator[Matching]:
    """Yield every feasible matching exactly once, in deterministic order.

    Raises BudgetExceeded once the backtracking search has visited
    node_budget states; that signals the instance is too large for
    exhaustive treatment.  A node_budget that is not an int >= 0 raises
    ValueError at the call, before anything is yielded.
    """
    search = _FeasibleSearch(instance, node_budget)
    return (_matching(instance, choice) for choice in search.leaves())


def _brute_optima(instance: Instance, node_budget: int) -> tuple[SolveResult, SolveResult]:
    """Minimum-envy-pair and minimum-envy-resident matchings from one enumeration.

    Each objective keeps the first strict minimum in enumeration order, so a
    leaf's envy count stops as soon as it can beat neither best so far.
    """
    search = _FeasibleSearch(instance, node_budget)
    options, cut = instance._options, search.cut
    best_ep = best_er = None
    ep_obj = er_obj = len(instance.edges) + 1  # above any count
    for choice in search.leaves():
        n_pairs, n_residents = _envy_scan(options, choice, cut, ep_obj, er_obj)
        if n_pairs < ep_obj:
            best_ep, ep_obj = _matching(instance, choice), n_pairs
        if n_residents < er_obj:
            best_er, er_obj = _matching(instance, choice), n_residents
    if best_ep is None:
        raise Infeasible("no feasible matching exists")
    stats = SolveStats(nodes=search.nodes)
    return (
        SolveResult(best_ep, ep_obj, ObjectiveKind.MIN_EP, stats),
        SolveResult(best_er, er_obj, ObjectiveKind.MIN_ER, stats),
    )


def brute_min_ep(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exhaustive minimum-envy-pair oracle; ties broken by enumeration order."""
    return _brute_optima(instance, node_budget)[0]


def brute_min_er(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exhaustive minimum-envy-resident oracle; ties broken by enumeration order."""
    return _brute_optima(instance, node_budget)[1]


def _paper_position(n_edges: int, guess: list[int]) -> int:
    """1-based position of an edge-index set among all of them, by size, then lexicographic."""
    k = len(guess)
    position = sum(comb(n_edges, j) for j in range(k)) + 1
    prev = -1
    for i, e in enumerate(guess):
        # the k-subsets that agree with `guess` before slot i and hold prev < v < e there
        position += comb(n_edges - prev - 1, k - i) - comb(n_edges - e, k - i)
        prev = e
    return position


def _extend_guess(
    candidates: list[tuple[int, int, int]],
    banned: list[int],
    taken: list[int],
    cursor: _Run,
    start: int,
    need: int,
) -> _Run | None:
    """Add to the guess the first `need` candidates from `start` on that pass Yokoi's test.

    The guess is `banned`: per-resident masks of list positions, a bit for
    each deleted pair.  Candidates are (edge, resident, position of the
    pair in the resident's list), in edge order, so their residents never
    decrease, and sets of them are tried in lexicographic order.  `taken`
    is the masks of the guess's run, which failed, finished or stopped.
    `cursor` belongs to this call: the same run, built at the lower quotas
    with `min_ep_exact`'s stop, admitted up to some resident no later than
    `candidates[start]`'s.  Before each candidate of resident r that is not
    skipped, the cursor is admitted up to r under the prefix's bans, and
    the call returns once it stops: every guess left bans only pairs of r
    or later residents, so its run stops as well.  A held candidate's run
    is a copy of the cursor, given the new ban and admitted from r on: the
    run from scratch step for step, since the state before r enters does
    not depend on bans at r or later.  Returns the winning run, with
    `banned` left holding the winner, or None with `banned` as it was.
    """
    n = len(taken)
    for i in range(start, len(candidates) - need + 1):
        _, r, at = candidates[i]
        bit = 1 << at
        held = taken[r] & bit
        if not held and need == 1:
            continue  # the never-held rule: the prefix's run, a failure already seen
        if cursor.entered < r and not cursor.admit(banned, r):
            return None
        banned[r] |= bit
        if held:  # the prefix's run, resumed at r with the pair deleted
            child = cursor.copy()
            # Only a last-level run can pass: every smaller guess failed a level earlier.
            if child.admit(banned, n):
                return child
        if need > 1:
            found = _extend_guess(candidates, banned, child.taken if held else taken,
                                  cursor.copy(), i + 1, need - 1)
            if found is not None:
                return found
        banned[r] &= ~bit
    return None


def min_ep_exact(instance: Instance, level_cap: int | None = None) -> SolveResult:
    """Feasible matching with the minimum number of envy-pairs.

    Level k deletes every k-subset of the acceptable pairs, in
    lexicographic order by edge index, and runs the envy-free decision
    procedure on the trimmed instance.  The first success is reported; its
    guess set is therefore the lexicographically smallest winner at the
    optimal level.  Levels start at 0, so the reported objective is tight.
    A guess is only its bans: per-resident masks of list positions, which
    deferred acceptance skips; no trimmed instance is built, and the winner
    is read off the masks in edge order.  Two rules settle most guesses
    without running deferred acceptance, and neither changes the order or
    the result:

    * Candidate pairs.  A winning guess at the optimal level is exactly the
      set of envy pairs of the matching it yields (a smaller set would win a
      level earlier), so it holds only pairs (r, h) where h has a positive
      lower quota and ranks some resident below r.  Only subsets of these
      candidates are tried.
    * Never-held pairs.  Guesses are extended one pair at a time, each
      prefix keeping, per resident, the mask of list positions whose
      hospitals held it in the prefix's run; a pair's bit there is the bit
      that bans it.  If h never held r there, r either never reached h or
      was refused on the spot, which moves only r's pointer, exactly as
      deleting (r, h) does.  So deleting (r, h) as well repeats that run
      step for step, up to where it ended, and it is reused; at the last
      level it is a failure already seen.

    Every run, the root (`yokoi_envy_free`'s run) and each guess's alike,
    is built with the stop limit n - sum(low), the residents that may stay
    unmatched, and stops at the first resident that falls off its list
    past it, for a fallen resident stays unmatched and the run fails; a
    stopped run's masks serve the never-held rule as a finished run's do.
    The other guesses resume a run rather than start one (`_extend_guess`):
    residents enter deferred acceptance in index order, and the state
    before resident r enters does not depend on bans at r or later, so a
    guess's run copies its prefix's run at the banned pair's resident and
    goes on from there; when the prefix's run stops on its way to r, every
    guess left in that step fails.  None of this
    changes a result: the copy is the run from scratch step for step.  No
    run outlives its level, and one `banned` list serves the root and every
    level, for a level that fails clears every bit it set.

    `guesses_examined` counts guesses in the paper's order, by size and
    then lexicographically over all acceptable pairs, up to and including
    the winner, whether or not deferred acceptance ran on them.

    Raises Infeasible when no feasible matching exists at all,
    LevelCapExceeded when level_cap is given and exhausted, and ValueError
    when level_cap is neither None nor an int >= 0.
    """
    if level_cap is not None and _plain_int(level_cap, "level_cap", ValueError) < 0:
        raise ValueError(f"level_cap must be non-negative, got {level_cap}")
    if not exists_feasible(instance):
        raise Infeasible("no feasible matching exists")
    options, acc_h, low = instance._options, instance._acc_h, instance._low
    n_edges = len(instance.edges)
    max_level = n_edges if level_cap is None else min(level_cap, n_edges)
    candidates = []  # (e, r, at), read off r's options in edge order (by hospital index)
    e = 0
    for r, prefs in enumerate(options):
        for h, rank, at in sorted((h, rank, at) for at, (h, rank) in enumerate(prefs[:-1])):
            if low[h] and rank < len(acc_h[h]) - 1:
                candidates.append((e, r, at))
            e += 1
    n = len(options)
    banned = [0] * n  # the guess; a failed level clears every bit it set
    root = _Run(instance, low, n - sum(low))  # yokoi_envy_free's run
    won = root if root.admit(banned, n) else None
    level = 0
    while won is None and level < min(max_level, len(candidates)):
        level += 1
        cursor = _Run(instance, low, root.limit)
        won = _extend_guess(candidates, banned, root.taken, cursor, 0, level)
    if won is None:
        # Unreachable without a level cap: a feasible instance always succeeds
        # once the guess covers an optimal matching's envy-pairs.
        raise LevelCapExceeded(max_level, sum(comb(n_edges, j) for j in range(max_level + 1)))
    guess = [e for e, r, at in candidates if banned[r] >> at & 1]
    choice = won.choice()
    return SolveResult(
        matching=_matching(instance, choice),
        objective=len(_envy(instance, choice)),
        objective_kind=ObjectiveKind.MIN_EP,
        stats=SolveStats(
            guesses_examined=_paper_position(n_edges, guess),
            level=level,
            guess=tuple(instance.edges[e] for e in guess),
        ),
    )
