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

from .core import Instance, Matching, Pair, _envy_scan, _matching, _plain_int, _Record, _shown

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
    nodes             brute_*: partial assignments entered, the root and
                      each one that some feasible matching extends; 0
                      elsewhere
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
    and its stop `limit`, the residents that may fall off their lists.
    The instance and caps stay fixed for the run and its copies; each copy
    takes its own limit.  At the upper quotas the limit is n, and the run
    goes to the end.  At the lower quotas, where at most sum(low) find a
    seat, a run that ends with exactly n - sum(low) fallen fills every
    seat; `yokoi_envy_free` stops past that, and `min_ep_exact` gives its
    root, its cursors and its guesses' runs the limits it documents.

    taken[r]   bitmask with bit k set when the hospital at position k of r's
               list held r at some point of the run, even if it later
               displaced r; a displaced resident proposes again from just
               past its highest set bit
    held[h]    bitmask with bit k set when the resident at rank k of h's
               own list holds one of h's seats: the ranks in one list are
               distinct, so h has `held[h].bit_count()` occupants and its
               worst is rank `held[h].bit_length() - 1`, -1 when h is
               empty; so a hospital of capacity 0 refuses every proposal
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

    def copy(self, limit: int) -> _Run:
        """This run's state, in a run of its own that stops past `limit` fallen residents."""
        run = _Run.__new__(_Run)
        run.instance, run.caps, run.limit = self.instance, self.caps, limit
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
                for k in range(taken[r].bit_length(), len(prefs)):
                    if ban and ban >> k & 1:
                        continue
                    h, rank = prefs[k]
                    ranks = held[h]
                    if ranks.bit_count() < caps[h]:
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
        instance.resident_prefs,
        instance.hospital_prefs,
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


def _limit(value: int, what: str) -> int:
    """`value` if it is a plain int >= 0; anything else raises ValueError naming `what`."""
    if _plain_int(value, what, ValueError) < 0:
        raise ValueError(f"{what} must be non-negative, got {_shown(value)}")
    return value


def _initial_cover(instance: Instance) -> list[int] | None:
    """Cover every lower-quota slot with a distinct resident, or None when that is impossible."""
    acc_h = instance._acc_h
    cover = [-1] * len(instance._options)
    for j, low in enumerate(instance._low):
        for _ in range(low):
            if not _augment(acc_h, j, 0, cover):
                return None
    return cover


def _levels(instance: Instance, last: list[int]) -> list[tuple]:
    """For levels 1, ..., n in order: the reader of the occupancy on G_i and an empty state table.

    G_i holds every hospital, whatever its lower quota, that a resident
    before i lists and a resident at or after i lists too; `last[h]` is h's
    last lister.  One sweep over the residents builds them in
    O(n + |E| + the sum of |G_i|): G_(i+1) is G_i less the hospitals whose
    last lister is i, plus those whose first lister is i and that a later
    resident lists.
    """
    first = [min(listed, default=-1) for listed in instance._acc_h]
    frontier: list[int] = []
    levels = []
    for i, prefs in enumerate(instance._options):
        frontier = [h for h in frontier if last[h] > i]
        frontier += [h for h, _ in prefs if first[h] == i < last[h]]
        levels.append((itemgetter(*frontier) if frontier else _no_frontier, {}))
    return levels


def _no_frontier(occ: list[int]) -> tuple:
    """The reader of an empty frontier: its level has one state."""
    return ()


class _FeasibleSearch:
    """Depth-first enumeration of feasible matchings, without recursion.

    Residents are decided in index order.  Resident i's options are
    `Instance._options[i]`, its acceptable hospitals in preference order,
    each with i's rank there, and then (-1, -1) for staying unmatched,
    which only this search adds, and only at a level with slack (more
    residents left than demand), where the count check allows it; a
    hospital at its upper quota is skipped.  A branch survives only while
    the undecided residents can still meet the remaining lower-quota
    demand, so dead branches are cut at the node where they die.  Three
    tests decide that, cheapest first:

    * a count, in O(1): the demand left may not exceed the residents left;
    * the last-lister check, in O(1): an option that frees a slot i covers
      dies when no resident after i lists that slot's hospital;
    * a cover, which gives every demand slot its own undecided resident.
      An option that frees or removes a slot repairs a copy of it with one
      augmenting path (`_augment`).  Any repair gives the same decision,
      because the cover only has to exist.

    Level i has its own state table, keyed by the occupancy of G_i: every
    hospital, whatever its lower quota, listed both by a resident before i
    and by one at or after i.  One sweep builds all of them (`_levels`)
    before the walk.  The key fixes everything below the state: on a live
    branch a hospital listed only before i has met its demand (the cover
    and the last-lister check see to that), and one listed only from i on
    is still empty.  So the key fixes each hospital's room under its upper
    quota and its demand left, hence the slack, resident i's live options
    and every completion.  A state is a list
    [options, cover, slack].  The walk expands it the first time it
    reaches it: the three tests run once per option, on the cover of the
    path that reached it, and `options` becomes the live options in list
    order, each (hospital, rank, child state), with child None at a leaf.
    Once an option passes the count and last-lister checks its child's
    liveness depends only on the child's key, so a known key (a dead one
    maps to None) skips the repair, and only a new live child keeps a
    cover, until its own expansion drops it.  Every later visit walks the
    stored options with no test, no key and no cover.

    The walk still enters each partial assignment that some feasible
    matching extends, in the same order, and each option taken counts as
    one node, so the leaves, their order and the node count are those of
    plain backtracking.  Along the path the search keeps each hospital's
    occupancy `occ[h]`, which an expansion reads, and `cut[h]`: the rank
    in h's list of h's worst decided occupant (-1 while h holds nobody).
    Placing a resident raises it, backtracking restores it, and at a leaf
    it covers every resident, so `core._envy_scan` scores the leaf from it
    without rebuilding it.
    """

    def __init__(self, instance: Instance, node_budget: int):
        self.node_budget = _limit(node_budget, "node_budget")
        self.nodes = 0
        self.instance = instance
        self.cut = [-1] * len(instance._acc_h)
        self.occ = [0] * len(instance._acc_h)

    def leaves(self) -> Iterator[list[int]]:
        """Yield the live choice vector at each feasible leaf; copy it to keep it.

        While a leaf is out, `self.cut` is that leaf's cut.  An instance
        without a feasible matching yields nothing and enters no partial
        assignment.  Otherwise the root and each option taken count as a
        node, and a node past the budget raises BudgetExceeded.
        """
        instance = self.instance
        cover = _initial_cover(instance)
        if cover is None:
            return
        budget, cut, occ = self.node_budget, self.cut, self.occ
        n = len(cover)
        self.nodes += 1
        if self.nodes > budget:
            raise BudgetExceeded(budget)
        if not n:
            yield []
            return
        self.last = [max(listed, default=-1) for listed in instance._acc_h]  # h's last lister
        # levels[i]: G_(i+1)'s reader and {occupancy of G_(i+1): state, None if dead}
        self.levels = _levels(instance, self.last)
        expand = self._expand
        choice = [-1] * n
        kept = [-1] * n  # kept[i]: the cut of i's hospital before i took it
        pending = [None] * n  # pending[i]: the options resident i has not taken yet
        i = 0
        it = iter(expand(0, [None, cover, n - sum(instance._low)]))
        while True:
            for j, rank, child in it:
                self.nodes += 1
                if self.nodes > budget:
                    raise BudgetExceeded(budget)
                if child is None:  # a leaf
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
                it = iter(child[0] or expand(i, child))
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

    def _expand(self, i: int, state: list) -> list:
        """Store and return resident i's live options at `state`, reached with `self.occ`."""
        instance, occ, last = self.instance, self.occ, self.last
        acc_h, low, up = instance._acc_h, instance._low, instance._up
        _, cover, slack = state
        n, freed = len(cover), cover[i]  # entries of residents before i are stale
        reader, states = self.levels[i]  # the children's level, i + 1
        # A level with no slack tries only its list, for the count check
        # would refuse the unmatched entry there.
        prefs = instance._options[i]
        live = []
        for j, rank in prefs + ((-1, -1),) if slack else prefs:
            if j >= 0 and occ[j] >= up[j]:
                continue
            fills = j >= 0 and occ[j] < low[j]
            if not (fills or slack):
                continue  # the count check: the rest could not meet the demand
            repair = freed != j and (fills or freed >= 0)
            if repair and freed >= 0 and last[freed] <= i:
                continue  # the last-lister check: nobody after i can take the slot
            if i + 1 == n:  # a leaf: every option that needs a repair here was cut above
                live.append((j, rank, None))
                continue
            if j >= 0:  # the child's key is taken after i's decision
                occ[j] += 1
            key = reader(occ)
            if j >= 0:
                occ[j] -= 1
            if key in states:
                child = states[key]
            else:
                fresh = cover
                if repair:
                    fresh = cover.copy()
                    if fills:  # a slot of j that i did not cover disappears
                        fresh[fresh.index(j, i + 1)] = -1
                    if freed >= 0 and not _augment(acc_h, freed, i + 1, fresh):
                        fresh = None
                child = states[key] = None if fresh is None else [None, fresh, slack - (not fills)]
            if child is not None:
                live.append((j, rank, child))
        state[0], state[1] = live, None
        return live


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

    Raises BudgetExceeded once the backtracking search has entered more
    than node_budget partial assignments; that signals the instance is too
    large for exhaustive treatment.  A node_budget that is not an int >= 0
    raises ValueError at the call, before anything is yielded.
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


def _brute(instance: Instance, node_budget: int, kind: ObjectiveKind) -> SolveResult:
    """The `kind` optimum of `_brute_optima`, leaving the other one on the instance.

    The optimum not asked for is the instance's spare, kept in its
    `__dict__` as `_spare`.  Each call pops the spare.  If it is the
    objective asked for, the call returns it, and raises BudgetExceeded
    where its search took more nodes than the budget allows, as the search
    itself would have.  Otherwise the call searches and leaves its own
    spare.  So consecutive calls for the two objectives on one instance
    object cost one enumeration, and asking one objective twice costs two.
    """
    _limit(node_budget, "node_budget")
    spare = instance.__dict__.pop("_spare", None)
    if spare is not None and spare.objective_kind is kind:
        if spare.stats.nodes > node_budget:
            raise BudgetExceeded(node_budget)
        return spare
    ep, er = _brute_optima(instance, node_budget)
    result, instance.__dict__["_spare"] = (ep, er) if kind is ObjectiveKind.MIN_EP else (er, ep)
    return result


def brute_min_ep(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exhaustive minimum-envy-pair oracle; ties broken by enumeration order.

    Its enumeration scores both objectives, and a `brute_min_er` call on
    the same instance object that comes next takes the Min-ER optimum
    without searching; see `_brute`.  Results, node counts and budget
    errors are those of a search of its own.
    """
    return _brute(instance, node_budget, ObjectiveKind.MIN_EP)


def brute_min_er(instance: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> SolveResult:
    """Exhaustive minimum-envy-resident oracle; ties broken by enumeration order.

    Its enumeration scores both objectives, and a `brute_min_ep` call on
    the same instance object that comes next takes the Min-EP optimum
    without searching; see `_brute`.  Results, node counts and budget
    errors are those of a search of its own.
    """
    return _brute(instance, node_budget, ObjectiveKind.MIN_ER)


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


def _candidates(instance: Instance) -> list[tuple[int, int, int, int]]:
    """The pairs an optimal winner may delete, in edge order, each with the pairs it forces.

    An entry is (resident, hospital, bit, forced), sorted by resident and
    hospital index, which is edge order; bit is 1 << the pair's position on
    the resident's list, the bit that bans it.  A pair (r, h) is a
    candidate when h has a positive lower quota and ranks some resident
    below r.  In a tight market (sum(low) = n) every feasible matching fills
    each hospital to exactly its lower quota and seats every resident at a
    hospital with a positive one, so two more rules apply (see `min_ep_exact`):

    * r envies no hospital it ranks after all of those, so (r, h) must come
      before the last of them on r's list;
    * when low[h] == 1, the pairs (r', h) where h ranks r' above r and h is
      the first of those on the list of r' are forced by (r, h).  They are
      candidates, and `forced` is the mask of their candidate indices, 0
      for a pair that forces none.  When such an r' has no other hospital
      with a positive lower quota, it sits at h in every feasible matching,
      so r envies h in none, and (r, h) is dropped.  The forced sets nest
      down h's list, so one running mask walked down it builds them all.
    """
    options, acc_h, low = instance._options, instance._acc_h, instance._low
    # (r, h) is a candidate when r's rank at h is below bound[h] and its
    # position on r's list below ends[r].
    bound = [len(listed) - 1 if q else 0 for listed, q in zip(acc_h, low)]
    ends = list(map(len, options))
    firsts = {}  # h -> the residents whose first such hospital is h, with another after it
    if sum(low) == len(options):
        for r, prefs in enumerate(options):
            # the first and the last positions of hospitals with a positive lower quota
            end = len(prefs) - 1
            while end >= 0 and not low[prefs[end][0]]:
                end -= 1
            ends[r] = end
            first = 0
            while first < end and not low[prefs[first][0]]:
                first += 1
            if end >= 0:
                h, rank = prefs[first]
                if low[h] == 1:
                    if first == end:  # r sits at h in every feasible matching
                        bound[h] = min(bound[h], rank)
                    else:
                        firsts.setdefault(h, set()).add(r)
    candidates = [(r, h, 1 << at, 0) for r, prefs in enumerate(options)
                  for at, (h, rank) in enumerate(prefs) if at < ends[r] and rank < bound[h]]
    candidates.sort()
    if firsts:
        index = {(r, h): i for i, (r, h, _, _) in enumerate(candidates)}
    # One walk down each such h's list; `mask` holds the forcing residents above.
    # Above bound[h] each is a candidate (its first such position before its
    # last), and from bound[h] on no pair is one, so the walk needs no stop.
    for h, forcing in firsts.items():
        mask = 0
        for r in acc_h[h]:
            i = index.get((r, h))
            if i is None:
                continue
            if mask:
                candidates[i] = candidates[i][:3] + (mask,)
            if r in forcing:
                mask |= 1 << i
    return candidates


def _extend_guess(
    candidates: list[tuple[int, int, int, int]],
    banned: list[int],
    prefix: _Run,
    cursor: _Run,
    start: int,
    need: int,
    chosen: int,
    owed: int,
) -> _Run | None:
    """Add to the guess the first `need` candidates from `start` on that pass Yokoi's test.

    The guess is `banned`: per-resident masks of list positions, a bit for
    each deleted pair.  Candidates are `_candidates`' entries, in edge
    order, so their residents never decrease, and sets of them are tried in
    lexicographic order.  `chosen` is the guess as a mask of candidate
    indices, all before `start`, and `owed` the mask of the candidate
    indices that the guess's pairs force and it does not hold yet, all from
    `start` on.  A candidate is skipped when an earlier pair it forces is
    not in `chosen`, or when it would leave more owed than the `need` - 1
    pairs still to come, and the loop ends at the first owed index, for a
    guess that passes it can never hold it.
    `prefix` is the guess's run, admitted to the end: it failed, and each
    pair still to come lowers its fallen count by at most one, so a
    candidate's run may leave `room` = n - sum(low) + need - 1 fallen and
    no more.  A never-held candidate's run is the prefix's, so it is
    skipped when the prefix leaves more.
    `cursor` belongs to this call: a run at the lower quotas with the stop
    n - sum(low), admitted up to some resident no later than
    `candidates[start]`'s.  Before each candidate of resident r that is not
    skipped, the cursor is admitted up to r under the prefix's bans, and
    the call returns once it stops: a resident that fell before r entered
    stays unmatched whatever is deleted at r or later, so every guess left
    fails.  A held candidate's run is a copy of the cursor with the limit
    `room`, given the new ban and admitted from r on: the run from scratch
    step for step, since the state before r enters does not depend on bans
    at r or later.  If it stops, the candidate is skipped with every
    extension; if it finishes, it is the prefix its extensions read.
    Returns the winning run, with `banned` left holding the winner, or None
    with `banned` as it was.
    """
    n = len(banned)
    room = cursor.limit + need - 1
    stop = len(candidates) - need + 1
    if owed:
        stop = min(stop, (owed & -owed).bit_length())
    for i in range(start, stop):
        r, _, bit, forced = candidates[i]
        held = prefix.taken[r] & bit
        if not held and prefix.fallen > room:
            continue  # the never-held rule: the prefix's run, too many seats short
        if forced and forced & ~chosen & ((1 << i) - 1):
            continue  # a forced pair before i is not in the guess
        owes = owed | forced
        if owes:
            owes &= -(2 << i)  # what is owed after i
            if owes.bit_count() >= need:
                continue  # more forced pairs than the guess has room for
        if cursor.entered < r and not cursor.admit(banned, r):
            return None
        banned[r] |= bit
        run = prefix
        if held:  # the prefix's run, resumed at r with the pair deleted
            run = cursor.copy(room)
            # At the last pair room is n - sum(low), so a run that finishes wins.
            if run.admit(banned, n) and need == 1:
                return run
        if need > 1 and run.fallen <= room:  # a stopped run's count is past its limit
            found = _extend_guess(candidates, banned, run, cursor.copy(cursor.limit),
                                  i + 1, need - 1, chosen | 1 << i, owes)
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
    optimal level.  The objective is that level, not a recount: the winning
    matching M is envy-free once the guess is deleted, so the guess holds
    every envy pair of M; those pairs are candidates (below), so deleting
    exactly them wins at level |E(M)|; and no lower level won, so |E(M)|
    is the level.

    A guess is only its bans: per-resident masks of list positions, which
    deferred acceptance skips; no trimmed instance is built, and the winner
    is read off the masks in edge order.  Four rules settle most guesses
    without running deferred acceptance, and none changes the order of the
    guesses left or the result:

    * Candidate pairs.  A winning guess at the optimal level is exactly the
      set of envy pairs of the matching it yields (a smaller set would win a
      level earlier), so it holds only pairs (r, h) where h has a positive
      lower quota and ranks some resident below r.  In a tight market, where
      sum(low) = n, every feasible matching fills each hospital to exactly
      its lower quota and seats every resident, so r sits at a hospital with
      a positive lower quota, and envies h only when such a hospital comes
      after h on r's list; pairs with none after h are dropped too.  Only
      subsets of these candidates (`_candidates`) are tried.
    * Forced pairs.  In a tight market, take a candidate (r, h) with
      low[h] == 1, and a resident r' that h ranks above r and whose first
      hospital with a positive lower quota is h.  If r envies h in a
      feasible matching, h holds one resident, worse than r, so r' is not
      at h; r' sits at a hospital with a positive lower quota, so after h
      on its list; so r' envies h too.  Every envy set that holds (r, h)
      therefore holds (r', h), and a guess that holds (r, h) without it is
      no winner: it is skipped, with every guess that extends it, and so is
      one whose pairs force more than it has room for.  When r' has no
      other hospital with a positive lower quota, r' sits at h in every
      feasible matching, r envies h in none, and (r, h) is no candidate.
    * Empty seats.  A run at the lower quotas seats n - fallen residents
      and wins when it fills all sum(low) seats.  Deleting one pair (r, h)
      changes the seats filled by at most one: let r enter last; its one
      displacement chain ends in a seat taken or a resident falling off,
      so the instance seats 0 or 1 more than it does without r, and so
      does the instance with (r, h) deleted, which without r is the same
      instance.  So a guess whose run leaves d seats empty needs at least
      d more pairs, and the first level tried is the count the root run
      leaves empty.
    * Never-held pairs.  Guesses are extended one pair at a time, each
      prefix keeping, per resident, the mask of list positions whose
      hospitals held it in the prefix's run; a pair's bit there is the bit
      that bans it.  If h never held r there, r either never reached h or
      was refused on the spot, which moves only r's pointer, exactly as
      deleting (r, h) does.  So deleting (r, h) as well repeats that run
      step for step and leaves the prefix's seats empty; it is reused.

    Each run gets the limit its use allows.  The root (`yokoi_envy_free`'s
    run) gets n and goes to the end, for its fallen count sets the first
    level; a level_cap below that level raises at once.  A guess's run
    with need - 1 pairs still to come gets n - sum(low) + need - 1: if it
    stops, no extension of the guess wins; if it finishes, it is the
    prefix run its extensions read, for the never-held rule and the bound.
    The guesses' runs resume a run rather than start one (`_extend_guess`):
    residents enter deferred acceptance in index order, and the state
    before resident r enters does not depend on bans at r or later, so a
    guess's run copies a cursor, the prefix's bans admitted up to the
    banned pair's resident, and goes on from there.  A cursor gets
    n - sum(low): a resident that falls before r enters stays unmatched
    whatever is deleted at r or later, so once the cursor stops every guess
    left in that step fails.  None of this changes a result: the copy is
    the run from scratch step for step.  No run outlives its level, and one
    `banned` list serves the root and every level, for a level that fails
    clears every bit it set.

    `guesses_examined` counts guesses in the paper's order, by size and
    then lexicographically over all acceptable pairs, up to and including
    the winner, whether or not deferred acceptance ran on them.

    Raises Infeasible when no feasible matching exists at all,
    LevelCapExceeded when level_cap is given and exhausted, and ValueError
    when level_cap is neither None nor an int >= 0.
    """
    if level_cap is not None:
        _limit(level_cap, "level_cap")
    if not exists_feasible(instance):
        raise Infeasible("no feasible matching exists")
    low, n = instance._low, len(instance._options)
    n_edges = len(instance.edges)
    candidates = _candidates(instance)
    slack = n - sum(low)  # the residents a run that fills every seat leaves unmatched
    banned = [0] * n  # the guess; a failed level clears every bit it set
    root = _Run(instance, low, n)  # yokoi_envy_free's run, taken to the end
    root.admit(banned, n)
    level = root.fallen - slack  # the seats it leaves empty: no smaller guess wins
    won = None if level else root
    while won is None:  # a feasible instance wins at its optimum, at most n_edges
        if level_cap is not None and level > level_cap:
            raise LevelCapExceeded(level_cap, sum(comb(n_edges, j) for j in range(level_cap + 1)))
        won = _extend_guess(candidates, banned, root, _Run(instance, low, slack), 0, level, 0, 0)
        if won is None:
            level += 1
    residents, hospitals = instance.residents, instance.hospitals
    guess = tuple((residents[r], hospitals[h])
                  for r, h, bit, _ in candidates if banned[r] & bit)
    return SolveResult(
        matching=_matching(instance, won.choice()),
        objective=level,
        objective_kind=ObjectiveKind.MIN_EP,
        stats=SolveStats(
            guesses_examined=_paper_position(n_edges, [instance.edges.index(p) for p in guess]),
            level=level,
            guess=guess,
        ),
    )
