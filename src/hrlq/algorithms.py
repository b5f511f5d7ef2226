"""Solvers: deferred acceptance, envy-free decision, exact and brute-force envy minimization.

The exact minimum-envy-pair solver deletes guessed edge sets of growing size
and asks the envy-free decision procedure whether the trimmed instance admits
an envy-free matching that fills every lower quota; the first success is
optimal.  The brute-force oracles enumerate every feasible matching and are
the independent cross-check for the exact route.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterator

from .core import Instance, Matching, Pair, _envy


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


@dataclass(frozen=True)
class SolveStats:
    """Search statistics.

    guesses_examined  min_ep_exact: edge sets deleted and tried; 0 elsewhere
    level             min_ep_exact: size of the winning guess; 0 elsewhere
    nodes             brute_*: backtracking states visited; 0 elsewhere
    guess             min_ep_exact: the winning deleted pairs; () elsewhere
    """

    guesses_examined: int = 0
    level: int = 0
    nodes: int = 0
    guess: tuple[Pair, ...] = ()


@dataclass(frozen=True)
class SolveResult:
    matching: Matching
    objective: int
    objective_kind: ObjectiveKind
    stats: SolveStats


def _matching(instance: Instance, choice: list[int]) -> Matching:
    """The Matching for a hospital index per resident (-1 for unmatched)."""
    residents, hospitals = instance.residents, instance.hospitals
    return Matching({residents[r]: hospitals[h] for r, h in enumerate(choice) if h >= 0})


def _deferred_acceptance(
    instance: Instance, caps: tuple[int, ...], dropped: Collection[tuple[int, int]] = ()
) -> list[int]:
    """Resident-proposing DA on the index tables: each resident's hospital index, or -1.

    Pairs in `dropped` count as deleted from both preference lists.
    """
    acc, rank_h = instance._acc, instance._rank_h
    nxt = [0] * len(acc)
    choice = [-1] * len(acc)
    held: list[list[int]] = [[] for _ in caps]
    free = deque(range(len(acc)))
    while free:
        r = free.popleft()
        prefs = acc[r]
        while nxt[r] < len(prefs):
            h = prefs[nxt[r]]
            nxt[r] += 1
            if caps[h] == 0 or (dropped and (r, h) in dropped):
                continue
            occupants = held[h]
            if len(occupants) < caps[h]:
                occupants.append(r)
                choice[r] = h
                break
            worst = max(occupants, key=rank_h[h].__getitem__)
            if rank_h[h][r] < rank_h[h][worst]:
                occupants.remove(worst)
                occupants.append(r)
                choice[worst], choice[r] = -1, h
                free.append(worst)
                break
        # falling through the list leaves r unmatched
    return choice


def _envy_free(instance: Instance, dropped: Collection[tuple[int, int]] = ()) -> list[int] | None:
    """Yokoi's test: DA capped at the lower quotas must fill every one of them."""
    choice = _deferred_acceptance(instance, instance._low, dropped)
    return choice if sum(h >= 0 for h in choice) == sum(instance._low) else None


def deferred_acceptance(instance: Instance) -> Matching:
    """Resident-proposing deferred acceptance against the upper quotas.

    Lower quotas are ignored.  Residents propose in index order, hospitals
    reject by preference only; the result is the unique resident-optimal
    stable matching for the capacities, so it has no blocking pairs.
    """
    return _matching(instance, _deferred_acceptance(instance, instance._up))


def reduced_capacity_instance(instance: Instance) -> Instance:
    """The companion instance whose upper quotas are the original lower quotas.

    Envy-free matchings that fill every lower quota correspond to stable
    matchings of this instance that fill every hospital.
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
    choice = _envy_free(instance)
    return None if choice is None else _matching(instance, choice)


class _FeasibleSearch:
    """Backtracking enumeration of feasible matchings.

    Residents are assigned in index order, each to an acceptable hospital
    with remaining capacity (preference order) or left unmatched.  A branch
    survives only while the remaining residents can still cover the
    remaining lower-quota demand; that cover is maintained incrementally and
    repaired with single augmenting paths, so dead branches are cut at the
    node where they die.
    """

    def __init__(self, instance: Instance, node_budget: int):
        self.node_budget = node_budget
        self.nodes = 0
        self.acc, self.acc_h = instance._acc, instance._acc_h
        self.low, self.up = instance._low, instance._up
        self.n_res = len(self.acc)
        self.n_hosp = len(self.acc_h)
        self.occ = [0] * self.n_hosp
        self.choice = [-1] * self.n_res

    def initial_cover(self) -> list[int] | None:
        """Cover every lower-quota slot with a distinct resident, or report impossibility."""
        cover = [-1] * self.n_res
        for j in range(self.n_hosp):
            for _ in range(self.low[j]):
                if not self._augment(j, 0, cover, set()):
                    return None
        return cover

    def _augment(self, hospital: int, start: int, cover: list[int], visited: set[int]) -> bool:
        for r in self.acc_h[hospital]:
            if r < start or r in visited:
                continue
            visited.add(r)
            if cover[r] == -1 or self._augment(cover[r], start, cover, visited):
                cover[r] = hospital
                return True
        return False

    def _child_cover(self, i: int, j: int, cover: list[int]) -> list[int] | None:
        """Cover for the state after assigning resident i to hospital j (or -1)."""
        freed = cover[i]
        child = cover.copy()
        child[i] = -1
        if j >= 0 and self.occ[j] < self.low[j]:
            # One demand slot of j disappears with this assignment.
            if freed == j:
                freed = -1
            else:
                for r in range(i + 1, self.n_res):
                    if child[r] == j:
                        child[r] = -1
                        break
        if freed >= 0 and not self._augment(freed, i + 1, child, set()):
            return None
        return child

    def run(self, i: int, cover: list[int]) -> Iterator[list[int]]:
        """Yield the live choice vector at each feasible leaf; copy it to keep it."""
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceeded(self.node_budget)
        if i == self.n_res:
            yield self.choice
            return
        for j in self.acc[i]:
            if self.occ[j] >= self.up[j]:
                continue
            child = self._child_cover(i, j, cover)
            if child is None:
                continue
            self.choice[i] = j
            self.occ[j] += 1
            yield from self.run(i + 1, child)
            self.occ[j] -= 1
            self.choice[i] = -1
        child = self._child_cover(i, -1, cover)
        if child is not None:
            yield from self.run(i + 1, child)


def exists_feasible(instance: Instance) -> bool:
    """True iff some matching satisfies every quota interval.

    Decided by matching residents against one demand slot per unit of lower
    quota; surplus residents may stay unmatched, so saturating the demand
    slots is both necessary and sufficient.
    """
    return _FeasibleSearch(instance, 0).initial_cover() is not None


def enumerate_feasible(instance: Instance, node_budget: int = 10**7) -> Iterator[Matching]:
    """Yield every feasible matching exactly once, in deterministic order.

    Raises BudgetExceeded once the backtracking search has visited
    node_budget states; that signals the instance is too large for
    exhaustive treatment.
    """
    search = _FeasibleSearch(instance, node_budget)
    cover = search.initial_cover()
    if cover is None:
        return
    for choice in search.run(0, cover):
        yield _matching(instance, choice)


def _brute_optima(instance: Instance, node_budget: int) -> tuple[SolveResult, SolveResult]:
    """Minimum-envy-pair and minimum-envy-resident matchings from one enumeration.

    Each objective keeps the first strict minimum in enumeration order.
    """
    search = _FeasibleSearch(instance, node_budget)
    cover = search.initial_cover()
    if cover is None:
        raise Infeasible("no feasible matching exists")
    best_ep = best_er = None
    ep_obj = er_obj = 0
    for choice in search.run(0, cover):
        pairs = _envy(instance, choice)
        if best_ep is None or len(pairs) < ep_obj:
            best_ep, ep_obj = _matching(instance, choice), len(pairs)
        n_residents = len({r for r, _ in pairs})
        if best_er is None or n_residents < er_obj:
            best_er, er_obj = _matching(instance, choice), n_residents
    if best_ep is None:
        raise Infeasible("no feasible matching exists")
    stats = SolveStats(nodes=search.nodes)
    return (
        SolveResult(best_ep, ep_obj, ObjectiveKind.MIN_EP, stats),
        SolveResult(best_er, er_obj, ObjectiveKind.MIN_ER, stats),
    )


def brute_min_ep(instance: Instance, node_budget: int = 10**7) -> SolveResult:
    """Exhaustive minimum-envy-pair oracle; ties broken by enumeration order."""
    return _brute_optima(instance, node_budget)[0]


def brute_min_er(instance: Instance, node_budget: int = 10**7) -> SolveResult:
    """Exhaustive minimum-envy-resident oracle; ties broken by enumeration order."""
    return _brute_optima(instance, node_budget)[1]


def min_ep_exact(instance: Instance, level_cap: int | None = None) -> SolveResult:
    """Feasible matching with the minimum number of envy-pairs.

    Level k enumerates every k-subset of the acceptable pairs in
    lexicographic order by edge index, deletes it, and runs the envy-free
    decision procedure on the trimmed instance.  The first success is
    reported; its guess set is therefore the lexicographically smallest
    winner at the optimal level.  Levels start at 0, so the reported
    objective is tight.  A guess is passed to deferred acceptance as a set
    of dropped pairs; no trimmed instance is built.

    Raises Infeasible when no feasible matching exists at all, and
    LevelCapExceeded when level_cap is given and exhausted.
    """
    if _FeasibleSearch(instance, 0).initial_cover() is None:
        raise Infeasible("no feasible matching exists")
    n_edges = len(instance._edges)
    max_level = n_edges if level_cap is None else min(level_cap, n_edges)
    guesses = 0
    for k in range(max_level + 1):
        for combo in itertools.combinations(range(n_edges), k):
            guesses += 1
            choice = _envy_free(instance, {instance._edges[e] for e in combo})
            if choice is not None:
                return SolveResult(
                    matching=_matching(instance, choice),
                    objective=len(_envy(instance, choice)),
                    objective_kind=ObjectiveKind.MIN_EP,
                    stats=SolveStats(
                        guesses_examined=guesses,
                        level=k,
                        guess=tuple(instance.edges[e] for e in combo),
                    ),
                )
    # Unreachable without a level cap: a feasible instance always succeeds
    # once the guess covers an optimal matching's envy-pairs.
    raise LevelCapExceeded(max_level, guesses)
