"""Deferred acceptance, the envy-free decision, exact and brute-force solvers."""

import gc
import hashlib
import itertools
import random
import re
import tracemalloc
import warnings
import weakref

import pytest

import hrlq
from helpers import (
    chain_instance,
    check_leaf_state,
    check_resumed_runs,
    check_tables_by_name,
    choice_pairs,
    exhaustive_two_by_two,
    full_run,
    has_envy_free_feasible,
    instance_a,
    instance_b,
    naive_first_minima,
    paper_min_ep,
    product_space_choices,
    random_feasible_instances,
    random_instance,
    random_tight_instance,
    textbook_da,
    wide_list_instance,
)

IA = instance_a()
IB = instance_b()


def _banned_masks(inst, pairs):
    """Per resident index, the bitmask of the list positions of its named `pairs`."""
    banned = [0] * len(inst.residents)
    for r, h in pairs:
        banned[inst.resident_index[r]] |= 1 << inst.resident_prefs[r].index(h)
    return banned


class TestDeferredAcceptance:
    def test_displacement(self):
        inst = hrlq.validate_instance(
            ["r1", "r2"], ["h1", "h2"],
            {"r1": ["h1", "h2"], "r2": ["h1", "h2"]},
            {"h1": ["r2", "r1"], "h2": ["r1", "r2"]},
            {"h1": (0, 1), "h2": (0, 1)},
        )
        m = hrlq.deferred_acceptance(inst)
        assert m.assignment == {"r1": "h2", "r2": "h1"}

    def test_single_pair(self):
        inst = hrlq.validate_instance(
            ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (0, 1)}
        )
        assert hrlq.deferred_acceptance(inst).assignment == {"r": "h"}

    def test_zero_capacity_hospital_passes_proposers_through(self):
        inst = hrlq.validate_instance(
            ["r"], ["h1", "h2"],
            {"r": ["h1", "h2"]},
            {"h1": ["r"], "h2": ["r"]},
            {"h1": (0, 0), "h2": (0, 1)},
        )
        assert hrlq.deferred_acceptance(inst).assignment == {"r": "h2"}

    def test_output_is_stable(self):
        rng = random.Random(11)
        for _ in range(300):
            inst = random_instance(rng)
            m = hrlq.deferred_acceptance(inst)
            assert hrlq.blocking_pairs(inst, m) == ()


class TestKernelAgainstTextbook:
    """The DA kernel and its public wrappers against helpers.textbook_da."""

    FAMILY = [*exhaustive_two_by_two(), *random_feasible_instances(31, 150),
              *(random_instance(random.Random(32 + i), max_upper=3) for i in range(150))]

    @staticmethod
    def quotas(inst, bound):
        return {h: quota[bound] for h, quota in inst.quotas.items()}

    def test_public_wrappers(self):
        for inst in self.FAMILY:
            upper = textbook_da(inst, self.quotas(inst, 1))
            assert dict(hrlq.deferred_acceptance(inst).assignment) == upper
            lower_caps = self.quotas(inst, 0)
            lower = textbook_da(inst, lower_caps)
            want = lower if len(lower) == sum(lower_caps.values()) else None
            got = hrlq.yokoi_envy_free(inst)
            assert (None if got is None else dict(got.assignment)) == want

    def test_kernel_with_dropped_pairs(self):
        rng = random.Random(33)
        for inst in self.FAMILY:
            for bound in (0, 1):
                caps = self.quotas(inst, bound)
                cap_vector = tuple(caps[h] for h in inst.hospitals)
                for _ in range(3):
                    dropped = {pair for pair in inst.edges if rng.random() < 0.3}
                    run = full_run(inst, cap_vector, _banned_masks(inst, dropped))
                    choice = run.choice()
                    named = {inst.residents[r]: inst.hospitals[h]
                             for r, h in enumerate(choice) if h >= 0}
                    assert named == textbook_da(inst, caps, dropped)

    def test_resumed_runs_equal_full_runs(self):
        # min_ep_exact copies a run at the banned pair's resident and resumes it there.
        rng = random.Random(36)
        runs = sum(check_resumed_runs(inst, rng) for inst in self.FAMILY[-300:])
        assert runs > 2000

    def test_one_more_ban_moves_the_seats_filled_by_at_most_one(self):
        # min_ep_exact's empty-seat bound: deleting one more pair changes the
        # number of residents a full run seats, n - fallen, by at most one, at
        # the lower and at the upper quotas.  Moves of both signs occur, so a
        # bound one tighter would fail here.
        rng = random.Random(37)
        moves = {}  # seats after one more ban minus seats before -> how often
        for inst in self.FAMILY[-300:]:
            n = len(inst.residents)
            for caps in (inst._low, inst._up):
                for _ in range(2):
                    dropped = {pair for pair in inst.edges if rng.random() < 0.25}
                    seated = n - full_run(inst, caps, _banned_masks(inst, dropped)).fallen
                    for pair in inst.edges:
                        if pair not in dropped:
                            run = full_run(inst, caps, _banned_masks(inst, dropped | {pair}))
                            move = n - run.fallen - seated
                            moves[move] = moves.get(move, 0) + 1
        assert moves.keys() == {-1, 0, 1}

    def test_never_held_pair_repeats_the_run(self):
        # The lemma min_ep_exact's reuse rule rests on: deleting a pair whose
        # hospital never held the resident gives back the identical run, and
        # a run stopped past n - sum(low) fallen residents stops the same.
        # Each run's `entered` and `fallen` are checked on their own too, so
        # the comparison of a stopped run's two fields means something.
        rng = random.Random(34)
        refused = 0  # never-held pairs r proposed to and was refused at: what the rule adds
        stopped = 0  # runs at the lower quotas that stopped
        family = random_feasible_instances(35, 120, max_residents=8, max_hospitals=5, max_upper=3)

        def run_with(inst, caps, limit, banned):
            n = len(inst.residents)
            run = hrlq.algorithms._Run(inst, caps, limit)
            return run.admit(banned, n), run

        for inst in family:
            n = len(inst.residents)
            # Full runs at the lower and the upper quotas, and runs at the
            # lower quotas that stop as min_ep_exact's do.
            for caps, limit in ((inst._low, n), (inst._up, n), (inst._low, n - sum(inst._low))):
                for _ in range(3):
                    dropped = {pair for pair in inst.edges if rng.random() < 0.25}
                    banned = _banned_masks(inst, dropped)
                    verdict, run = run_with(inst, caps, limit, banned)
                    choice, taken = run.choice(), run.taken
                    state = (verdict, choice, taken, run.entered, run.fallen)
                    if verdict:
                        assert (run.entered, run.fallen) == (n, choice.count(-1))
                    else:
                        # Stopped in the chain that resident `entered` set off,
                        # when `fallen` passed the limit; only the resident that
                        # fell was in flight.
                        stopped += 1
                        assert run.fallen == limit + 1
                        assert choice.count(-1) == run.fallen + n - 1 - run.entered
                        before = hrlq.algorithms._Run(inst, caps, limit)
                        assert before.admit(banned, run.entered)
                        assert not before.admit(banned, run.entered + 1)
                    for r, h in inst.edges:
                        i, j = inst.resident_index[r], inst.hospital_index[h]
                        at = inst.resident_prefs[r].index(h)
                        if (r, h) in dropped or taken[i] >> at & 1:
                            continue
                        more_bans = _banned_masks(inst, dropped | {(r, h)})
                        again, more = run_with(inst, caps, limit, more_bans)
                        assert (again, more.choice(), more.taken,
                                more.entered, more.fallen) == state
                        if caps[j] and (choice[i] < 0 or at < taken[i].bit_length() - 1):
                            refused += 1
        assert refused > 0
        assert stopped > 0


class TestWideMasks:
    """`_Run.held` where a hospital's list is longer than 64, so its masks span several digits."""

    FAMILY = [wide_list_instance(random.Random(f"wide:{i}")) for i in range(12)]

    @staticmethod
    def check_masks(inst, caps, run) -> list[int]:
        """Check the run's masks against its derived choice and caps; return that choice."""
        choice = run.choice()
        for h, ranks in enumerate(run.held):
            assert ranks.bit_count() <= caps[h]
            listed = inst.hospital_prefs[inst.hospitals[h]]
            seated = {listed.index(inst.residents[r]) for r, j in enumerate(choice) if j == h}
            assert {k for k in range(ranks.bit_length()) if ranks >> k & 1} == seated, h
        return choice

    def test_masks_at_every_admit_boundary(self):
        rng = random.Random(37)
        wide = stopped = 0  # boundaries where some mask is past 64 bits; runs that stopped
        for inst in self.FAMILY:
            n = len(inst.residents)
            assert max(map(len, inst.hospital_prefs.values())) > 64
            for bound, caps in enumerate((inst._low, inst._up)):
                named_caps = {h: quota[bound] for h, quota in inst.quotas.items()}
                # The lower quotas also with min_ep_exact's stop.
                limits = (n, n - sum(caps)) if bound == 0 else (n,)
                for limit in limits:
                    for _ in range(2):
                        dropped = {pair for pair in inst.edges if rng.random() < 0.3}
                        banned = _banned_masks(inst, dropped)
                        run = hrlq.algorithms._Run(inst, caps, limit)
                        for stop in range(1, n + 1):
                            verdict = run.admit(banned, stop)
                            choice = self.check_masks(inst, caps, run)
                            wide += max(run.held).bit_length() > 64
                            if not verdict:
                                stopped += 1
                                break
                        else:
                            named = {inst.residents[r]: inst.hospitals[h]
                                     for r, h in enumerate(choice) if h >= 0}
                            assert named == textbook_da(inst, named_caps, dropped)
        assert wide > 0
        assert stopped > 0


class TestNegativeLimits:
    @pytest.mark.parametrize("call", [
        lambda: hrlq.min_ep_exact(IB, level_cap=-1),
        lambda: hrlq.enumerate_feasible(IB, node_budget=-5),
        lambda: hrlq.brute_min_ep(IB, node_budget=-1),
        lambda: hrlq.brute_min_er(IB, node_budget=-1),
    ], ids=["min_ep_exact", "enumerate_feasible", "brute_min_ep", "brute_min_er"])
    def test_negative_cap_or_budget_is_value_error(self, call):
        # IB is envy-free, so a cap below level 0 must not return its level-0
        # result; enumerate_feasible refuses at the call, not at the first item.
        with pytest.raises(ValueError, match="must be non-negative"):
            call()


class TestLimitsArePlainInts:
    @pytest.mark.parametrize("call, message", [
        (lambda: hrlq.min_ep_exact(IA, level_cap=0.5), "level_cap must be an int, got 0.5"),
        (lambda: hrlq.min_ep_exact(IA, level_cap=True), "level_cap must be an int, got True"),
        (lambda: hrlq.enumerate_feasible(IB, node_budget=1.5),
         "node_budget must be an int, got 1.5"),
        (lambda: hrlq.brute_min_ep(IB, node_budget="5"), "node_budget must be an int, got '5'"),
        (lambda: hrlq.brute_min_er(IB, node_budget=None), "node_budget must be an int, got None"),
    ], ids=["level_cap=0.5", "level_cap=True", "node_budget=1.5", "node_budget='5'",
            "node_budget=None"])
    def test_other_types_are_value_errors(self, call, message):
        # IA needs level 1, so a cap of 0.5 must not stand for 1 (True would).
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestYokoiEnvyFree:
    def test_instance_b_solved(self):
        m = hrlq.yokoi_envy_free(IB)
        assert m is not None
        assert m.assignment == {"r1": "h2"}

    def test_instance_a_has_none(self):
        assert hrlq.yokoi_envy_free(IA) is None

    def test_all_zero_lower_quotas_give_empty_matching(self):
        inst = hrlq.validate_instance(
            ["r1", "r2"], ["h1"],
            {"r1": ["h1"], "r2": ["h1"]},
            {"h1": ["r1", "r2"]},
            {"h1": (0, 2)},
        )
        m = hrlq.yokoi_envy_free(inst)
        assert m is not None and len(m) == 0

    def test_soundness_on_random_instances(self):
        rng = random.Random(12)
        for _ in range(300):
            inst = random_instance(rng)
            m = hrlq.yokoi_envy_free(inst)
            if m is not None:
                assert hrlq.is_feasible(inst, m)
                assert hrlq.is_envy_free(inst, m)

    def test_reduced_instance_capacities(self):
        reduced = hrlq.reduced_capacity_instance(IA)
        assert reduced.quotas == {"h1": (0, 1), "h2": (0, 1)}
        ib_reduced = hrlq.reduced_capacity_instance(IB)
        assert ib_reduced.quotas == {"h1": (0, 0), "h2": (0, 1)}


class TestExistsFeasible:
    def test_instance_a_feasible(self):
        assert hrlq.exists_feasible(IA)

    def test_demand_exceeds_residents(self):
        inst = hrlq.validate_instance(
            ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (2, 2)}
        )
        assert not hrlq.exists_feasible(inst)

    def test_unfillable_hospital(self):
        inst = hrlq.validate_instance(
            ["r"], ["h1", "h2"], {"r": ["h2"]}, {"h1": [], "h2": ["r"]},
            {"h1": (1, 1), "h2": (0, 1)},
        )
        assert not hrlq.exists_feasible(inst)

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(200):
            inst = random_instance(rng)
            any_feasible = next(iter(hrlq.enumerate_feasible(inst, 10**6)), None)
            assert hrlq.exists_feasible(inst) == (any_feasible is not None)


class TestEnumerateFeasible:
    def test_instance_a_has_exactly_one(self):
        found = list(hrlq.enumerate_feasible(IA))
        assert len(found) == 1
        assert found[0].assignment == {"r1": "h2", "r2": "h1"}

    def test_optional_pair_gives_two(self):
        inst = hrlq.validate_instance(
            ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (0, 1)}
        )
        found = list(hrlq.enumerate_feasible(inst))
        assert [m.assignment for m in found] == [{"r": "h"}, {}]

    def test_unfillable_lower_quota_gives_empty_stream(self):
        inst = hrlq.validate_instance(
            ["r"], ["h1", "h2"], {"r": ["h2"]}, {"h1": [], "h2": ["r"]},
            {"h1": (1, 1), "h2": (0, 1)},
        )
        assert list(hrlq.enumerate_feasible(inst)) == []

    def test_no_duplicates_and_all_feasible(self):
        rng = random.Random(14)
        for _ in range(100):
            inst = random_instance(rng, max_residents=5, max_hospitals=3)
            seen = set()
            for m in hrlq.enumerate_feasible(inst, 10**6):
                key = tuple(sorted(m.assignment.items()))
                assert key not in seen
                seen.add(key)
                assert hrlq.is_feasible(inst, m)

    def test_budget_exceeded(self):
        inst = hrlq.validate_instance(
            ["r1", "r2", "r3"], ["h1", "h2", "h3"],
            {r: ["h1", "h2", "h3"] for r in ["r1", "r2", "r3"]},
            {h: ["r1", "r2", "r3"] for h in ["h1", "h2", "h3"]},
            {h: (0, 1) for h in ["h1", "h2", "h3"]},
        )
        with pytest.raises(hrlq.BudgetExceeded):
            list(hrlq.enumerate_feasible(inst, node_budget=5))

    def test_complete_against_product_space_oracle(self):
        # Naive oracle: every assignment of residents to (acceptable hospital
        # or unmatched), filtered by the feasibility predicate.
        rng = random.Random(22)
        for _ in range(150):
            inst = random_instance(rng, max_residents=4, max_hospitals=3)
            options = [
                list(inst.resident_prefs[r]) + [None] for r in inst.residents
            ]
            naive = set()
            for combo in itertools.product(*options):
                pairs = [
                    (r, h) for r, h in zip(inst.residents, combo) if h is not None
                ]
                m = hrlq.make_matching(inst, pairs)
                if hrlq.is_feasible(inst, m):
                    naive.add(tuple(sorted(m.assignment.items())))
            fast = {
                tuple(sorted(m.assignment.items()))
                for m in hrlq.enumerate_feasible(inst, 10**6)
            }
            assert fast == naive


def _hand_built(resident_prefs: dict, hospital_prefs: dict, quotas: dict) -> hrlq.Instance:
    """Residents and hospitals in the order their lists are written."""
    return hrlq.validate_instance(
        list(resident_prefs), list(hospital_prefs), resident_prefs, hospital_prefs, quotas)


class TestEngineAgainstProductSpace:
    """The search against `itertools.product` over each resident's options, in order.

    Besides the seeded and exhaustive instances, the family holds
    hand-built ones that put the search's cuts and its shared states on
    their boundaries.
    """

    # r2 is the last resident to list hA.  Once r1 stays unmatched, r2
    # covers hA, so each of r2's options but hA dies: nobody after r2 can
    # take the slot over.  Those options lead to the same key (the
    # occupancy of hC, listed both up to r2 and after it) as r2's live
    # options after r1 took hA, a state known live; the last-lister check
    # must cut them before the state table is asked.
    LAST_LISTER = _hand_built(
        {"r1": ("hA",), "r2": ("hD", "hA", "hC"), "r3": ("hC",), "r4": ("hC",)},
        {"hA": ("r1", "r2"), "hC": ("r2", "r3", "r4"), "hD": ("r2",)},
        {"hA": (1, 1), "hC": (1, 1), "hD": (0, 1)},
    )
    # r2 lists hA after r1, but r2 is the only resident listing hB, so it
    # stays locked on hB and r1's option hD dies in the augmenting-path
    # search; r1 staying unmatched dies in a search of its own, for hD's
    # occupancy puts it in another state.  In the twin r3 lists hB too, so
    # r2 can move to hA and both options of r1 live.
    LOCKED = _hand_built(
        {"r1": ("hD", "hA"), "r2": ("hB", "hA"), "r3": ("hD",)},
        {"hA": ("r1", "r2"), "hB": ("r2",), "hD": ("r1", "r3")},
        {"hA": (1, 1), "hB": (1, 1), "hD": (0, 1)},
    )
    UNLOCKED = _hand_built(
        {"r1": ("hD", "hA"), "r2": ("hB", "hA"), "r3": ("hD", "hB")},
        {"hA": ("r1", "r2"), "hB": ("r2", "r3"), "hD": ("r1", "r3")},
        {"hA": (1, 1), "hB": (1, 1), "hD": (0, 1)},
    )
    # r1 and r2 fill h1 and one seat of h2, in either order, so r3 meets
    # the same state twice.  The first order's repair leaves r4 covering
    # h2's last seat, and r3's state is expanded with that cover; the
    # second path's own repair would leave r3 there, and it replays the
    # stored options instead.
    TWO_PATHS = _hand_built(
        {"r1": ("h1", "h2"), "r2": ("h1", "h2"), "r3": ("h2",), "r4": ("h1", "h2")},
        {"h1": ("r4", "r2", "r1"), "h2": ("r4", "r1", "r3", "r2")},
        {"h1": (1, 1), "h2": (2, 2)},
    )

    HAND_BUILT = {"LAST_LISTER": 7, "LOCKED": 2, "UNLOCKED": 5, "TWO_PATHS": 9}

    @classmethod
    def _family(cls):
        hand_built = [getattr(cls, name) for name in cls.HAND_BUILT]
        return [*random_feasible_instances(23, 62), *exhaustive_two_by_two(), *hand_built]

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_hand_built_leaf_counts(self, name):
        assert len(product_space_choices(getattr(self, name))) == self.HAND_BUILT[name]

    def test_enumeration_yields_product_space_in_order(self):
        for inst in self._family():
            want = [choice_pairs(inst, c) for c in product_space_choices(inst)]
            assert [m.pairs() for m in hrlq.enumerate_feasible(inst)] == want

    def test_brute_nodes_are_distinct_prefixes(self):
        # The search enters a partial assignment exactly when some feasible
        # leaf lies below it, so its nodes are the distinct prefixes of the leaves.
        for inst in self._family():
            choices = product_space_choices(inst)
            if not choices:
                continue
            prefixes = {c[:k] for c in choices for k in range(len(inst.residents) + 1)}
            for solve in (hrlq.brute_min_ep, hrlq.brute_min_er):
                assert solve(inst).stats.nodes == len(prefixes)


class TestBudgetSemantics:
    # 6 residents, 3 hospitals, everyone acceptable: 2,041 nodes, 1,140 leaves.
    INSTANCE = hrlq.validate_instance(
        [f"r{i}" for i in range(1, 7)], ["h1", "h2", "h3"],
        {f"r{i + 1}": tuple(f"h{(i + k) % 3 + 1}" for k in range(3)) for i in range(6)},
        {f"h{j + 1}": tuple(f"r{(2 * j + k) % 6 + 1}" for k in range(6)) for j in range(3)},
        {"h1": (1, 2), "h2": (0, 2), "h3": (2, 3)},
    )

    @pytest.mark.parametrize("budget, leaves", [(1, 0), (5, 0), (100, 51), (1000, 545)])
    def test_leaves_before_budget_exceeded(self, budget, leaves):
        inst = self.INSTANCE
        want = [choice_pairs(inst, c) for c in product_space_choices(inst)]
        search = hrlq.algorithms._FeasibleSearch(inst, budget)
        got = []
        with pytest.raises(hrlq.BudgetExceeded):
            for choice in search.leaves():
                got.append(hrlq.algorithms._matching(inst, choice).pairs())
        assert got == want[:leaves]
        assert search.nodes == budget + 1
        yielded = []
        with pytest.raises(hrlq.BudgetExceeded):
            for m in hrlq.enumerate_feasible(inst, budget):
                yielded.append(m.pairs())
        assert yielded == got

    def test_infeasible_enters_no_state(self):
        # The search settles feasibility before it counts the root, so an
        # infeasible instance is Infeasible even with no budget at all.
        inst = hrlq.validate_instance(["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (2, 2)})
        search = hrlq.algorithms._FeasibleSearch(inst, 0)
        assert list(search.leaves()) == []
        assert search.nodes == 0
        assert list(hrlq.enumerate_feasible(inst, 0)) == []
        for solve in (hrlq.brute_min_ep, hrlq.brute_min_er):
            with pytest.raises(hrlq.Infeasible):
                solve(inst, node_budget=0)


def _assert_first_naive_minima(inst: hrlq.Instance) -> None:
    """Each brute oracle returns its objective's first strict minimum, scored by the helpers."""
    best_ep, ep, best_er, er = naive_first_minima(inst)
    ep_result, er_result = hrlq.brute_min_ep(inst), hrlq.brute_min_er(inst)
    assert (ep_result.matching, ep_result.objective) == (best_ep, ep)
    assert (er_result.matching, er_result.objective) == (best_er, er)


def _reduction(kind: str, n: int, edges: list, k: int, length: int | None) -> hrlq.Instance:
    graph = hrlq.SourceGraph(n, edges, k)
    if kind == "clique":
        return hrlq.clique_to_min_er(graph, hrlq.CliqueReductionParams(length))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hrlq.SeparationBoundWarning)
        return hrlq.vc_to_min_ep(graph, hrlq.VCReductionParams(length))


_TRIANGLE = [(1, 2), (1, 3), (2, 3)]
_FOUR_CYCLE = [(1, 2), (1, 4), (2, 3), (3, 4)]
_K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
_C5 = [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


class TestReductionEnumeration:
    """The enumeration on reduction instances, where the search's cuts fire most.

    Recorded once: the number of feasible matchings, the brute oracle's
    nodes and the sha256 of the `enumerate_feasible` sequence (each
    matching's `repr(pairs())` and a newline).  A mismatch means the
    search's leaves, their order or its node count changed.
    """

    @pytest.mark.parametrize("source, leaves, nodes, digest", [
        (("vc", 3, _TRIANGLE, 1, None), 48, 1696,
         "2a4f17c6ab28298ba8d5bade7f637292e2c5d4e1f34eb22f99f430980d670202"),
        (("clique", 4, _FOUR_CYCLE, 3, None), 24, 545,
         "37fbca82bc918bf76de8e9d7e77fad27a9d36695ce2d01a45b7e57e1fc797ad8"),
        (("vc", 4, _K4, 2, 3), 1536, 18209,
         "9cfbc6614dca24a44db92c269f48e2b21a563c5a5f33080cee1d6b2eba65489d"),
        (("vc", 5, _C5, 2, 3), 3840, 44966,
         "8cbd3eed7444cb801c3f93635aaac63ed1476f4309291b78737537934008c523"),
    ])
    def test_pinned(self, source, leaves, nodes, digest):
        inst = _reduction(*source)
        sequence = hashlib.sha256()
        count = 0
        for m in hrlq.enumerate_feasible(inst):
            sequence.update(repr(m.pairs()).encode() + b"\n")
            count += 1
        assert (count, hrlq.brute_min_ep(inst).stats.nodes, sequence.hexdigest()) == (
            leaves, nodes, digest)


    # The four instances above, for the checks that are not pinned.
    SOURCES = {
        "triangle-k1-full": ("vc", 3, _TRIANGLE, 1, None),
        "four-cycle-k3-full": ("clique", 4, _FOUR_CYCLE, 3, None),
        "k4-k2-g3": ("vc", 4, _K4, 2, 3),
        "c5-k2-g3": ("vc", 5, _C5, 2, 3),
    }

    @pytest.mark.parametrize("name", SOURCES)
    def test_path_cut_and_leaf_score(self, name):
        inst = _reduction(*self.SOURCES[name])
        assert check_leaf_state(inst) == sum(1 for _ in hrlq.enumerate_feasible(inst))

    @pytest.mark.parametrize("name", SOURCES)
    def test_oracles_pick_the_first_naive_minimum(self, name):
        _assert_first_naive_minima(_reduction(*self.SOURCES[name]))

    @pytest.mark.parametrize("name", SOURCES)
    def test_compiled_tables_match_a_rebuild_by_name(self, name):
        check_tables_by_name(_reduction(*self.SOURCES[name]))


def _frontier_states(instance: hrlq.Instance, combos) -> tuple[list[list[str]], set]:
    """G_i by name for each level i, and the distinct (i, occupancy on G_i) of `combos`' prefixes.

    G_i holds the hospitals that a resident before i and a resident at or
    after i both list, in declaration order; `combos` give a hospital (or
    None) per resident, as `product_space_choices` does.
    """
    residents, prefs = instance.residents, instance.resident_prefs
    listers = {h: [k for k, r in enumerate(residents) if h in prefs[r]] for h in instance.hospitals}
    frontiers = [[h for h, ks in listers.items() if ks and ks[0] < i <= ks[-1]]
                 for i in range(len(residents))]
    states = set()
    for combo in combos:
        occ = dict.fromkeys(instance.hospitals, 0)
        for i, frontier in enumerate(frontiers):
            states.add((i, tuple(occ[h] for h in frontier)))
            if combo[i] is not None:
                occ[combo[i]] += 1
    return frontiers, states


class TestFrontierStates:
    """The search expands each (level, occupancy on G_i) state exactly once.

    The states are counted by name from the prefixes of the feasible
    matchings, so a key that merges two states with different futures
    (dropping a hospital from G_i) or splits one state (keeping an
    occupancy that no longer matters) shows as a missing or repeated entry.
    """

    @pytest.fixture
    def expand(self, monkeypatch):
        """A function that runs `brute_min_ep` and gives its expansions as (i, occupancy on G_i)."""
        expanded = []
        expand = hrlq.algorithms._FeasibleSearch._expand

        def spying(self, i, state):
            expanded.append((i, dict(zip(self.instance.hospitals, self.occ))))
            return expand(self, i, state)

        def run(inst, frontiers):
            expanded.clear()
            hrlq.brute_min_ep(inst)
            return [(i, tuple(occ[h] for h in frontiers[i])) for i, occ in expanded]

        monkeypatch.setattr(hrlq.algorithms._FeasibleSearch, "_expand", spying)
        return run

    # The four instances of TestReductionEnumeration, with their state
    # counts.  Their product spaces are far too large to list, so their
    # feasible matchings come from `enumerate_feasible`, whose sequence
    # `TestReductionEnumeration.test_pinned` pins.
    @pytest.mark.parametrize("name, count", [
        ("triangle-k1-full", 124), ("four-cycle-k3-full", 35), ("k4-k2-g3", 81), ("c5-k2-g3", 86),
    ])
    def test_reduction_instances(self, expand, name, count):
        inst = _reduction(*TestReductionEnumeration.SOURCES[name])
        combos = [tuple(map(m.assignment.get, inst.residents))
                  for m in hrlq.enumerate_feasible(inst)]
        frontiers, states = _frontier_states(inst, combos)
        expanded = expand(inst, frontiers)
        assert len(expanded) == count
        assert sorted(expanded) == sorted(states)

    def test_slack_family(self, expand):
        # Mostly optional hospitals, so G_i often holds a [0, u] hospital
        # whose upper quota, not its demand, tells two states apart.
        binding = 0
        for inst in random_feasible_instances(31, 60, max_hospitals=3, tight=0.2):
            combos = product_space_choices(inst)
            frontiers, states = _frontier_states(inst, combos)
            assert sorted(expand(inst, frontiers)) == sorted(states)
            binding += any(
                inst.quotas[h][0] == 0 and combo[:i].count(h) == inst.quotas[h][1]
                for combo in combos for i, r in enumerate(inst.residents)
                for h in inst.resident_prefs[r])
        assert binding > 10


class TestZeroResidents:
    """No residents: one feasible matching, the empty one, when no hospital needs anyone."""

    INSTANCES = [
        hrlq.validate_instance([], [], {}, {}, {}),
        hrlq.validate_instance([], ["h"], {}, {"h": []}, {"h": (0, 1)}),
    ]

    @pytest.mark.parametrize("inst", INSTANCES)
    def test_every_solver_returns_the_empty_matching(self, inst):
        assert [m.pairs() for m in hrlq.enumerate_feasible(inst)] == [()]
        for solve in (hrlq.brute_min_ep, hrlq.brute_min_er):
            result = solve(inst)
            assert (result.objective, result.matching.pairs(), result.stats.nodes) == (0, (), 1)
        result = hrlq.min_ep_exact(inst)
        assert (result.objective, result.matching.pairs()) == (0, ())
        assert result.stats.guesses_examined == 1
        assert hrlq.yokoi_envy_free(inst).pairs() == ()


class TestLongChains:
    """Recursion depth does not limit instance size, and per-node work and memory stay flat."""

    @pytest.mark.parametrize("links", [1200, 3000])
    def test_exists_feasible(self, links):
        assert hrlq.exists_feasible(chain_instance(links))
        assert hrlq.exists_feasible(chain_instance(links, open_end=0))

    @pytest.mark.parametrize("links", [1200, 3000])
    def test_min_ep_exact(self, links):
        # With the last hospital open the optimum is links - 1.  The guess
        # search recurses once per level and takes seconds already at 160
        # links, so at these sizes it is capped after level 0.
        with pytest.raises(hrlq.LevelCapExceeded):
            hrlq.min_ep_exact(chain_instance(links), level_cap=0)
        inst = chain_instance(links, open_end=0)
        result = hrlq.min_ep_exact(inst)
        assert result.objective == 0
        assert result.matching.pairs() == tuple((f"r{i}", f"h{i + 1}") for i in range(links))

    def test_enumeration_and_brute_oracles(self):
        inst = chain_instance(1200)
        forced = tuple((f"r{i}", f"h{i}") for i in range(1200))
        assert [m.pairs() for m in hrlq.enumerate_feasible(inst)] == [forced]
        for solve in (hrlq.brute_min_ep, hrlq.brute_min_er):
            result = solve(inst)
            assert result.objective == 1199
            assert result.matching.pairs() == forced
            assert result.stats.nodes == 1201

    def test_chain_repairs_no_cover(self, monkeypatch):
        # On a chain every option that frees a cover slot frees one that no
        # later resident lists, so the last-lister check cuts it before any
        # augmenting-path search.
        repairs = []
        augment = hrlq.algorithms._augment

        def counting(acc_h, hospital, start, cover):
            if start:  # the initial cover augments from resident 0
                repairs.append(hospital)
            return augment(acc_h, hospital, start, cover)

        monkeypatch.setattr(hrlq.algorithms, "_augment", counting)
        assert len(list(hrlq.enumerate_feasible(chain_instance(50)))) == 1
        assert repairs == []

    def test_chain_expands_one_state_per_level(self, monkeypatch):
        # On a chain G_i is {h_i}, and every live branch has h_i empty, so
        # each level has one state; every option that frees a cover slot is
        # cut by the last-lister check, so no cover is repaired.
        expanded, repairs = [], []
        expand, augment = hrlq.algorithms._FeasibleSearch._expand, hrlq.algorithms._augment

        def expanding(self, i, state):
            expanded.append(i)
            return expand(self, i, state)

        def repairing(acc_h, hospital, start, cover):
            if start:  # the initial cover augments from resident 0
                repairs.append(hospital)
            return augment(acc_h, hospital, start, cover)

        monkeypatch.setattr(hrlq.algorithms._FeasibleSearch, "_expand", expanding)
        monkeypatch.setattr(hrlq.algorithms, "_augment", repairing)
        result = hrlq.brute_min_ep(chain_instance(3000))
        assert expanded == list(range(3000))
        assert repairs == []
        assert result.objective == 2999
        assert result.matching.pairs() == tuple((f"r{i}", f"h{i}") for i in range(3000))
        assert result.stats.nodes == 3001

    def test_each_level_builds_its_reader_once(self, monkeypatch):
        built = []
        itemgetter = hrlq.algorithms.itemgetter

        def counting(*items):
            built.append(items)
            return itemgetter(*items)

        monkeypatch.setattr(hrlq.algorithms, "itemgetter", counting)
        inst = _reduction("vc", 3, _TRIANGLE, 1, None)
        hrlq.brute_min_ep(inst)
        assert 0 < len(built) < len(inst.residents)

    def test_brute_oracle_memory(self):
        # Nothing the search keeps per level may grow with the chain's
        # length: a cover copy kept per level would take about 72 MB here
        # (3,000 levels of 3,000 eight-byte entries).
        inst = chain_instance(3000)
        tracemalloc.start()
        try:
            hrlq.brute_min_ep(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10**6


class TestMinEpExact:
    def test_instance_a(self):
        result = hrlq.min_ep_exact(IA)
        assert result.objective == 1
        assert result.matching.assignment == {"r1": "h2", "r2": "h1"}
        assert result.stats.level == 1
        assert result.stats.guess == (("r1", "h1"),)
        assert result.stats.guesses_examined == 2

    def test_instance_b_solved_at_level_zero(self):
        result = hrlq.min_ep_exact(IB)
        assert result.objective == 0
        assert result.stats.level == 0
        assert result.stats.guess == ()

    def test_infeasible(self):
        inst = hrlq.validate_instance(
            ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (2, 2)}
        )
        with pytest.raises(hrlq.Infeasible):
            hrlq.min_ep_exact(inst)

    def test_level_cap(self):
        with pytest.raises(hrlq.LevelCapExceeded):
            hrlq.min_ep_exact(IA, level_cap=0)

    def test_level_cap_is_tight(self):
        # Rerunning below the successful level must fail; at it, succeed, and so
        # above it, even past the edge count, which bounds every optimum.
        for inst in random_feasible_instances(16, 40):
            result = hrlq.min_ep_exact(inst)
            for cap in (result.stats.level, len(inst.edges) + 1, 10**100):
                assert hrlq.min_ep_exact(inst, level_cap=cap) == result
            if result.stats.level > 0:
                with pytest.raises(hrlq.LevelCapExceeded):
                    hrlq.min_ep_exact(inst, level_cap=result.stats.level - 1)

    def test_matches_bruteforce(self):
        for inst in random_feasible_instances(17, 120):
            exact = hrlq.min_ep_exact(inst)
            brute = hrlq.brute_min_ep(inst)
            assert exact.objective == brute.objective
            assert len(hrlq.envy_pairs(inst, exact.matching)) == exact.objective
            assert hrlq.is_feasible(inst, exact.matching)

    def test_deterministic_results(self):
        for inst in random_feasible_instances(18, 30):
            first = hrlq.min_ep_exact(inst)
            second = hrlq.min_ep_exact(inst)
            assert first == second
            assert repr(first) == repr(second)

    def test_winning_guess_matches_rebuilt_instance(self):
        # The guess is tried as a dropped-pair mask; rebuilding the trimmed
        # instance and deciding it from scratch must give the same matching.
        for inst in random_feasible_instances(17, 120):
            result = hrlq.min_ep_exact(inst)
            trimmed = hrlq.without_edges(inst, result.stats.guess)
            assert hrlq.yokoi_envy_free(trimmed) == result.matching
            # The winner is exactly its matching's envy pairs: the fact the
            # candidate-pair pruning rests on.
            assert result.stats.guess == hrlq.envy_pairs(inst, result.matching)

    def test_matches_paper_order_reference(self):
        # Results, guess counts and level-cap payloads must not depend on which
        # guesses the search settles without running deferred acceptance.  The
        # path's reduction (optimum 3, 928 guesses) has runs that stop early.
        family = [IA, IB, _reduction("vc", 3, [(1, 2), (2, 3)], 1, 2),
                  *random_feasible_instances(16, 40),
                  *random_feasible_instances(17, 120), *random_feasible_instances(18, 30)]
        for inst in family:
            result = hrlq.min_ep_exact(inst)
            assert result == paper_min_ep(inst)
            for cap in range(result.stats.level):
                with pytest.raises(hrlq.LevelCapExceeded) as fast:
                    hrlq.min_ep_exact(inst, level_cap=cap)
                with pytest.raises(hrlq.LevelCapExceeded) as slow:
                    paper_min_ep(inst, level_cap=cap)
                assert (fast.value.level_cap, fast.value.guesses_examined) == (
                    slow.value.level_cap, slow.value.guesses_examined)

    # Every hospital has quota [1, 1], so r2 must take h3, and then envies
    # both h2 and h1, which it lists in that order, the reverse of theirs.
    REVERSED_PAIRS = hrlq.validate_instance(
        ["r1", "r2", "r3"],
        ["h1", "h2", "h3"],
        {"r1": ["h1", "h2"], "r2": ["h2", "h1", "h3"], "r3": ["h2"]},
        {"h1": ["r2", "r1"], "h2": ["r2", "r1", "r3"], "h3": ["r2"]},
        {"h1": (1, 1), "h2": (1, 1), "h3": (1, 1)},
    )

    def test_guess_is_read_off_the_bans_in_edge_order(self):
        # The winner's two pairs are bits of r2's one ban mask, set by list
        # position; the guess must still list them in edge order, h1 first.
        inst = self.REVERSED_PAIRS
        result = hrlq.min_ep_exact(inst)
        assert result.stats.guess == (("r2", "h1"), ("r2", "h2"))
        assert result.matching.assignment == {"r1": "h1", "r2": "h3", "r3": "h2"}
        assert result == paper_min_ep(inst)

    # Tight markets, where most guesses' runs leave seats empty, and the tight
    # reductions, whose roots leave two to four empty.
    @staticmethod
    def empty_seat_family():
        return _tight_markets(28, 300) + [_reduction(*source) for source in _TIGHT_REDUCTIONS]

    @staticmethod
    def empty_seats(inst):
        """The lower-quota seats that deferred acceptance at the lower quotas leaves empty."""
        caps = {h: low for h, (low, _) in inst.quotas.items()}
        return sum(inst._low) - len(textbook_da(inst, caps))

    def test_levels_start_at_the_roots_empty_seats(self, monkeypatch):
        # Each pair deleted fills at most one more seat, so min_ep_exact tries
        # no level below the seats its root run leaves empty, and starts there.
        algorithms = hrlq.algorithms
        extend, levels = algorithms._extend_guess, []

        def spy_extend(*args):
            if not args[6]:  # no candidate chosen yet: a level's first call
                levels.append(args[5])
            return extend(*args)

        monkeypatch.setattr(algorithms, "_extend_guess", spy_extend)
        skipped = 0
        for inst in self.empty_seat_family():
            levels.clear()
            # Capped, so a search that cuts its winner ends: no optimum exceeds the edges.
            level = hrlq.min_ep_exact(inst, level_cap=len(inst.edges)).stats.level
            assert level == hrlq.brute_min_ep(inst).objective
            seats = self.empty_seats(inst)
            assert levels == (list(range(seats, level + 1)) if seats else [])
            skipped += seats > 1
        assert skipped >= 5

    def test_a_cap_below_the_roots_empty_seats_raises_at_once(self, monkeypatch):
        # With the level cap, guess count and message of the paper's search
        # capped there, and before any guess is extended.
        algorithms = hrlq.algorithms
        extend, calls = algorithms._extend_guess, []

        def spy_extend(*args):
            calls.append(args[5])
            return extend(*args)

        monkeypatch.setattr(algorithms, "_extend_guess", spy_extend)
        checked = 0
        for inst in self.empty_seat_family()[:-1]:  # the 4-cycle's paper order is too slow
            for cap in range(self.empty_seats(inst)):
                with pytest.raises(hrlq.LevelCapExceeded) as fast:
                    hrlq.min_ep_exact(inst, level_cap=cap)
                assert calls == []
                with pytest.raises(hrlq.LevelCapExceeded) as slow:
                    paper_min_ep(inst, level_cap=cap)
                assert (fast.value.level_cap, fast.value.guesses_examined, str(fast.value)) == (
                    slow.value.level_cap, slow.value.guesses_examined, str(slow.value))
                checked += cap > 0
        assert checked >= 3

    def test_a_failed_level_leaves_no_ban(self):
        # min_ep_exact keeps one `banned` list for every level and reads the
        # winner off it, so a level that fails must clear every bit it set.
        # Any candidates in edge order will do; here every acceptable pair is one.
        # In the triangle's reduction (optimum 3) the run a level-2 cursor
        # resumes stops before the last candidates' residents.
        # The candidates `min_ep_exact` builds, which skip guesses for forced
        # pairs in the tight triangle, must leave no ban either.
        algorithms = hrlq.algorithms
        calls = 0
        family = [self.REVERSED_PAIRS, _reduction("vc", 3, _TRIANGLE, 2, 2),
                  *random_feasible_instances(16, 40)]
        for inst in family:
            level = hrlq.min_ep_exact(inst).stats.level
            n, low = len(inst.residents), inst._low
            every_pair = [(inst.resident_index[r], inst.hospital_index[h],
                           1 << inst.resident_prefs[r].index(h), 0) for r, h in inst.edges]
            banned = [0] * n
            root = algorithms._Run(inst, low, n - sum(low))
            assert root.admit(banned, n) == (level == 0)
            prefix = full_run(inst, low)  # the root as min_ep_exact runs it, to the end
            for candidates in (every_pair, algorithms._candidates(inst)):
                for below in range(1, level):
                    cursor = algorithms._Run(inst, low, root.limit)
                    found = algorithms._extend_guess(candidates, banned, prefix, cursor,
                                                     0, below, 0, 0)
                    assert found is None
                    assert banned == [0] * n
                    calls += 1
        assert calls > 0


# The tight vc reductions: every hospital has quota [1, 1], one per resident.
_TIGHT_REDUCTIONS = [("vc", 3, [(1, 2), (2, 3)], 1, 2), ("vc", 3, _TRIANGLE, 2, 2),
                     ("vc", 4, _FOUR_CYCLE, 2, 2)]


def _tight_markets(seed, count):
    """`count` feasible tight markets from `random_tight_instance`."""
    rng = random.Random(seed)
    markets = []
    while len(markets) < count:
        inst = random_tight_instance(rng)
        if hrlq.exists_feasible(inst):
            markets.append(inst)
    return markets


def _envy_pairs_at_the_lower_quotas(inst):
    """The envy pairs of the feasible matchings that fill each hospital to exactly its
    lower quota, the only ones Yokoi's test returns; in a tight market, of all of them."""
    pairs = set()
    for m in hrlq.enumerate_feasible(inst):
        occupancy = dict.fromkeys(inst.hospitals, 0)
        for h in m.assignment.values():
            occupancy[h] += 1
        if all(occupancy[h] == low for h, (low, _) in inst.quotas.items()):
            pairs.update(hrlq.envy_pairs(inst, m))
    return pairs


def _candidate_pairs(inst):
    """`_candidates` as named pairs, after checking each entry's order, resident, hospital
    and ban bit."""
    candidates = hrlq.algorithms._candidates(inst)
    pairs = [(inst.residents[r], inst.hospitals[h]) for r, h, _, _ in candidates]
    edge_index = [inst.edges.index(pair) for pair in pairs]
    assert edge_index == sorted(set(edge_index))
    for (resident, hospital), (_, _, bit, _) in zip(pairs, candidates):
        assert bit == 1 << inst.resident_prefs[resident].index(hospital)
    return set(pairs)


class TestCandidates:
    """`min_ep_exact` guesses only candidates, and a winner is the envy pairs of a
    matching that fills every lower quota exactly, so each such pair must be one.
    In a tight market no other pair is left."""

    def test_every_envy_pair_at_the_lower_quotas_is_a_candidate(self):
        for inst in random_feasible_instances(17, 150) + _tight_markets(25, 200):
            assert _envy_pairs_at_the_lower_quotas(inst) <= _candidate_pairs(inst)

    @pytest.mark.parametrize("source, count", list(zip(_TIGHT_REDUCTIONS, [16, 22, 33])))
    def test_tight_reductions_keep_exactly_the_envy_pairs(self, source, count):
        inst = _reduction(*source)
        assert sum(inst._low) == len(inst.residents)
        assert _candidate_pairs(inst) == _envy_pairs_at_the_lower_quotas(inst)
        assert len(hrlq.algorithms._candidates(inst)) == count


def _forced_by_definition(inst):
    """From the definition, by name, in a tight market: F(r, h) for each pair at a
    hospital h with lower quota 1, the pairs (r', h) where h ranks r' above r and h
    is the first hospital with a positive lower quota on the list of r'; and the
    pairs dropped because such an r' has no other hospital with a positive one."""
    low = {h: quota[0] for h, quota in inst.quotas.items()}
    positive = {r: [h for h in prefs if low[h]] for r, prefs in inst.resident_prefs.items()}
    forced, dropped = {}, set()
    for h, listed in inst.hospital_prefs.items():
        if low[h] == 1:
            for k, r in enumerate(listed):
                forced[r, h] = {(q, h) for q in listed[:k] if positive[q][:1] == [h]}
                if any(positive[q] == [h] for q in listed[:k]):
                    dropped.add((r, h))
    return forced, dropped


def _forced_of_candidates(inst):
    """The pairs each candidate forces, by name, as `_candidates` lists them: a mask of
    candidate indices, never the candidate's own."""
    candidates = hrlq.algorithms._candidates(inst)
    named = [(inst.residents[r], inst.hospitals[h]) for r, h, _, _ in candidates]
    out = {}
    for i, (_, _, _, forced) in enumerate(candidates):
        assert 0 <= forced < 1 << len(candidates) and not forced >> i & 1
        out[named[i]] = {named[j] for j in range(len(candidates)) if forced >> j & 1}
    return out


class TestForcedPairs:
    """In a tight market every envy set that holds a candidate (r, h) with low[h] == 1
    holds the pairs it forces, so `min_ep_exact` never needs a guess without them."""

    def family(self):
        return [_reduction(*source) for source in _TIGHT_REDUCTIONS] + _tight_markets(28, 300)

    def test_candidates_carry_exactly_the_forced_pairs(self):
        with_forced = dropped_seen = 0
        for inst in self.family():
            forced, dropped = _forced_by_definition(inst)
            carried = _forced_of_candidates(inst)
            assert not carried.keys() & dropped
            for pair, pairs in carried.items():
                assert pairs == forced.get(pair, set())
                assert pairs <= carried.keys()
                with_forced += bool(pairs)
            dropped_seen += bool(dropped)
        assert with_forced > 50 and dropped_seen > 25

    def test_every_envy_set_holding_a_pair_holds_what_it_forces(self):
        # By enumeration: each feasible matching's envy set is closed under the
        # candidates' forced pairs and holds no dropped pair.
        checked = 0
        for inst in self.family():
            carried = _forced_of_candidates(inst)
            _, dropped = _forced_by_definition(inst)
            for m in hrlq.enumerate_feasible(inst):
                envy = set(hrlq.envy_pairs(inst, m))
                assert not envy & dropped
                for pair in envy:
                    assert carried[pair] <= envy
                    checked += bool(carried[pair])
        assert checked > 500

    def test_every_last_level_guess_holds_what_it_forces(self, monkeypatch):
        # Deferred acceptance runs at the last level only on guesses that hold
        # every pair their pairs force by the definition.  The empty-seat bound
        # cuts most guesses before their last pair, so the family is ten times
        # as wide as the other tests' to see as many last-level runs.
        algorithms = hrlq.algorithms
        extend, admit = algorithms._extend_guess, algorithms._Run.admit
        needs, tried = [], []

        def spy_extend(*args):
            needs.append(args[5])
            try:
                return extend(*args)
            finally:
                needs.pop()

        def spy_admit(run, banned, stop):
            if needs and needs[-1] == 1 and stop == len(banned):
                tried.append((run.instance, banned.copy()))
            return admit(run, banned, stop)

        monkeypatch.setattr(algorithms, "_extend_guess", spy_extend)
        monkeypatch.setattr(algorithms._Run, "admit", spy_admit)
        family = [_reduction(*source) for source in _TIGHT_REDUCTIONS] + _tight_markets(28, 3000)
        for inst in family:
            hrlq.min_ep_exact(inst)
        forced = {id(inst): _forced_by_definition(inst)[0] for inst in family}
        holding = 0  # guesses that hold a pair which forces others
        for inst, banned in tried:
            guess = {(r, h) for r, h in inst.edges
                     if banned[inst.resident_index[r]] >> inst.resident_prefs[r].index(h) & 1}
            owed = [forced[id(inst)].get(pair, set()) for pair in guess]
            assert all(pairs <= guess for pairs in owed)
            holding += any(owed)
        assert len(tried) > 1000 and holding > 100


class TestBruteOracles:
    def test_instance_a(self):
        assert hrlq.brute_min_ep(IA).objective == 1
        assert hrlq.brute_min_er(IA).objective == 1

    def test_stats_count_nodes_not_guesses(self):
        for solve in (hrlq.brute_min_ep, hrlq.brute_min_er):
            stats = solve(IA).stats
            assert stats.guesses_examined == 0
            assert stats.nodes == 3

    def test_instance_b(self):
        assert hrlq.brute_min_ep(IB).objective == 0
        assert hrlq.brute_min_er(IB).objective == 0

    def test_infeasible(self):
        inst = hrlq.validate_instance(
            ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (2, 2)}
        )
        with pytest.raises(hrlq.Infeasible):
            hrlq.brute_min_ep(inst)
        with pytest.raises(hrlq.Infeasible):
            hrlq.brute_min_er(inst)

    def test_picks_are_the_first_naive_minima(self):
        # Each oracle keeps the first strict minimum in enumeration order,
        # whatever scores the leaves.
        for inst in random_feasible_instances(24, 80):
            _assert_first_naive_minima(inst)

    def test_er_never_exceeds_ep(self):
        for inst in random_feasible_instances(19, 60):
            assert hrlq.brute_min_er(inst).objective <= hrlq.brute_min_ep(inst).objective

    def test_budget_propagates(self):
        inst = hrlq.validate_instance(
            ["r1", "r2", "r3"], ["h1", "h2", "h3"],
            {r: ["h1", "h2", "h3"] for r in ["r1", "r2", "r3"]},
            {h: ["r1", "r2", "r3"] for h in ["h1", "h2", "h3"]},
            {h: (0, 1) for h in ["h1", "h2", "h3"]},
        )
        with pytest.raises(hrlq.BudgetExceeded):
            hrlq.brute_min_ep(inst, node_budget=5)


class TestSpareOptimum:
    """brute_min_ep and brute_min_er hand each other the optimum their one search scored.

    Each call leaves the optimum it was not asked for on the instance, and
    the next call on that instance object takes it when it asks for it.
    """

    # The oracle-enum benchmark family's fixed reduction instances.
    REDUCTIONS = {
        "triangle-k1-full": ("vc", 3, _TRIANGLE, 1, None),
        "four-cycle-k3-full": ("clique", 4, _FOUR_CYCLE, 3, None),
        "k4-k2-g3": ("vc", 4, _K4, 2, 3),
        "k4-k1-g4": ("vc", 4, _K4, 1, 4),
        "k4-k2-g4": ("vc", 4, _K4, 2, 4),
        "k4-k3-g4": ("vc", 4, _K4, 3, 4),
        "four-cycle-k2-full": ("vc", 4, _FOUR_CYCLE, 2, None),
        "c5-k2-g3": ("vc", 5, _C5, 2, 3),
    }

    @pytest.fixture
    def searches(self, monkeypatch):
        """The instances of the `_FeasibleSearch` objects built from here on, in order."""
        built = []
        search = hrlq.algorithms._FeasibleSearch

        def counting(instance, node_budget):
            built.append(instance)
            return search(instance, node_budget)

        monkeypatch.setattr(hrlq.algorithms, "_FeasibleSearch", counting)
        return built

    @staticmethod
    def _both(inst, first_ep):
        """(Min-EP result, Min-ER result), asked in the given order."""
        if first_ep:
            ep = hrlq.brute_min_ep(inst)
            return ep, hrlq.brute_min_er(inst)
        er = hrlq.brute_min_er(inst)
        return hrlq.brute_min_ep(inst), er

    @pytest.mark.parametrize("first_ep", [True, False], ids=["ep-then-er", "er-then-ep"])
    def test_a_pair_builds_one_search(self, searches, first_ep):
        inst = instance_a()
        self._both(inst, first_ep)
        assert searches == [inst]
        assert "_spare" not in vars(inst)

    @pytest.mark.parametrize("solve", [hrlq.brute_min_ep, hrlq.brute_min_er],
                             ids=["ep-then-ep", "er-then-er"])
    def test_one_oracle_twice_builds_two(self, searches, solve):
        inst = instance_a()
        assert solve(inst) == solve(inst)
        assert searches == [inst, inst]

    def test_an_equal_rebuilt_instance_builds_its_own(self, searches):
        inst, rebuilt = instance_a(), instance_a()
        assert rebuilt == inst and rebuilt is not inst
        ep, er = hrlq.brute_min_ep(inst), hrlq.brute_min_er(rebuilt)
        assert len(searches) == 2 and searches[1] is rebuilt
        assert (ep, er) == hrlq.algorithms._brute_optima(IA, hrlq.algorithms.DEFAULT_NODE_BUDGET)

    @pytest.mark.parametrize("first_ep", [True, False], ids=["ep-then-er", "er-then-ep"])
    def test_random_pairs_equal_a_fresh_search(self, first_ep):
        # Matchings, objectives, kinds and node counts: SolveResult compares them all.
        for inst in random_feasible_instances(29, 60):
            fresh = hrlq.algorithms._brute_optima(inst, hrlq.algorithms.DEFAULT_NODE_BUDGET)
            assert self._both(inst, first_ep) == fresh

    @pytest.mark.parametrize("name", REDUCTIONS)
    def test_reduction_pairs_equal_a_fresh_search(self, name):
        inst = _reduction(*self.REDUCTIONS[name])
        fresh = hrlq.algorithms._brute_optima(inst, hrlq.algorithms.DEFAULT_NODE_BUDGET)
        assert fresh[0].objective_kind is hrlq.ObjectiveKind.MIN_EP
        for first_ep in (True, False):
            assert self._both(inst, first_ep) == fresh

    def test_the_budget_applies_as_if_the_search_ran(self, searches):
        inst = _reduction(*self.REDUCTIONS["triangle-k1-full"])
        nodes = hrlq.brute_min_ep(inst).stats.nodes
        with pytest.raises(hrlq.BudgetExceeded) as caught:
            hrlq.algorithms._brute_optima(inst, nodes - 1)
        assert caught.value.node_budget == nodes - 1
        with pytest.raises(hrlq.BudgetExceeded) as caught:
            hrlq.brute_min_er(inst, node_budget=nodes - 1)
        assert caught.value.node_budget == nodes - 1
        # The spare is taken even when its budget is too small.
        assert "_spare" not in vars(inst)
        hrlq.brute_min_ep(inst, node_budget=nodes)
        assert hrlq.brute_min_er(inst, node_budget=nodes).stats.nodes == nodes
        # Two brute_min_ep searches and the fresh one; neither brute_min_er call searched.
        assert searches == [inst, inst, inst]

    @pytest.mark.parametrize("budget, message", [
        (-1, "node_budget must be non-negative, got -1"),
        ("5", "node_budget must be an int, got '5'"),
        (True, "node_budget must be an int, got True"),
        (-10**5000, "node_budget must be non-negative, got "),
    ], ids=["-1", "'5'", "True", "-10**5000"])
    def test_a_bad_budget_is_refused_before_the_spare(self, searches, budget, message):
        inst = instance_a()
        hrlq.brute_min_ep(inst)
        with pytest.raises(ValueError, match=re.escape(message)) as caught:
            hrlq.brute_min_er(inst, node_budget=budget)
        assert "Exceeds the limit" not in str(caught.value)
        # The refused call did not take the spare.
        hrlq.brute_min_er(inst)
        assert searches == [inst]

    def test_a_call_that_searches_drops_the_spare(self, searches):
        inst = _reduction(*self.REDUCTIONS["triangle-k1-full"])
        hrlq.brute_min_ep(inst)
        with pytest.raises(hrlq.BudgetExceeded):
            hrlq.brute_min_ep(inst, node_budget=5)
        assert "_spare" not in vars(inst)
        infeasible = hrlq.validate_instance(["r"], ["h"], {"r": ["h"]}, {"h": ["r"]},
                                            {"h": (2, 2)})
        with pytest.raises(hrlq.Infeasible):
            hrlq.brute_min_er(infeasible)
        assert "_spare" not in vars(infeasible)
        hrlq.brute_min_er(inst)
        assert searches == [inst, inst, infeasible, inst]

    def test_no_spare_outlives_its_instance(self):
        inst = instance_a()
        result = hrlq.brute_min_ep(inst)
        refs = weakref.ref(inst), weakref.ref(vars(inst)["_spare"])
        del inst
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert result.objective == 1


class TestYokoiAgainstEnumeration:
    def test_random_family(self):
        rng = random.Random(21)
        for _ in range(250):
            inst = random_instance(rng, max_residents=4, max_hospitals=3)
            decided = hrlq.yokoi_envy_free(inst)
            truth = has_envy_free_feasible(inst)
            assert (decided is not None) == truth
