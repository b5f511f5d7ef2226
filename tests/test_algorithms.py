"""Deferred acceptance, the envy-free decision, exact and brute-force solvers."""

import hashlib
import itertools
import random
import re
import tracemalloc
import warnings

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
    hand-built ones that put the search's cuts and its repair memo on
    their boundaries.
    """

    # r2 is the last resident to list hA.  Once r1 stays unmatched, r2
    # covers hA, so each of r2's options but hA dies: nobody after r2 can
    # take the slot over.  Those options leave the same frontier demand
    # (hC unmet, listed by r3 and r4) as r2's live options after r1 took
    # hA, which the memo holds a cover for; the last-lister check must
    # cut them before the memo is asked.
    LAST_LISTER = _hand_built(
        {"r1": ("hA",), "r2": ("hD", "hA", "hC"), "r3": ("hC",), "r4": ("hC",)},
        {"hA": ("r1", "r2"), "hC": ("r2", "r3", "r4"), "hD": ("r2",)},
        {"hA": (1, 1), "hC": (1, 1), "hD": (0, 1)},
    )
    # r2 lists hA after r1, but r2 is the only resident listing hB, so it
    # stays locked on hB and r1's option hD dies in the augmenting-path
    # search; r1 staying unmatched meets the same frontier state and the
    # memo's verdict.  In the twin r3 lists hB too, so r2 can move to hA
    # and both options of r1 live.
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
    # the same frontier demand twice.  The first order's repair leaves r4
    # covering h2's last seat; the second path's own repair would leave r3
    # there, and it takes the memo's cover instead.
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
        # The search enters a state exactly when some feasible leaf lies
        # below it, so its nodes are the distinct prefixes of the leaves.
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
        # With the last hospital open the optimum is links - 1, far beyond
        # the guess levels reachable, so the search is capped after level 0.
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

    def test_chain_builds_no_frontier_reader(self, monkeypatch):
        # Every option on a chain is settled by the count or the last-lister
        # check, so no level takes a memo key and no frontier reader is built.
        built = []
        itemgetter = hrlq.algorithms.itemgetter

        def counting(*items):
            built.append(items)
            return itemgetter(*items)

        monkeypatch.setattr(hrlq.algorithms, "itemgetter", counting)
        result = hrlq.brute_min_ep(chain_instance(3000))
        assert built == []
        assert result.objective == 2999
        assert result.matching.pairs() == tuple((f"r{i}", f"h{i}") for i in range(3000))
        assert result.stats.nodes == 3001
        # A reduction instance asks the memo, and each level builds its reader once.
        inst = _reduction("vc", 3, _TRIANGLE, 1, None)
        hrlq.brute_min_ep(inst)
        assert 0 < len(built) <= len(inst.residents)

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
        # Rerunning below the successful level must fail; at it, succeed.
        for inst in random_feasible_instances(16, 40):
            result = hrlq.min_ep_exact(inst)
            assert hrlq.min_ep_exact(inst, level_cap=result.stats.level) == result
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

    def test_a_failed_level_leaves_no_ban(self):
        # min_ep_exact keeps one `banned` list for every level and reads the
        # winner off it, so a level that fails must clear every bit it set.
        # Any candidates in edge order will do; here every acceptable pair is one.
        # In the triangle's reduction (optimum 3) the run a level-2 cursor
        # resumes stops before the last candidates' residents.
        algorithms = hrlq.algorithms
        calls = 0
        family = [self.REVERSED_PAIRS, _reduction("vc", 3, _TRIANGLE, 2, 2),
                  *random_feasible_instances(16, 40)]
        for inst in family:
            level = hrlq.min_ep_exact(inst).stats.level
            n, low = len(inst.residents), inst._low
            candidates = [(e, inst.resident_index[r], inst.resident_prefs[r].index(h))
                          for e, (r, h) in enumerate(inst.edges)]
            banned = [0] * n
            root = algorithms._Run(inst, low, n - sum(low))
            assert root.admit(banned, n) == (level == 0)
            for below in range(1, level):
                cursor = algorithms._Run(inst, low, root.limit)
                found = algorithms._extend_guess(candidates, banned, root.taken, cursor, 0, below)
                assert found is None
                assert banned == [0] * n
                calls += 1
        assert calls > 0


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


class TestYokoiAgainstEnumeration:
    def test_random_family(self):
        rng = random.Random(21)
        for _ in range(250):
            inst = random_instance(rng, max_residents=4, max_hospitals=3)
            decided = hrlq.yokoi_envy_free(inst)
            truth = has_envy_free_feasible(inst)
            assert (decided is not None) == truth
