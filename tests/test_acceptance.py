"""Acceptance suite: construction bounds at desk scale, oracle equivalences, invariants.

Each test prints one `ACCEPTANCE <name>: PASS (elapsed)` line (visible with
`pytest -s` or `-v`) and asserts both the property and its runtime budget.
"""

import math
import random
import time
import warnings

import hrlq
from helpers import (
    exhaustive_two_by_two,
    has_envy_free_feasible,
    instance_a,
    instance_b,
    naive_envy_pairs,
    random_feasible_instances,
    random_instance,
    tight_market,
)

TRIANGLE = hrlq.SourceGraph(3, [(1, 2), (1, 3), (2, 3)], k=2)
TRIANGLE_K1 = hrlq.SourceGraph(3, [(1, 2), (1, 3), (2, 3)], k=1)
FOUR_CYCLE = hrlq.SourceGraph(4, [(1, 2), (1, 4), (2, 3), (3, 4)], k=3)
PENDANT_TRIANGLE = hrlq.SourceGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)], k=3)


class _Timer:
    def __init__(self, name, budget_seconds):
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} took {elapsed:.2f}s, budget {self.budget}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        return False


def test_gadget_two_matchings_each_one_envy_pair():
    with _Timer("gadget-structure", 1.0):
        for length in (2, 3, 5):
            gadget = hrlq.gadget_instance((1, 2), length)
            m0, m1 = hrlq.gadget_matchings((1, 2), length)
            enumerated = {
                frozenset(m.assignment.items())
                for m in hrlq.enumerate_feasible(gadget)
            }
            assert enumerated == {frozenset(m0), frozenset(m1)}
            matching0 = hrlq.make_matching(gadget, m0)
            matching1 = hrlq.make_matching(gadget, m1)
            assert hrlq.envy_pairs(gadget, matching0) == (("s1_2_1_1", "t1_2_0_2"),)
            assert hrlq.envy_pairs(gadget, matching1) == (("s1_2_0_1", "t1_2_0_1"),)


def test_vertex_cover_yes_bound():
    with _Timer("vc-yes-bound", 1.0):
        params = hrlq.VCReductionParams(10)
        instance = hrlq.vc_to_min_ep(TRIANGLE, params)
        matching = hrlq.matching_from_cover(TRIANGLE, params, {1, 2})
        assert hrlq.is_feasible(instance, matching)
        count = len(hrlq.envy_pairs(instance, matching))
        assert count <= 3 * 3 + 3  # n^2 + m
        assert count == 3
        assert naive_envy_pairs(instance, matching) == hrlq.envy_pairs(instance, matching)


def test_vertex_cover_no_bound():
    with _Timer("vc-no-bound", 10.0):
        params = hrlq.VCReductionParams(10)
        instance = hrlq.vc_to_min_ep(TRIANGLE_K1, params)
        counts = [
            len(hrlq.envy_pairs(instance, m))
            for m in hrlq.enumerate_feasible(instance, node_budget=10**7)
        ]
        assert len(counts) == 48  # 3! vertex assignments x 2^3 gadget choices
        assert min(counts) >= 3 * 3 + 3 + 1  # n^2 + m + 1


def test_clique_yes_bound():
    with _Timer("clique-yes-bound", 1.0):
        params = hrlq.CliqueReductionParams(5)
        instance = hrlq.clique_to_min_er(PENDANT_TRIANGLE, params)
        matching = hrlq.matching_from_clique(PENDANT_TRIANGLE, params, {1, 2, 3})
        assert hrlq.is_feasible(instance, matching)
        residents = hrlq.envy_residents(instance, matching)
        assert len(residents) <= (4 - math.comb(3, 2)) * 5 + 4  # = 9
        assert {r for r, _ in naive_envy_pairs(instance, matching)} == set(residents)


def test_clique_no_bound():
    with _Timer("clique-no-bound", 10.0):
        params = hrlq.CliqueReductionParams(5)
        instance = hrlq.clique_to_min_er(FOUR_CYCLE, params)
        counts = [
            len(hrlq.envy_residents(instance, m))
            for m in hrlq.enumerate_feasible(instance, node_budget=10**7)
        ]
        assert len(counts) == 24  # 4! vertex assignments, edge residents pinned
        assert min(counts) >= (4 - math.comb(3, 2) + 1) * 5  # = 10


K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
C5 = [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def _vc_optimum(n, edges, k):
    """brute Min-EP of the full-strength vertex-cover reduction (gadget n^2 + 1)."""
    instance = hrlq.vc_to_min_ep(hrlq.SourceGraph(n, edges, k), hrlq.VCReductionParams())
    return hrlq.brute_min_ep(instance).objective


def _clique_optimum(n, edges, k):
    """brute Min-ER of the full-strength clique reduction (n + 1 copies per edge)."""
    instance = hrlq.clique_to_min_er(hrlq.SourceGraph(n, edges, k), hrlq.CliqueReductionParams())
    return hrlq.brute_min_er(instance).objective


# K4's smallest vertex cover has 3 vertices, C5's too: k=3 is the yes side,
# under n^2 + m, and k=2 the no side, above it.
def test_vertex_cover_separation_on_k4():
    with _Timer("vc-k4-separation", 10.0):
        assert _vc_optimum(4, K4, 3) == 6 <= 4 * 4 + 6
        assert _vc_optimum(4, K4, 2) == 23 >= 4 * 4 + 6 + 1


def test_vertex_cover_separation_on_c5():
    with _Timer("vc-c5-separation", 10.0):
        assert _vc_optimum(5, C5, 3) == 6 <= 5 * 5 + 5
        assert _vc_optimum(5, C5, 2) == 32 >= 5 * 5 + 5 + 1


# With t = n + 1 copies, the yes bound is (m - C(K,2))*t + n and the no
# bound (m - C(K,2) + 1)*t.
def test_clique_yes_bound_on_k4():
    with _Timer("clique-k4-yes", 10.0):
        assert _clique_optimum(4, K4, 4) == 0 <= (6 - math.comb(4, 2)) * 5 + 4


def test_clique_separation_on_c5():
    # C5's largest clique is an edge: K=2 is the yes side, K=3 the no side.
    with _Timer("clique-c5-separation", 10.0):
        assert _clique_optimum(5, C5, 2) == 24 <= (5 - math.comb(2, 2)) * 6 + 5
        assert _clique_optimum(5, C5, 3) == 18 >= (5 - math.comb(3, 2) + 1) * 6


def test_exact_solver_matches_bruteforce_oracle():
    with _Timer("exact-vs-oracle", 60.0):
        for instance in random_feasible_instances(
            20240811, 500, max_residents=6, max_hospitals=4, max_upper=2
        ):
            exact = hrlq.min_ep_exact(instance)
            brute = hrlq.brute_min_ep(instance)
            assert exact.objective == brute.objective
            assert len(naive_envy_pairs(instance, exact.matching)) == exact.objective
            assert len(naive_envy_pairs(instance, brute.matching)) == brute.objective
            assert hrlq.is_feasible(instance, exact.matching)


# The 4-cycle with k=2 and the default gadget: 140 residents and Min-EP 5, at
# the frontier of min_ep_exact.  The forced-pair rule brought it to about 0.3 s
# from about 2.3 s.
def test_exact_solver_on_the_four_cycle_frontier():
    instance = hrlq.vc_to_min_ep(hrlq.SourceGraph(4, FOUR_CYCLE.edges, k=2),
                                 hrlq.VCReductionParams())
    assert len(instance.residents) == 140
    with _Timer("vc-c4-exact", 1.0):
        exact = hrlq.min_ep_exact(instance)
    assert exact.objective == hrlq.brute_min_ep(instance).objective == 5
    assert len(naive_envy_pairs(instance, exact.matching)) == 5
    assert hrlq.is_feasible(instance, exact.matching)


# K4 with k=3 and the default gadget: 208 residents and Min-EP 6.  The
# empty-seat bound brought it to well under 0.1 s from about 6 s.
def test_exact_solver_on_the_k4_frontier():
    instance = hrlq.vc_to_min_ep(hrlq.SourceGraph(4, K4, k=3), hrlq.VCReductionParams())
    assert len(instance.residents) == 208
    with _Timer("vc-k4-k3-exact", 1.0):
        exact = hrlq.min_ep_exact(instance)
    assert exact.objective == hrlq.brute_min_ep(instance).objective == 6
    assert len(naive_envy_pairs(instance, exact.matching)) == 6
    assert hrlq.is_feasible(instance, exact.matching)


# A tight random market of 40 residents and 12 hospitals with Min-EP 6, too
# large for the brute oracle.  The empty-seat bound brought it to about 0.1 s
# from about 10 s.
def test_exact_solver_on_a_tight_forty_by_twelve_market():
    instance = tight_market(random.Random("tight:40:2"), 40, 12)
    assert sum(instance._low) == len(instance.residents) == 40
    with _Timer("tight-40x12-exact", 1.0):
        exact = hrlq.min_ep_exact(instance)
    assert exact.objective == exact.stats.level == 6
    assert len(naive_envy_pairs(instance, exact.matching)) == 6
    assert hrlq.is_feasible(instance, exact.matching)
    # The winning guess deleted, the matching is the envy-free one Yokoi's test finds.
    trimmed = hrlq.without_edges(instance, exact.stats.guess)
    assert hrlq.yokoi_envy_free(trimmed) == exact.matching


def test_envy_free_decision_matches_enumeration():
    with _Timer("envy-free-decision", 60.0):
        checked = 0
        for instance in exhaustive_two_by_two():
            checked += 1
            matching = hrlq.yokoi_envy_free(instance)
            assert (matching is not None) == has_envy_free_feasible(instance)
            if matching is not None:
                assert hrlq.is_feasible(instance, matching)
                assert hrlq.is_envy_free(instance, matching)
        assert checked > 1000  # the family really is exhaustive, not a sample
        rng = random.Random(424242)
        for _ in range(500):
            instance = random_instance(
                rng, max_residents=3, max_hospitals=3, min_residents=3, min_hospitals=3,
                max_upper=3,
            )
            matching = hrlq.yokoi_envy_free(instance)
            assert (matching is not None) == has_envy_free_feasible(instance)
            if matching is not None:
                assert hrlq.is_feasible(instance, matching)
                assert hrlq.is_envy_free(instance, matching)


def test_structural_invariants_across_test_family():
    with _Timer("structural-invariants", 30.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", hrlq.SeparationBoundWarning)
            family = [
                instance_a(),
                instance_b(),
                hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(10)),
                hrlq.vc_to_min_ep(hrlq.SourceGraph(2, [(1, 2)], k=1),
                                  hrlq.VCReductionParams(2)),
                hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(5)),
            ]
        rng = random.Random(31)
        family.extend(random_instance(rng) for _ in range(100))
        for instance in family:
            assert hrlq.envy_pairs(instance, hrlq.EMPTY_MATCHING) == ()
            reduced = hrlq.reduced_capacity_instance(instance)
            da = hrlq.deferred_acceptance(reduced)
            assert hrlq.blocking_pairs(reduced, da) == ()
            for m in (da, hrlq.deferred_acceptance(instance)):
                assert set(hrlq.envy_pairs(instance, m)) <= set(
                    hrlq.blocking_pairs(instance, m)
                )
            text = hrlq.serialize_instance(instance)
            assert hrlq.serialize_instance(hrlq.parse_instance(text)) == text


def test_generated_size_formulas():
    with _Timer("size-formulas", 10.0):
        cases = [
            (TRIANGLE, 10),
            (hrlq.SourceGraph(2, [(1, 2)], k=1), 2),
            (hrlq.SourceGraph(4, [(1, 2), (2, 3), (3, 4)], k=2), 5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", hrlq.SeparationBoundWarning)
            for graph, length in cases:
                inst = hrlq.vc_to_min_ep(graph, hrlq.VCReductionParams(length))
                assert (
                    len(inst.residents) + len(inst.hospitals)
                    == 2 * graph.n + 4 * graph.m * length
                )
            for graph, copies in [(FOUR_CYCLE, 5), (PENDANT_TRIANGLE, 5),
                                  (hrlq.SourceGraph(2, [(1, 2)], k=1), 3)]:
                inst = hrlq.clique_to_min_er(graph, hrlq.CliqueReductionParams(copies))
                assert len(inst.residents) == graph.m * copies + graph.n
