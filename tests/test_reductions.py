"""Reduction generators, gadget structure, and certificate matchings."""

import itertools
import math
import re
import warnings

import pytest

import hrlq

TRIANGLE = hrlq.SourceGraph(3, [(1, 2), (1, 3), (2, 3)], k=2)
SINGLE_EDGE = hrlq.SourceGraph(2, [(1, 2)], k=1)
FOUR_CYCLE = hrlq.SourceGraph(4, [(1, 2), (1, 4), (2, 3), (3, 4)], k=3)
PENDANT_TRIANGLE = hrlq.SourceGraph(4, [(1, 2), (1, 3), (2, 3), (3, 4)], k=3)
# Every source graph these tests reduce, the inline ones included.
GRAPHS = [
    TRIANGLE, SINGLE_EDGE, FOUR_CYCLE, PENDANT_TRIANGLE,
    hrlq.SourceGraph(2, [(1, 2)], k=2),
    hrlq.SourceGraph(3, [(1, 2)], k=2),
    hrlq.SourceGraph(3, [(1, 2), (2, 3)], k=1),
    hrlq.SourceGraph(3, [(1, 2), (2, 3)], k=2),
]


def vertex_sets(graph, sizes):
    return [set(s) for size in sizes for s in itertools.combinations(range(1, graph.n + 1), size)]


def quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hrlq.SeparationBoundWarning)
        return fn(*args, **kwargs)


class TestSourceGraph:
    def test_rejects_bad_edges(self):
        with pytest.raises(hrlq.ReductionError):
            hrlq.SourceGraph(3, [(2, 1)])
        with pytest.raises(hrlq.ReductionError):
            hrlq.SourceGraph(3, [(1, 4)])
        with pytest.raises(hrlq.ReductionError):
            hrlq.SourceGraph(3, [(1, 2), (1, 2)])
        with pytest.raises(hrlq.ReductionError, match="at least one vertex, got n=0"):
            hrlq.SourceGraph(0, [])
        # Nothing is converted: a vertex is a plain int, and bool is not one.
        for edge, bad in [((1.9, 2.5), 1.9), ((True, 2), True), (("1", "2"), "1"), ((1, 2.0), 2.0)]:
            with pytest.raises(hrlq.ReductionError,
                               match=re.escape(f"edge endpoint must be an int, got {bad!r}")):
                hrlq.SourceGraph(3, [edge])
        for edge in [(1, 2, 3), 12, None]:
            with pytest.raises(hrlq.ReductionError,
                               match=re.escape(f"edge must be a pair of vertices, got {edge!r}")):
                hrlq.SourceGraph(3, [edge])
        with pytest.raises(hrlq.ReductionError, match="vertex count n must be an int, got 2.5"):
            hrlq.SourceGraph(2.5, [(1, 2)])
        # The edges are a collection of pairs: not None, and not a str of digits.
        for edges, kind in [(None, "NoneType"), ("12", "str"), (12, "int")]:
            with pytest.raises(hrlq.ReductionError,
                               match=f"^edges must be a collection, got {kind}$"):
                hrlq.SourceGraph(3, edges)

    def test_rejects_bad_k(self):
        with pytest.raises(hrlq.ReductionError):
            hrlq.SourceGraph(3, [(1, 2)], k=4)
        for k in (2.0, True):
            with pytest.raises(hrlq.ReductionError,
                               match=re.escape(f"target parameter k must be an int, got {k}")):
                hrlq.SourceGraph(3, [(1, 2)], k=k)


class TestVertexCoverGenerator:
    def test_triangle_sizes(self):
        inst = hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(10))
        assert len(inst.residents) == 63
        assert len(inst.hospitals) == 63
        assert len(inst.residents) + len(inst.hospitals) == 2 * 3 + 4 * 3 * 10

    def test_single_edge_gadget_is_a_cycle(self):
        inst = quiet(hrlq.vc_to_min_ep, SINGLE_EDGE, hrlq.VCReductionParams(2))
        assert len(inst.residents) == 2 + 4
        assert len(inst.hospitals) == 2 + 4
        gadget = hrlq.gadget_instance((1, 2), 2)
        # Every gadget vertex has degree exactly 2 and the graph is connected,
        # so the acceptability subgraph is one cycle of length 4*l.
        degree = {v: 0 for v in gadget.residents + gadget.hospitals}
        adjacency = {v: [] for v in degree}
        for r, h in gadget.edges:
            degree[r] += 1
            degree[h] += 1
            adjacency[r].append(h)
            adjacency[h].append(r)
        assert all(d == 2 for d in degree.values())
        seen = {gadget.residents[0]}
        frontier = [gadget.residents[0]]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == 4 * 2

    def test_k_equals_n_drops_fillers(self):
        graph = hrlq.SourceGraph(2, [(1, 2)], k=2)
        inst = quiet(hrlq.vc_to_min_ep, graph, hrlq.VCReductionParams(2))
        assert not any(r.startswith("f") for r in inst.residents)
        assert inst.hospital_prefs["v1"][0] == "c1"
        assert inst.hospital_prefs["v1"][-1] == "s1_2_0_2"

    def test_all_quotas_are_one_one(self):
        inst = hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(10))
        assert set(inst.quotas.values()) == {(1, 1)}

    def test_rejects_degenerate_gadget(self):
        with pytest.raises(hrlq.ReductionError):
            hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(1))
        # The parameter object refuses the value itself, before any warning.
        for bad in (2.5, True, "3"):
            with pytest.raises(hrlq.ReductionError,
                               match=re.escape(f"gadget_length must be an int, got {bad!r}")):
                hrlq.VCReductionParams(bad)

    def test_warns_when_separation_void(self):
        with pytest.warns(hrlq.SeparationBoundWarning):
            hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(10))

    def test_requires_target_parameter(self):
        with pytest.raises(hrlq.ReductionError, match="k must be set"):
            hrlq.vc_to_min_ep(hrlq.SourceGraph(3, [(1, 2)]))

    def test_generator_deterministic(self):
        a = hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(10))
        b = hrlq.vc_to_min_ep(TRIANGLE, hrlq.VCReductionParams(10))
        assert a == b
        assert hrlq.serialize_instance(a) == hrlq.serialize_instance(b)


class TestGadgetMatchings:
    def test_length_two_matches_hand_expansion(self):
        m0, m1 = hrlq.gadget_matchings((1, 2), 2)
        assert set(m0) == {
            ("s1_2_0_1", "t1_2_0_1"), ("s1_2_0_2", "t1_2_0_2"),
            ("s1_2_1_1", "t1_2_1_2"), ("s1_2_1_2", "t1_2_1_1"),
        }
        assert set(m1) == {
            ("s1_2_0_1", "t1_2_1_1"), ("s1_2_0_2", "t1_2_0_1"),
            ("s1_2_1_1", "t1_2_0_2"), ("s1_2_1_2", "t1_2_1_2"),
        }

    @pytest.mark.parametrize("length", [2, 3, 5, 10])
    def test_both_are_perfect_with_one_envy_pair(self, length):
        gadget = hrlq.gadget_instance((1, 2), length)
        m0, m1 = hrlq.gadget_matchings((1, 2), length)
        for pairs, envy in [
            (m0, ("s1_2_1_1", "t1_2_0_2")),
            (m1, ("s1_2_0_1", "t1_2_0_1")),
        ]:
            matching = hrlq.make_matching(gadget, pairs)
            assert hrlq.is_feasible(gadget, matching)
            assert hrlq.envy_pairs(gadget, matching) == (envy,)

    @pytest.mark.parametrize("build", [hrlq.gadget_instance, hrlq.gadget_matchings])
    @pytest.mark.parametrize("edge", [(2, 1), (2, 2)])
    def test_rejects_unordered_edge(self, build, edge):
        with pytest.raises(hrlq.ReductionError, match="edge must satisfy i < j"):
            build(edge, 2)

    @pytest.mark.parametrize("build", [hrlq.gadget_instance, hrlq.gadget_matchings])
    @pytest.mark.parametrize("edge, length, message", [
        ((1.5, 2), 3, "edge endpoint must be an int, got 1.5"),
        ((1, True), 3, "edge endpoint must be an int, got True"),
        ((1, 2, 3), 3, "edge must be a pair of vertices"),
        ((1, 2), 2.0, "gadget_length must be an int, got 2.0"),
    ])
    def test_rejects_what_is_not_an_int(self, build, edge, length, message):
        with pytest.raises(hrlq.ReductionError, match=re.escape(message)):
            build(edge, length)

    @pytest.mark.parametrize("length", [2, 3, 5])
    def test_no_other_perfect_matchings(self, length):
        gadget = hrlq.gadget_instance((1, 2), length)
        found = {frozenset(m.assignment.items()) for m in hrlq.enumerate_feasible(gadget)}
        m0, m1 = hrlq.gadget_matchings((1, 2), length)
        assert found == {frozenset(m0), frozenset(m1)}


class TestMatchingFromCover:
    def test_triangle_cover_bound_and_exact_count(self):
        params = hrlq.VCReductionParams(10)
        inst = hrlq.vc_to_min_ep(TRIANGLE, params)
        m = hrlq.matching_from_cover(TRIANGLE, params, {1, 2})
        assert hrlq.is_feasible(inst, m)
        count = len(hrlq.envy_pairs(inst, m))
        assert count <= 3 * 3 + 3
        assert count == 3  # one internal envy-pair per gadget, none elsewhere

    def test_single_edge_cover(self):
        params = hrlq.VCReductionParams(2)
        inst = quiet(hrlq.vc_to_min_ep, SINGLE_EDGE, params)
        m = quiet(hrlq.matching_from_cover, SINGLE_EDGE, params, {1})
        assert hrlq.is_feasible(inst, m)
        assert hrlq.envy_pairs(inst, m) == (("s1_2_0_1", "t1_2_0_1"),)

    def test_not_a_cover(self):
        with pytest.raises(hrlq.NotACover):
            hrlq.matching_from_cover(TRIANGLE, hrlq.VCReductionParams(10), {3})

    def test_oversized_cover(self):
        with pytest.raises(hrlq.WrongSize):
            hrlq.matching_from_cover(TRIANGLE, hrlq.VCReductionParams(10), {1, 2, 3})

    def test_small_cover_padded(self):
        graph = hrlq.SourceGraph(3, [(1, 2)], k=2)
        params = hrlq.VCReductionParams(2)
        m = quiet(hrlq.matching_from_cover, graph, params, {1})
        # Padding adds vertex 2; cover residents take v1 and v2 in order.
        assert m.assignment["c1"] == "v1"
        assert m.assignment["c2"] == "v2"
        assert m.assignment["f1"] == "v3"

    def test_uses_protecting_side_per_edge(self):
        params = hrlq.VCReductionParams(2)
        graph = hrlq.SourceGraph(3, [(1, 2), (2, 3)], k=1)
        m = quiet(hrlq.matching_from_cover, graph, params, {2})
        m0_12, m1_12 = hrlq.gadget_matchings((1, 2), 2)
        m0_23, m1_23 = hrlq.gadget_matchings((2, 3), 2)
        items = set(m.assignment.items())
        assert set(m0_12) <= items  # v2 covers (1,2) as second endpoint
        assert set(m1_23) <= items  # v2 covers (2,3) as first endpoint


class TestCertificatesAgainstInstances:
    """Certificates are built without the instance; validated against it they must not change."""

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("length", [2, 3, None])
    def test_cover_certificate(self, graph, length):
        params = hrlq.VCReductionParams(length)
        inst = quiet(hrlq.vc_to_min_ep, graph, params)
        covers = [s for s in vertex_sets(graph, range(graph.k + 1))
                  if all(i in s or j in s for i, j in graph.edges)]
        assert covers
        for cover in covers:
            m = hrlq.matching_from_cover(graph, params, cover)
            want = hrlq.make_matching(inst, m.pairs())
            assert m == want
            assert m.pairs() == want.pairs()  # resident declaration order

    @pytest.mark.parametrize("graph", GRAPHS)
    @pytest.mark.parametrize("copies", [1, 2, None])
    def test_clique_certificate(self, graph, copies):
        params = hrlq.CliqueReductionParams(copies)
        inst = quiet(hrlq.clique_to_min_er, graph, params)
        edges = set(graph.edges)
        for clique in vertex_sets(graph, [graph.k]):
            if all((a, b) in edges for a, b in itertools.combinations(sorted(clique), 2)):
                m = hrlq.matching_from_clique(graph, params, clique)
                want = hrlq.make_matching(inst, m.pairs())
                assert m == want
                assert m.pairs() == want.pairs()

    @pytest.mark.parametrize("certify, params, what", [
        (hrlq.matching_from_cover, hrlq.VCReductionParams(10), "cover"),
        (hrlq.matching_from_clique, hrlq.CliqueReductionParams(2), "clique"),
    ])
    def test_unknown_vertex_rejected(self, certify, params, what):
        with pytest.raises(hrlq.ReductionError, match=rf"{what} names unknown vertices: \[0\]"):
            certify(TRIANGLE, params, {0, 1})
        # A vertex is a plain int: nothing is rounded, and True is not vertex 1.
        for vertices in ([1.7, 2.2], [1, 2.0], [True, 2], ["1", "2"]):
            with pytest.raises(hrlq.ReductionError, match=f"{what} vertex must be an int"):
                certify(TRIANGLE, params, vertices)
        # A certificate is a collection of vertices: not None, and not a str of digits.
        for vertices, kind in [(None, "NoneType"), ("12", "str"), (1, "int")]:
            with pytest.raises(hrlq.ReductionError,
                               match=f"^{what} must be a collection, got {kind}$"):
                certify(TRIANGLE, params, vertices)

    def test_bad_parameters_still_rejected(self):
        with pytest.raises(hrlq.ReductionError, match="gadget_length"):
            hrlq.matching_from_cover(hrlq.SourceGraph(2, [], k=1), hrlq.VCReductionParams(1), {1})
        with pytest.raises(hrlq.ReductionError, match="copies"):
            hrlq.matching_from_clique(hrlq.SourceGraph(2, [], k=1), hrlq.CliqueReductionParams(0), {1})


class TestCliqueGenerator:
    def test_four_cycle_sizes(self):
        inst = hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(5))
        assert len(inst.residents) == 4 * 5 + 4
        assert len(inst.hospitals) == 5
        assert inst.quotas["x"] == (20, 20)
        assert inst.quotas["v1"] == (1, 1)

    def test_edge_residents_rank_both_endpoints_then_sink(self):
        inst = hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(5))
        assert inst.resident_prefs["e1_2_1"] == ("v1", "v2", "x")
        assert inst.hospital_prefs["x"][0] == "e1_2_1"
        assert len(inst.hospital_prefs["x"]) == 20

    def test_every_feasible_matching_fills_sink_with_edge_residents(self):
        graph = hrlq.SourceGraph(2, [(1, 2)], k=1)
        inst = quiet(hrlq.clique_to_min_er, graph, hrlq.CliqueReductionParams(1))
        for m in hrlq.enumerate_feasible(inst):
            assert m.assignment["e1_2_1"] == "x"

    def test_rejects_bad_copies_and_warns_on_small(self):
        with pytest.raises(hrlq.ReductionError):
            hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(0))
        for bad in (1.5, True, "2"):
            with pytest.raises(hrlq.ReductionError,
                               match=re.escape(f"copies must be an int, got {bad!r}")):
                hrlq.CliqueReductionParams(bad)
        with pytest.warns(hrlq.SeparationBoundWarning):
            hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(4))

    def test_generator_deterministic(self):
        a = hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(5))
        b = hrlq.clique_to_min_er(FOUR_CYCLE, hrlq.CliqueReductionParams(5))
        assert a == b


class TestMatchingFromClique:
    def test_pendant_triangle_bound_and_exact_count(self):
        params = hrlq.CliqueReductionParams(5)
        inst = hrlq.clique_to_min_er(PENDANT_TRIANGLE, params)
        m = hrlq.matching_from_clique(PENDANT_TRIANGLE, params, {1, 2, 3})
        assert hrlq.is_feasible(inst, m)
        bound = (4 - math.comb(3, 2)) * 5 + 4
        residents = hrlq.envy_residents(inst, m)
        assert len(residents) <= bound
        # Only the five copies of the pendant edge envy (their endpoint v3/v4
        # holds a filler or cover resident ranked appropriately).
        assert set(residents) == {f"e3_4_{c}" for c in range(1, 6)}

    def test_two_clique_is_any_edge(self):
        graph = hrlq.SourceGraph(3, [(1, 2), (2, 3)], k=2)
        params = hrlq.CliqueReductionParams(4)
        inst = hrlq.clique_to_min_er(graph, params)
        m = hrlq.matching_from_clique(graph, params, {2, 3})
        assert hrlq.is_feasible(inst, m)
        assert len(hrlq.envy_residents(inst, m)) <= (2 - 1) * 4 + 3

    def test_not_a_clique(self):
        with pytest.raises(hrlq.NotAClique):
            hrlq.matching_from_clique(FOUR_CYCLE, hrlq.CliqueReductionParams(5), {1, 2, 3})

    def test_wrong_size(self):
        with pytest.raises(hrlq.WrongSize):
            hrlq.matching_from_clique(PENDANT_TRIANGLE, hrlq.CliqueReductionParams(5), {1, 2})
