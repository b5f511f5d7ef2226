"""File grammar round trips and diagnostics."""

import itertools
import sys
import time

import pytest

import hrlq
from helpers import instance_a

IA = instance_a()
# Python (3.11, and 3.10 from 3.10.7) refuses to write an int of more digits
# than its limit, 4300 by default; an older one writes any int, so there is
# nothing to refuse there.
limited = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                             reason="no limit on int-to-str conversion")

IA_TEXT = """\
resident r1: h1 h2
resident r2: h1
hospital h1 [1,1]: r1 r2
hospital h2 [1,1]: r1
"""


class TestInstanceFormat:
    def test_serialize_canonical(self):
        assert hrlq.serialize_instance(IA) == IA_TEXT

    def test_round_trip(self):
        assert hrlq.parse_instance(hrlq.serialize_instance(IA)) == IA

    def test_round_trip_is_byte_stable(self):
        text = hrlq.serialize_instance(IA)
        assert hrlq.serialize_instance(hrlq.parse_instance(text)) == text

    def test_comments_and_blank_lines_ignored(self):
        # Lines end at LF, CR LF or CR only; U+2028 and a form feed stay in their comment.
        text = "# instance\u2028not a declaration\r\n\r" + IA_TEXT.replace(
            "resident r2: h1", "resident r2: h1  # page\x0cbreak", 1)
        assert hrlq.parse_instance(text) == IA

    def test_empty_preference_list(self):
        text = "resident r:\nhospital h [0,1]:\n"
        inst = hrlq.parse_instance(text)
        assert inst.resident_prefs["r"] == ()
        assert hrlq.serialize_instance(inst) == text

    def test_quota_inversion_flagged_with_line(self):
        with pytest.raises(hrlq.ParseError, match="line 2: quota inversion"):
            hrlq.parse_instance("resident r: h\nhospital h [2,1]: r\n")

    def test_undeclared_hospital(self):
        with pytest.raises(hrlq.ParseError, match="undeclared hospital ghost"):
            hrlq.parse_instance("resident r: ghost\n")

    def test_duplicate_preference_entry(self):
        with pytest.raises(hrlq.ParseError, match="duplicate preference entry h"):
            hrlq.parse_instance("resident r: h h\nhospital h [0,1]: r\n")

    def test_malformed_quota_token(self):
        with pytest.raises(hrlq.ParseError, match="malformed quota token"):
            hrlq.parse_instance("hospital h [1;2]: r\n")

    def test_redeclaration(self):
        with pytest.raises(hrlq.ParseError, match="already declared on line 1"):
            hrlq.parse_instance("resident r: \nresident r:\n")

    @pytest.mark.parametrize("text, message", [
        ("resident r h\n", "line 1: expected ':' after the declaration head"),
        ("hospital h [0,1]:\nhospital h [0,1]:\n", "line 2: h already declared on line 1"),
        (": r1\n", "line 1: unrecognized declaration: ': r1'"),
        ("doctor d: h\n", "line 1: unrecognized declaration"),
        ("resident r [0,1]: h\n", "line 1: unrecognized declaration"),
        ("resident r:\nhospital h [0,1]: ghost\n", "line 2: .* hospital h names undeclared resident ghost"),
        # Residents and hospitals share one namespace; a line's quota is read before its name.
        ("resident r:\nhospital r [0,1]:\n", "line 2: r already declared on line 1"),
        ("hospital h [0,1]:\nhospital h [2,1]:\n", "line 2: quota inversion at h: lower 2 exceeds upper 1"),
        # Residents' lists are checked before hospitals', wherever they stand in the file.
        ("hospital h [0,1]: ghost\nresident r: spook\n",
         "line 2: preference list of resident r names undeclared hospital spook"),
        # Quotas are ASCII digits: no other script, and no more digits than int() reads.
        ("hospital h [\u0661,\u0662]:\n", r"line 1: malformed quota token \[\u0661,\u0662\]"),
        pytest.param(f"resident r:\nhospital h [0,{'9' * 5000}]:\n", "line 2: quota of h has too many digits",
                     id="quota-of-5000-digits"),
        # A line break inside a comment other than LF, CR LF or CR ends no line.
        ("resident r1: h1  # a\u2028b\nhospital h1 [1,1]: r1 r1\n", "line 2: duplicate preference entry r1"),
    ])
    def test_malformed_declarations(self, text, message):
        with pytest.raises(hrlq.ParseError, match=message):
            hrlq.parse_instance(text)

    def test_one_sided_lists_rejected(self):
        text = "resident r: h\nresident q: h\nhospital h [0,1]: r\n"
        with pytest.raises(hrlq.InvalidInstanceError, match="one-sided"):
            hrlq.parse_instance(text)

    @limited
    @pytest.mark.parametrize("quota", [(0, 10**5000), (-10**5000, 10**5000), (10**5000, 0)],
                             ids=["upper", "both", "lower-inverted"])
    def test_quota_that_cannot_be_written_is_refused(self, quota):
        with pytest.raises(hrlq.InvalidInstanceError) as caught:
            hrlq.validate_instance(["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": quota})
        assert caught.value.violations == ("quota of h has too many digits",)

    @pytest.mark.parametrize("up", [10**639, 10**640, 10**4299],
                             ids=["640-digits", "641-digits", "4300-digits"])
    def test_quota_of_many_digits_round_trips(self, up):
        # 640 digits is the lowest limit Python allows; 4300 digits are the default limit itself.
        inst = hrlq.validate_instance(["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (0, up)})
        assert repr(inst).endswith(f"quotas={{'h': (0, {up})}})")
        assert hrlq.parse_instance(hrlq.serialize_instance(inst)) == inst

    def test_generated_instance_round_trip(self):
        tri = hrlq.SourceGraph(3, [(1, 2), (1, 3), (2, 3)], k=2)
        inst = hrlq.vc_to_min_ep(tri, hrlq.VCReductionParams(10))
        text = hrlq.serialize_instance(inst)
        assert hrlq.parse_instance(text) == inst
        assert hrlq.serialize_instance(hrlq.parse_instance(text)) == text


class TestGraphFormat:
    def test_triangle(self):
        graph = hrlq.parse_graph("p 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        assert graph.n == 3
        assert graph.edges == ((1, 2), (1, 3), (2, 3))
        assert graph.k == 0

    def test_round_trip(self):
        text = "p 4 2\ne 1 2\ne 3 4\n"
        assert hrlq.serialize_graph(hrlq.parse_graph(text)) == text

    def test_complete_graph_parses_within_budget(self):
        # The duplicate-edge check is a set lookup: as a list scan it made
        # parsing quadratic, and K200 took about 6 s.
        n, budget = 200, 1.0
        text = hrlq.serialize_graph(hrlq.SourceGraph(n, itertools.combinations(range(1, n + 1), 2)))
        start = time.monotonic()
        graph = hrlq.parse_graph(text)
        elapsed = time.monotonic() - start
        assert elapsed < budget, f"parsing K{n} took {elapsed:.2f}s, budget {budget}s"
        assert graph.m == n * (n - 1) // 2
        assert hrlq.serialize_graph(graph) == text

    @limited
    @pytest.mark.parametrize("n, edges, k, what", [
        (10**5000, [], 0, "vertex count n"),
        (-10**5000, [], 0, "vertex count n"),
        (3, [(1, 10**5000)], 0, "edge endpoint"),
        (3, [(-10**5000, 2)], 0, "edge endpoint"),
        (3, [], 10**5000, "target parameter k"),
    ], ids=["n", "negative-n", "endpoint", "negative-endpoint", "k"])
    def test_int_that_cannot_be_written_is_refused(self, n, edges, k, what):
        with pytest.raises(hrlq.ReductionError) as caught:
            hrlq.SourceGraph(n, edges, k)
        assert str(caught.value) == f"{what} has too many digits"

    def test_vertex_count_of_many_digits_round_trips(self):
        n = 10**4299
        graph = hrlq.SourceGraph(n, [(1, n)])
        assert repr(graph) == f"SourceGraph(n={n}, edges=((1, {n}),), k=0)"
        assert hrlq.parse_graph(hrlq.serialize_graph(graph)) == graph

    def test_header_count_mismatch(self):
        with pytest.raises(hrlq.ParseError, match="declares 3 edges but 1"):
            hrlq.parse_graph("p 3 3\ne 1 2\n")

    def test_edge_order_enforced(self):
        with pytest.raises(hrlq.ParseError, match=r"line 2: edge \(2,1\)"):
            hrlq.parse_graph("p 3 1\ne 2 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(hrlq.ParseError, match=r"edge \(1,9\)"):
            hrlq.parse_graph("p 3 1\ne 1 9\n")

    def test_duplicate_edge(self):
        with pytest.raises(hrlq.ParseError, match="duplicate edge"):
            hrlq.parse_graph("p 3 2\ne 1 2\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(hrlq.ParseError, match="edge before the p header"):
            hrlq.parse_graph("e 1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("p 2 1\np 2 1\ne 1 2\n", "line 2: duplicate p header"),
        ("p 2\n", "line 1: expected 'p <n> <m>'"),
        ("p two 1\n", "line 1: p header fields must be integers"),
        ("p 2 1\ne 1\n", "line 2: expected 'e <i> <j>'"),
        ("p 2 1\ne 1 b\n", "line 2: edge endpoints must be integers"),
        ("p 2 1\nx 1 2\n", "line 2: unrecognized line: 'x 1 2'"),
        ("# no header\n", "^missing p header$"),
        # Numbers are ASCII digits only: no sign, no '_', no other script.
        ("p 2 1\ne +1 2\n", "line 2: edge endpoints must be integers"),
        ("p 10 1\ne 1 1_0\n", "line 2: edge endpoints must be integers"),
        ("p 2 1\ne \u0661 \u0662\n", "line 2: edge endpoints must be integers"),
        ("p \u0662 0\n", "line 1: p header fields must be integers"),
        ("p -1 0\n", "line 1: p header fields must be integers"),
        ("p 0 0\n", "line 1: graph needs at least one vertex, got n=0"),
        ("p 3 1 # one\u2028edge\nx 1 2\n", "line 2: unrecognized line: 'x 1 2'"),
    ])
    def test_malformed_lines(self, text, message):
        with pytest.raises(hrlq.ParseError, match=message):
            hrlq.parse_graph(text)


@limited
class TestErrorsWithIntsTooLongToWrite:
    """An int too long for `str` gets the error of the function it reached, never a bare
    ValueError from writing the message."""

    TRIANGLE = hrlq.SourceGraph(3, [(1, 2), (1, 3), (2, 3)], k=2)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: hrlq.min_ep_exact(IA, level_cap=-10**5000), ValueError,
         "level_cap must be non-negative, got <int too long to write>"),
        (lambda: hrlq.brute_min_ep(IA, node_budget=-10**5000), ValueError,
         "node_budget must be non-negative, got <int too long to write>"),
        (lambda: hrlq.enumerate_feasible(IA, node_budget=-10**5000), ValueError,
         "node_budget must be non-negative, got <int too long to write>"),
        (lambda: hrlq.VCReductionParams(-10**5000), hrlq.ReductionError,
         "gadget_length has too many digits"),
        (lambda: hrlq.VCReductionParams(10**5000), hrlq.ReductionError,
         "gadget_length has too many digits"),
        (lambda: hrlq.CliqueReductionParams(10**5000), hrlq.ReductionError,
         "copies has too many digits"),
        (lambda: hrlq.matching_from_cover(TestErrorsWithIntsTooLongToWrite.TRIANGLE,
                                          hrlq.VCReductionParams(2), {1, 10**5000}),
         hrlq.ReductionError, "cover vertex has too many digits"),
        (lambda: hrlq.matching_from_clique(TestErrorsWithIntsTooLongToWrite.TRIANGLE,
                                           hrlq.CliqueReductionParams(2), [1, -10**5000]),
         hrlq.ReductionError, "clique vertex has too many digits"),
        (lambda: hrlq.SourceGraph(3, [(1, 2, 10**5000)]), hrlq.ReductionError,
         "edge must be a pair of vertices, got <tuple too long to write>"),
        (lambda: hrlq.validate_instance([10**5000], [], {}, {}, {}), hrlq.InvalidInstanceError,
         "invalid instance: residents must hold only names, got int <int too long to write>"),
        (lambda: hrlq.make_matching(IA, [("r1", 10**5000)]), hrlq.InvalidMatchingError,
         "pair must be two names, got <tuple too long to write>"),
        (lambda: hrlq.analyze(IA, hrlq.Matching({10**5000: "h1"})), hrlq.InvalidMatchingError,
         "unknown resident <int too long to write>"),
    ], ids=["level_cap", "node_budget", "enumerate_feasible", "negative-gadget_length",
            "gadget_length", "copies", "cover", "clique", "edge",
            "resident-name", "pair", "matching"])
    def test_the_functions_own_error(self, call, error, message):
        with pytest.raises(error) as caught:
            call()
        assert str(caught.value) == message


@limited
def test_lowest_int_to_str_limit_writes_640_digits_and_refuses_641():
    # 640 digits is the lowest limit Python lets a program set, so an int below
    # 10**640 is always written, whatever the limit.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        fits, too_long = 10**639, 10**640
        lists = (["r"], ["h"], {"r": ["h"]}, {"h": ["r"]})
        inst = hrlq.validate_instance(*lists, {"h": (0, fits)})
        assert hrlq.parse_instance(hrlq.serialize_instance(inst)) == inst
        assert hrlq.SourceGraph(fits, [(1, fits)]).n == fits
        assert hrlq.VCReductionParams(fits).gadget_length == fits
        assert hrlq.CliqueReductionParams(fits).copies == fits
        # A negative of 640 digits is written too: each record refuses it for its range.
        with pytest.raises(hrlq.InvalidInstanceError) as caught:
            hrlq.validate_instance(*lists, {"h": (-fits, 0)})
        assert caught.value.violations == ("negative lower quota at h",)
        for call, message in [
            (lambda: hrlq.SourceGraph(-fits, []), f"graph needs at least one vertex, got n={-fits}"),
            (lambda: hrlq.VCReductionParams(-fits), f"gadget_length must be >= 2, got {-fits}"),
            (lambda: hrlq.CliqueReductionParams(-fits), f"copies must be >= 1, got {-fits}"),
        ]:
            with pytest.raises(hrlq.ReductionError, match=f"^{message}$"):
                call()

        for value in (too_long, -too_long):
            with pytest.raises(hrlq.InvalidInstanceError) as caught:
                hrlq.validate_instance(*lists, {"h": (min(value, 0), max(value, 0))})
            assert caught.value.violations == ("quota of h has too many digits",)
            for call, message in [
                (lambda: hrlq.SourceGraph(value, []), "vertex count n has too many digits"),
                (lambda: hrlq.VCReductionParams(value), "gadget_length has too many digits"),
                (lambda: hrlq.CliqueReductionParams(value), "copies has too many digits"),
            ]:
                with pytest.raises(hrlq.ReductionError, match=f"^{message}$"):
                    call()
        with pytest.raises(hrlq.ParseError, match="^line 2: quota of h has too many digits$"):
            hrlq.parse_instance(f"resident r:\nhospital h [0,1{'0' * 640}]:\n")
    finally:
        sys.set_int_max_str_digits(old)


class TestMatchingFormat:
    def test_parse_and_serialize(self):
        m = hrlq.parse_matching("match r2 h1\nmatch r1 h2\n", IA)
        assert m.assignment == {"r1": "h2", "r2": "h1"}
        assert hrlq.serialize_matching(IA, m) == "match r1 h2\nmatch r2 h1\n"

    def test_unmatched_residents_omitted(self):
        m = hrlq.parse_matching("match r1 h1\n", IA)
        assert "r2" not in m.assignment

    def test_duplicate_resident(self):
        with pytest.raises(hrlq.ParseError, match="more than once"):
            hrlq.parse_matching("match r1 h1\nmatch r1 h2\n", IA)

    def test_unacceptable_pair(self):
        with pytest.raises(hrlq.ParseError, match=r"unacceptable pair \(r2,h2\)"):
            hrlq.parse_matching("match r2 h2\n", IA)

    def test_unknown_resident(self):
        with pytest.raises(hrlq.ParseError, match="unknown resident"):
            hrlq.parse_matching("match zz h1\n", IA)

    @pytest.mark.parametrize("line", ["pair r1 h1", "match r1", "match r1 h1 h2"])
    def test_unrecognized_line(self, line):
        with pytest.raises(hrlq.ParseError, match=f"line 1: unrecognized line: '{line}'"):
            hrlq.parse_matching(line + "\n", IA)

    def test_empty_matching_serializes_empty(self):
        assert hrlq.serialize_matching(IA, hrlq.EMPTY_MATCHING) == ""
