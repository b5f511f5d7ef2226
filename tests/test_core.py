"""Model validation and the envy/blocking/feasibility predicates."""

import random
import sys

import pytest

import hrlq
from helpers import (
    check_tables_by_name,
    exhaustive_two_by_two,
    instance_a,
    instance_b,
    naive_blocking_pairs,
    naive_envy_pairs,
    random_feasible_instances,
    random_instance,
    worst_occupant_ranks,
)

IA = instance_a()
IB = instance_b()
MA = hrlq.make_matching(IA, [("r2", "h1"), ("r1", "h2")])
MB = hrlq.make_matching(IB, [("r1", "h2")])


class TestValidation:
    def test_well_formed_instance_accepted(self):
        assert IA.residents == ("r1", "r2")
        assert IA.edges == (("r1", "h1"), ("r1", "h2"), ("r2", "h1"))
        assert IA.quotas["h1"] == (1, 1)

    def test_quota_inversion(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (2, 1)}
            )
        assert any("quota inversion at h" in v for v in exc.value.violations)

    def test_one_sided_acceptability(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r"], ["h"], {"r": ["h"]}, {"h": []}, {"h": (0, 1)}
            )
        assert any("one-sided acceptability (r,h)" in v for v in exc.value.violations)

    def test_duplicate_preference_entry(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r"], ["h"], {"r": ["h", "h"]}, {"h": ["r"]}, {"h": (0, 1)}
            )
        assert any("duplicate hospital h" in v for v in exc.value.violations)

    def test_unknown_identifier(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r"], ["h"], {"r": ["h", "ghost"]}, {"h": ["r"]}, {"h": (0, 1)}
            )
        assert any("unknown hospital ghost" in v for v in exc.value.violations)

    def test_preference_list_for_unknown_resident(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r1"], ["h1"], {"r1": ["h1"], "rX": ["h1"]}, {"h1": ["r1"]}, {"h1": (0, 1)}
            )
        assert exc.value.violations == ("preference list for unknown resident rX",)

    def test_preference_list_for_unknown_hospital(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r1"], ["h1"], {"r1": ["h1"]}, {"h1": ["r1"], "hX": ["r1"]}, {"h1": (0, 1)}
            )
        assert exc.value.violations == ("preference list for unknown hospital hX",)

    @pytest.mark.parametrize("quota", [(True, 2), (0, 2.7), ("1", "2"), "12", 5, (0, 1, 2)])
    def test_quota_bounds_must_be_plain_ints(self, quota):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": quota})
        assert exc.value.violations == ("missing or malformed quota for h",)

    @pytest.mark.parametrize("residents, hospitals, resident_prefs, hospital_prefs, quotas, violation", [
        (["r"], ["h", "h"], {"r": []}, {"h": []}, {"h": (0, 1)}, "duplicate hospital name h"),
        (["x"], ["x"], {"x": []}, {"x": []}, {"x": (0, 1)},
         "name x used for both a resident and a hospital"),
        (["r"], ["h"], {"r": []}, {"h": []}, {"h": (0, 1), "g": (0, 1)},
         "quota for unknown hospital g"),
        (["r"], ["h"], {"r": []}, {"h": []}, {"h": (-1, 1)}, "negative lower quota at h"),
        (["r"], ["h"], {"r": ["h"]}, {"h": ["r", "r"]}, {"h": (0, 1)},
         "duplicate resident r in preference list of h"),
        (["r"], ["h"], {"r": ["h"]}, {"h": ["r", "ghost"]}, {"h": (0, 1)},
         "unknown resident ghost in preference list of h"),
        (["r"], ["h"], {"r": []}, {"h": ["r"]}, {"h": (0, 1)},
         "one-sided acceptability (r,h): h lists r but r does not list h"),
    ])
    def test_each_violation_is_named(self, residents, hospitals, resident_prefs,
                                     hospital_prefs, quotas, violation):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(residents, hospitals, resident_prefs, hospital_prefs, quotas)
        assert violation in exc.value.violations

    def test_names_the_instance_format_cannot_read_back(self):
        # Every code point str.split() breaks at: \x1c-\x1f, \x85, U+2028 and
        # U+3000 among them, not only ASCII space.
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert len(spaces) == 29 and {"\x1c", "\x85", "\u2028", "\u3000"} <= set(spaces)
        for bad in ("", "a b", "a:b", "a#b", *spaces, *(f"a{c}b" for c in spaces)):
            for residents, hospitals in (([bad], ["h"]), (["r"], [bad])):
                r, h = residents[0], hospitals[0]
                with pytest.raises(hrlq.InvalidInstanceError) as exc:
                    hrlq.validate_instance(residents, hospitals, {r: [h]}, {h: [r]}, {h: (0, 1)})
                assert exc.value.violations == (
                    f"malformed name {bad!r}: empty, or contains whitespace, ':' or '#'",
                )

    def test_names_are_any_other_token(self):
        # A zero-width space, a byte-order mark and an accented letter are no
        # whitespace to str.split(), so names holding them survive a round trip.
        residents, hospitals = ["r\u200b", "\ufeffr", "r\u00e9"], ["h\u200b", "h\ufeff", "\u00e9"]
        inst = hrlq.validate_instance(
            residents, hospitals,
            {r: [h] for r, h in zip(residents, hospitals)},
            {h: [r] for r, h in zip(residents, hospitals)},
            dict.fromkeys(hospitals, (0, 1)),
        )
        text = hrlq.serialize_instance(inst)
        parsed = hrlq.parse_instance(text)
        assert parsed == inst
        assert parsed.residents + parsed.hospitals == tuple(residents + hospitals)
        assert hrlq.serialize_instance(parsed) == text

    def test_all_violations_reported_at_once(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r", "r"], ["h"], {"r": ["h", "h"]}, {"h": []}, {"h": (3, 1)}
            )
        kinds = "\n".join(exc.value.violations)
        assert "duplicate resident name r" in kinds
        assert "quota inversion" in kinds
        assert "duplicate hospital h" in kinds

    def test_every_kind_in_order_each_violation_once(self):
        with pytest.raises(hrlq.InvalidInstanceError) as exc:
            hrlq.validate_instance(
                ["r", "r", "x", "a b", "a b"],
                ["h", "h", "x", "g", "q"],
                {"r": ["h", "h", "ghost", "g"], "x": [], "a b": [], "rX": ["h"]},
                {"h": ["r", "r", "nobody", "x"], "g": [], "x": [], "q": [], "hX": []},
                {"h": (3, 1), "g": (-1, 0), "x": (0, 1), "zz": (0, 1)},
            )
        assert exc.value.violations == (
            "malformed name 'a b': empty, or contains whitespace, ':' or '#'",
            "duplicate resident name r",
            "duplicate resident name a b",
            "duplicate hospital name h",
            "name x used for both a resident and a hospital",
            "preference list for unknown resident rX",
            "preference list for unknown hospital hX",
            "quota for unknown hospital zz",
            "quota inversion at h: lower 3 exceeds upper 1",
            "negative lower quota at g",
            "missing or malformed quota for q",
            "duplicate hospital h in preference list of r",
            "unknown hospital ghost in preference list of r",
            "duplicate resident r in preference list of h",
            "unknown resident nobody in preference list of h",
            "one-sided acceptability (r,g): r lists g but g does not list r",
            "one-sided acceptability (x,h): h lists x but x does not list h",
        )

    def test_matching_validation(self):
        with pytest.raises(hrlq.InvalidMatchingError, match="unacceptable pair"):
            hrlq.make_matching(IA, [("r2", "h2")])
        with pytest.raises(hrlq.InvalidMatchingError, match="more than once"):
            hrlq.make_matching(IA, [("r1", "h1"), ("r1", "h2")])
        with pytest.raises(hrlq.InvalidMatchingError, match="unknown resident"):
            hrlq.make_matching(IA, [("zz", "h1")])
        with pytest.raises(hrlq.InvalidMatchingError, match="unknown hospital zz"):
            hrlq.make_matching(IA, [("r1", "zz")])


class TestCompiledTables:
    """The index maps, edges and compiled tables against a rebuild from the string fields."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        check_tables_by_name(random_instance(random.Random(seed), max_residents=8,
                                             max_hospitals=5, max_upper=3))

    def test_every_two_by_two_instance(self):
        for inst in exhaustive_two_by_two():
            check_tables_by_name(inst)


class TestFeasibility:
    def test_unique_feasible_matching(self):
        assert hrlq.is_feasible(IA, MA)

    def test_empty_matching_deficient(self):
        assert not hrlq.is_feasible(IA, hrlq.EMPTY_MATCHING)

    def test_zero_lower_quotas_empty_ok(self):
        inst = hrlq.validate_instance(
            ["r"], ["h"], {"r": ["h"]}, {"h": ["r"]}, {"h": (0, 1)}
        )
        assert hrlq.is_feasible(inst, hrlq.EMPTY_MATCHING)

    def test_removing_resident_above_lower_quota_stays_feasible(self):
        inst = hrlq.validate_instance(
            ["r1", "r2"], ["h"],
            {"r1": ["h"], "r2": ["h"]},
            {"h": ["r1", "r2"]},
            {"h": (1, 2)},
        )
        full = hrlq.make_matching(inst, [("r1", "h"), ("r2", "h")])
        assert hrlq.is_feasible(inst, full)
        assert hrlq.is_feasible(inst, hrlq.make_matching(inst, [("r1", "h")]))
        assert not hrlq.is_feasible(inst, hrlq.EMPTY_MATCHING)


class TestEnvy:
    def test_instance_a_envy(self):
        assert hrlq.envy_pairs(IA, MA) == (("r1", "h1"),)
        assert hrlq.envy_residents(IA, MA) == ("r1",)
        assert not hrlq.is_envy_free(IA, MA)

    def test_empty_matching_no_envy(self):
        assert hrlq.envy_pairs(IA, hrlq.EMPTY_MATCHING) == ()
        assert hrlq.is_envy_free(IA, hrlq.EMPTY_MATCHING)

    def test_instance_b_envy_free(self):
        assert hrlq.envy_pairs(IB, MB) == ()
        assert hrlq.is_envy_free(IB, MB)

    def test_resident_envying_twice_counted_once(self):
        inst = hrlq.validate_instance(
            ["r1", "r2", "r3"],
            ["h1", "h2", "h3"],
            {"r1": ["h1", "h2", "h3"], "r2": ["h1"], "r3": ["h2"]},
            {"h1": ["r1", "r2"], "h2": ["r1", "r3"], "h3": ["r1"]},
            {"h1": (0, 1), "h2": (0, 1), "h3": (0, 1)},
        )
        m = hrlq.make_matching(inst, [("r1", "h3"), ("r2", "h1"), ("r3", "h2")])
        assert hrlq.envy_pairs(inst, m) == (("r1", "h1"), ("r1", "h2"))
        assert hrlq.envy_residents(inst, m) == ("r1",)


class TestBlocking:
    def test_envy_pair_blocks(self):
        assert hrlq.blocking_pairs(IA, MA) == (("r1", "h1"),)

    def test_wasteful_pair_blocks_without_envy(self):
        assert hrlq.envy_pairs(IB, MB) == ()
        assert hrlq.blocking_pairs(IB, MB) == (("r1", "h1"),)

    def test_everyone_at_top_choice_no_blocks(self):
        inst = hrlq.validate_instance(
            ["r1", "r2"], ["h1", "h2"],
            {"r1": ["h1"], "r2": ["h2"]},
            {"h1": ["r1"], "h2": ["r2"]},
            {"h1": (0, 1), "h2": (0, 1)},
        )
        m = hrlq.make_matching(inst, [("r1", "h1"), ("r2", "h2")])
        assert hrlq.blocking_pairs(inst, m) == ()


class TestAnalyze:
    def test_report_fields(self):
        report = hrlq.analyze(IA, MA)
        assert report.feasible
        assert report.envy_pairs == (("r1", "h1"),)
        assert report.envy_residents == ("r1",)
        assert report.blocking_pairs == (("r1", "h1"),)
        assert report.deficient_hospitals == ()
        assert report.over_subscribed_hospitals == ()

    def test_deficient_and_oversubscribed(self):
        report = hrlq.analyze(IA, hrlq.EMPTY_MATCHING)
        assert report.deficient_hospitals == ("h1", "h2")
        assert not report.feasible


class TestWithoutEdges:
    def test_deletion_preserves_order(self):
        trimmed = hrlq.without_edges(IA, [("r1", "h1")])
        assert trimmed.resident_prefs["r1"] == ("h2",)
        assert trimmed.hospital_prefs["h1"] == ("r2",)
        assert trimmed.quotas == IA.quotas

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="outside the instance"):
            hrlq.without_edges(IA, [("r2", "h2")])


class TestRandomizedProperties:
    def test_envy_pairs_subset_of_blocking_pairs(self):
        rng = random.Random(7)
        for _ in range(200):
            inst = random_instance(rng)
            for m in _sample_matchings(inst, rng):
                eps = hrlq.envy_pairs(inst, m)
                bps = set(hrlq.blocking_pairs(inst, m))
                assert set(eps) <= bps

    def test_envy_residents_is_projection(self):
        rng = random.Random(8)
        for _ in range(200):
            inst = random_instance(rng)
            for m in _sample_matchings(inst, rng):
                eps = hrlq.envy_pairs(inst, m)
                assert set(hrlq.envy_residents(inst, m)) == {r for r, _ in eps}

    def test_predicates_are_pure(self):
        rng = random.Random(9)
        for _ in range(50):
            inst = random_instance(rng)
            for m in _sample_matchings(inst, rng):
                assert hrlq.envy_pairs(inst, m) == hrlq.envy_pairs(inst, m)
                assert hrlq.blocking_pairs(inst, m) == hrlq.blocking_pairs(inst, m)
                assert hrlq.analyze(inst, m) == hrlq.analyze(inst, m)


class TestReferenceRecount:
    """The predicates against a recount from the definition that shares no code with core."""

    @staticmethod
    def _check(inst, m):
        envy, blocking = naive_envy_pairs(inst, m), naive_blocking_pairs(inst, m)
        assert hrlq.envy_pairs(inst, m) == envy
        assert hrlq.blocking_pairs(inst, m) == blocking
        report = hrlq.analyze(inst, m)
        assert report.envy_pairs == envy
        assert report.envy_residents == tuple(dict.fromkeys(r for r, _ in envy))
        assert report.blocking_pairs == blocking
        # The brute oracles' leaf counter, on a cut recounted by name,
        # unbounded and with every pair of stop values up to one past the
        # exact counts.
        choice = hrlq.core._choice(inst, m)
        cut = worst_occupant_ranks(inst, choice)
        exact = (len(envy), len({r for r, _ in envy}))
        assert hrlq.core._envy_scan(inst._options, choice, cut, 10**9, 10**9) == exact
        for stop_pairs in range(exact[0] + 2):
            for stop_residents in range(exact[1] + 2):
                got = hrlq.core._envy_scan(inst._options, choice, cut, stop_pairs, stop_residents)
                if got[0] < stop_pairs or got[1] < stop_residents:
                    assert got == exact
                else:
                    assert exact[0] >= got[0] >= stop_pairs
                    assert exact[1] >= got[1] >= stop_residents

    def test_seeded_family(self):
        checked = 0
        for inst in random_feasible_instances(11, 60, max_residents=6, max_upper=3):
            for m in hrlq.enumerate_feasible(inst):
                self._check(inst, m)
                checked += 1
        assert checked > 1000

    def test_exhaustive_two_by_two(self):
        for inst in exhaustive_two_by_two():
            for m in hrlq.enumerate_feasible(inst):
                self._check(inst, m)


def _sample_matchings(inst, rng):
    """The empty matching plus a few random greedy assignments."""
    yield hrlq.EMPTY_MATCHING
    for _ in range(3):
        pairs = []
        load = {h: 0 for h in inst.hospitals}
        for r in inst.residents:
            options = [h for h in inst.resident_prefs[r] if load[h] < inst.quotas[h][1]]
            if options and rng.random() < 0.8:
                h = rng.choice(options)
                pairs.append((r, h))
                load[h] += 1
        yield hrlq.make_matching(inst, pairs)
