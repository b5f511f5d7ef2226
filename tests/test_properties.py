"""Property tests over generated instances and graphs: format round trips, the exact
solver against the oracle and the paper-order reference, the search's
path-kept cut and leaf score against a recount, envy against blocking,
byte-stable output.

Examples are derandomized and the example database is off, so every run
checks the same inputs.
"""

import re
from itertools import combinations
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import hrlq
from helpers import check_leaf_state, paper_min_ep, random_instance

FIXED = settings(derandomize=True, database=None, max_examples=50, deadline=None)

# Instances of the seeded random family (mostly binding lower quotas), one
# per drawn seed.
INSTANCES = st.integers(0, 2**32 - 1).map(lambda seed: random_instance(Random(seed), min_residents=0))

# Any name the file grammar accepts: no whitespace, ':' or '#'.  The regex is an
# independent statement of the rule `Instance` checks with str.split().
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda name: re.fullmatch(r"[^\s:#]+", name) is not None
)


@st.composite
def renamed(draw, instance):
    """The instance with every resident and hospital given a name drawn from NAMES."""
    old = instance.residents + instance.hospitals
    new = dict(zip(old, draw(st.lists(NAMES, min_size=len(old), max_size=len(old), unique=True))))
    return hrlq.validate_instance(
        [new[r] for r in instance.residents],
        [new[h] for h in instance.hospitals],
        {new[r]: [new[h] for h in prefs] for r, prefs in instance.resident_prefs.items()},
        {new[h]: [new[r] for r in prefs] for h, prefs in instance.hospital_prefs.items()},
        {new[h]: quota for h, quota in instance.quotas.items()},
    )


@st.composite
def assignments(draw, instance):
    """Any matching of the instance's acceptable pairs, quotas ignored."""
    pairs = []
    for r in instance.residents:
        h = draw(st.sampled_from((None,) + instance.resident_prefs[r]))
        if h is not None:
            pairs.append((r, h))
    return hrlq.make_matching(instance, pairs)


def with_matching(instances):
    return instances.flatmap(lambda inst: st.tuples(st.just(inst), assignments(inst)))


@FIXED
@given(with_matching(INSTANCES.flatmap(renamed)))
def test_formats_round_trip(case):
    instance, matching = case
    text = hrlq.serialize_instance(instance)
    parsed = hrlq.parse_instance(text)
    assert parsed == instance
    assert hrlq.serialize_instance(parsed) == text
    listing = hrlq.serialize_matching(instance, matching)
    assert hrlq.parse_matching(listing, parsed) == matching


@st.composite
def graphs(draw):
    """Any SourceGraph on 1 to 8 vertices: any subset of its pairs, in any order."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return hrlq.SourceGraph(n, edges)


@FIXED
@given(graphs())
def test_graph_format_round_trip(graph):
    text = hrlq.serialize_graph(graph)
    parsed = hrlq.parse_graph(text)
    assert parsed == graph
    assert hrlq.serialize_graph(parsed) == text


# Few random instances need envy, so this property draws more of them.
@settings(FIXED, max_examples=200)
@given(INSTANCES)
def test_min_ep_exact_equals_the_oracle(instance):
    if not hrlq.exists_feasible(instance):
        return
    assert hrlq.min_ep_exact(instance).objective == hrlq.brute_min_ep(instance).objective


def _outcome(solve, instance):
    """A solver's SolveResult, or the payload of the LevelCapExceeded it raised."""
    try:
        return solve(instance, level_cap=2)
    except hrlq.LevelCapExceeded as capped:
        return capped.level_cap, capped.guesses_examined


# Level cap 2 keeps the reference, which rebuilds an instance per guess, fast.
# About one drawn instance in twenty needs envy, so this draws 600.
@settings(FIXED, max_examples=600)
@given(INSTANCES)
def test_min_ep_exact_equals_the_paper_order_reference(instance):
    if not hrlq.exists_feasible(instance):
        return
    assert _outcome(hrlq.min_ep_exact, instance) == _outcome(paper_min_ep, instance)


@FIXED
@given(INSTANCES)
def test_path_cut_and_leaf_score_equal_a_recount(instance):
    check_leaf_state(instance)


@FIXED
@given(with_matching(INSTANCES))
def test_envy_pairs_are_blocking_pairs(case):
    instance, matching = case
    assert set(hrlq.envy_pairs(instance, matching)) <= set(hrlq.blocking_pairs(instance, matching))


@FIXED
@given(with_matching(INSTANCES))
def test_serialize_is_byte_identical_on_repeated_calls(case):
    instance, matching = case
    assert hrlq.serialize_instance(instance) == hrlq.serialize_instance(instance)
    assert hrlq.serialize_matching(instance, matching) == hrlq.serialize_matching(instance, matching)
