"""The eight public records: construction, immutability, equality, hashing, repr, pickle, copy."""

import copy
import pickle

import pytest

import hrlq

STATS = hrlq.SolveStats(3, 1, 0, (("r1", "h2"),))

# (record class, positional arguments, its repr)
RECORDS = [
    (hrlq.Instance, (("r1",), ("h1",), {"r1": ("h1",)}, {"h1": ("r1",)}, {"h1": (0, 1)}),
     "Instance(residents=('r1',), hospitals=('h1',), resident_prefs={'r1': ('h1',)}, "
     "hospital_prefs={'h1': ('r1',)}, quotas={'h1': (0, 1)})"),
    (hrlq.Matching, ({"r1": "h1"},), "Matching(assignment={'r1': 'h1'})"),
    (hrlq.EnvyReport, ((("r1", "h1"),), ("r1",), (("r1", "h1"),), (), ("h2",), False),
     "EnvyReport(envy_pairs=(('r1', 'h1'),), envy_residents=('r1',), "
     "blocking_pairs=(('r1', 'h1'),), deficient_hospitals=(), "
     "over_subscribed_hospitals=('h2',), feasible=False)"),
    (hrlq.SolveStats, (3, 1, 0, (("r1", "h2"),)),
     "SolveStats(guesses_examined=3, level=1, nodes=0, guess=(('r1', 'h2'),))"),
    (hrlq.SolveResult, (hrlq.Matching({"r1": "h1"}), 1, hrlq.ObjectiveKind.MIN_EP, STATS),
     "SolveResult(matching=Matching(assignment={'r1': 'h1'}), objective=1, "
     "objective_kind=<ObjectiveKind.MIN_EP: 'min-ep'>, stats=SolveStats(guesses_examined=3, "
     "level=1, nodes=0, guess=(('r1', 'h2'),)))"),
    (hrlq.SourceGraph, (3, ((1, 2),), 1), "SourceGraph(n=3, edges=((1, 2),), k=1)"),
    (hrlq.VCReductionParams, (5,), "VCReductionParams(gadget_length=5)"),
    (hrlq.CliqueReductionParams, (2,), "CliqueReductionParams(copies=2)"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
FIELDS = {
    hrlq.Instance: ("residents", "hospitals", "resident_prefs", "hospital_prefs", "quotas"),
    hrlq.Matching: ("assignment",),
    hrlq.EnvyReport: ("envy_pairs", "envy_residents", "blocking_pairs", "deficient_hospitals",
                      "over_subscribed_hospitals", "feasible"),
    hrlq.SolveStats: ("guesses_examined", "level", "nodes", "guess"),
    hrlq.SolveResult: ("matching", "objective", "objective_kind", "stats"),
    hrlq.SourceGraph: ("n", "edges", "k"),
    hrlq.VCReductionParams: ("gadget_length",),
    hrlq.CliqueReductionParams: ("copies",),
}


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=IDS)
class TestContract:
    def test_positional_and_keyword_arguments_build_equal_records(self, cls, args, text):
        assert cls.__match_args__ == FIELDS[cls]
        record = cls(*args)
        assert record == cls(**dict(zip(FIELDS[cls], args)))
        assert tuple(getattr(record, name) for name in FIELDS[cls]) == args

    def test_repr(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_assignment_and_deletion_raise(self, cls, args, text):
        record = cls(*args)
        for name in (*FIELDS[cls], "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert repr(record) == text

    def test_equality_is_field_wise_within_one_class(self, cls, args, text):
        record = cls(*args)
        assert record == cls(*args)
        assert record != object()

    def test_equal_records_hash_equal(self, cls, args, text):
        if cls is hrlq.Instance:  # its preference lists and quotas are dicts
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(cls(*args))
        else:
            assert hash(cls(*args)) == hash(cls(*args))

    def test_pickle_and_deepcopy_give_back_an_equal_record(self, cls, args, text):
        record = cls(*args)
        for back in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(back) is cls and back == record and repr(back) == text
            assert vars(back) == vars(record)  # Instance's derived tables too


def test_records_of_two_classes_differ_even_with_equal_fields():
    assert hrlq.VCReductionParams(2) != hrlq.CliqueReductionParams(2)


def test_defaults():
    assert hrlq.SolveStats() == hrlq.SolveStats(0, 0, 0, ())
    assert repr(hrlq.SolveStats()) == "SolveStats(guesses_examined=0, level=0, nodes=0, guess=())"
    assert hrlq.SourceGraph(3, [(1, 2)]) == hrlq.SourceGraph(3, ((1, 2),), 0)
    assert hrlq.VCReductionParams().gadget_length is None
    assert hrlq.CliqueReductionParams().copies is None


def test_match_statement_reads_fields_by_position():
    match hrlq.SourceGraph(3, [(1, 2)], 1):
        case hrlq.SourceGraph(n, edges, k):
            assert (n, edges, k) == (3, ((1, 2),), 1)
        case _:
            pytest.fail("SourceGraph did not match its own class pattern")


class TestMatchingHash:
    def test_equal_matchings_hash_equal_whatever_their_order(self):
        first = hrlq.Matching({"r1": "h1", "r2": "h2"})
        second = hrlq.Matching({"r2": "h2", "r1": "h1"})
        assert first == second and hash(first) == hash(second)
        assert len({first, second, hrlq.EMPTY_MATCHING, hrlq.Matching({})}) == 2
        assert hash(hrlq.EMPTY_MATCHING) == hash(hrlq.Matching({}))

    def test_solve_results_hash(self):
        results = [hrlq.SolveResult(hrlq.Matching({"r1": "h1"}), 1, hrlq.ObjectiveKind.MIN_EP,
                                    hrlq.SolveStats()) for _ in range(2)]
        assert len(set(results)) == 1

    @pytest.mark.parametrize("assignment, message", [
        ([("r1", "h1")], "assignment must be a mapping, got list"),
        (None, "assignment must be a mapping, got NoneType"),
    ])
    def test_length_and_hash_refuse_what_is_not_a_mapping(self, assignment, message):
        matching = hrlq.Matching(assignment)
        for read in (len, hash):
            with pytest.raises(hrlq.InvalidMatchingError) as exc:
                read(matching)
            assert str(exc.value) == message
