import copy
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Optional, get_type_hints

import pytest

import rerank_distill
from rerank_distill.config import PipelineConfig
from rerank_distill.models import (
    CandidateSet,
    EvalReport,
    Qrels,
    Query,
    Ranking,
    SamplingConfig,
    TrajectorySample,
    _exact_types,
    _Value,
    text_types,
)
from rerank_distill.sampling import EndpointSettings, GenerationResult, MockMode, MockProfile, PromptTemplate


def test_query_requires_id():
    with pytest.raises(ValueError, match="non-empty"):
        Query(id="", text="anything")


def test_candidate_set_requires_doc_ids():
    with pytest.raises(ValueError, match="empty doc_id"):
        CandidateSet(query_id="q", doc_ids=("a", ""), texts=("t", "t"))


def test_candidate_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="duplicate"):
        CandidateSet(query_id="q", doc_ids=("a", "a"), texts=("t", "t"))
    with pytest.raises(ValueError, match="at least one"):
        CandidateSet(query_id="q", doc_ids=(), texts=())


@pytest.mark.parametrize("doc_ids, texts", [(("a", "b"), ("t",)), (("a",), ("t", "u"))])
def test_candidate_set_refuses_texts_of_another_length(doc_ids, texts):
    """Alias [i] is doc_ids[i-1] with texts[i-1]: a text without its doc
    id, or a doc id without its text, shifts every alias after it."""
    with pytest.raises(ValueError, match=f"{len(doc_ids)} doc_ids but {len(texts)} texts"):
        CandidateSet(query_id="q", doc_ids=doc_ids, texts=texts)


def test_qrels_rejects_negative_grades():
    with pytest.raises(ValueError, match="negative grade"):
        Qrels(judgments={("q", "d"): -1})
    q = Qrels(judgments={("q", "d"): 2})
    assert q.grade("q", "d") == 2
    assert q.grade("q", "other") == 0


def test_ranking_rejects_duplicates_and_empty_groups():
    with pytest.raises(ValueError, match="twice"):
        Ranking(groups=(("a",), ("b", "a")))
    with pytest.raises(ValueError, match="non-empty"):
        Ranking(groups=(("a",), ()))
    r = Ranking(groups=(("a",), ("b", "c")))
    assert r.flatten() == ("a", "b", "c")


def test_ranking_of_no_groups_is_refused():
    """It would be written as `[]`, which no store reader accepts."""
    with pytest.raises(ValueError, match="at least one tie group"):
        Ranking(groups=())


@pytest.mark.parametrize("groups", [[("a",)], [["a"], ["b"]]])
def test_ranking_of_groups_in_a_list_is_refused(groups):
    """A list is refused as a string is, with a ValueError, not left to
    fail in the hash."""
    with pytest.raises(ValueError, match="Ranking groups must be a tuple of tie groups, got list"):
        Ranking(groups=groups)


def test_ranking_equality_is_tie_aware():
    tied = Ranking(groups=(("a", "b"),))
    strict = Ranking(groups=(("a",), ("b",)))
    assert tied != strict
    assert tied == Ranking(groups=(("a", "b"),))


def test_ranking_hash_is_the_dataclass_hash_of_its_groups():
    for groups in [(("a",),), (("a", "b"),), (("a",), ("b",)), (("b",), ("a", "c"))]:
        assert hash(Ranking(groups=groups)) == hash((groups,))


def test_ranking_copies_hash_as_built():
    r = Ranking(groups=(("a",), ("b", "c")))
    for copied in (copy.copy(r), copy.deepcopy(r)):
        assert copied == r and hash(copied) == hash(r)
        assert copied in {r}
    moved = Ranking(groups=(("c",), ("a", "b")))
    assert hash(moved) == hash(((("c",), ("a", "b")),))
    assert moved in {Ranking(groups=(("c",), ("a", "b")))}
    assert moved not in {r}


# Run with another PYTHONHASHSEED: prints the string hash there and a
# pickled Ranking, as hex.
_PICKLE_PROBE = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from rerank_distill.models import Ranking
print(hash("a"), pickle.dumps(Ranking(groups=(("a",), ("b", "c")))).hex())
"""


def test_ranking_pickled_under_another_hash_seed_is_found_in_a_set():
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(rerank_distill.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", _PICKLE_PROBE, src], capture_output=True, text=True,
                            timeout=60, env={**os.environ, "PYTHONHASHSEED": seed})
    assert result.returncode == 0, result.stderr
    their_str_hash, blob = result.stdout.split()
    assert int(their_str_hash) != hash("a")  # the seeds differ, so a carried hash would be wrong here
    loaded = pickle.loads(bytes.fromhex(blob))
    assert loaded == Ranking(groups=(("a",), ("b", "c")))
    assert loaded in {Ranking(groups=(("a",), ("b", "c"))), Ranking(groups=(("a", "b", "c"),))}


def _sample(**overrides):
    base = dict(
        query_id="q",
        sample_index=1,
        raw_text="[1] > [2]",
        reasoning_text="",
        final_ranking=Ranking(groups=(("1",), ("2",))),
        ranking_sequence=(Ranking(groups=(("1",), ("2",))),),
        token_len=5,
        token_len_source="approximated",
    )
    base.update(overrides)
    return TrajectorySample(**base)


def test_trajectory_sample_invariants():
    assert _sample().valid
    with pytest.raises(ValueError, match="final_ranking"):
        _sample(final_ranking=None, valid=True)
    with pytest.raises(ValueError, match="token_len"):
        _sample(token_len=-1)
    with pytest.raises(ValueError, match="score"):
        _sample(score=1.5)
    with pytest.raises(ValueError, match="sample_index"):
        _sample(sample_index=0)
    # invalid samples may omit the ranking
    s = _sample(final_ranking=None, ranking_sequence=(), valid=False, error="boom")
    assert not s.valid


@pytest.mark.parametrize("field, value, message", [
    ("score", True, "field 'score' must be float or null, got bool"),
    ("valid", 1, "field 'valid' must be bool, got int"),
    ("token_len", "17", "field 'token_len' must be int, got str"),
    ("coverage", 1, "field 'coverage' must be float or null, got int"),
    ("final_ranking", (("1",), ("2",)), "field 'final_ranking' must be Ranking or null, got tuple"),
    ("ranking_sequence", (("1",), ("2",)), "field 'ranking_sequence' must hold Rankings, got tuple"),
])
def test_trajectory_sample_refuses_a_field_of_another_type(field, value, message):
    with pytest.raises(ValueError, match=message):
        _sample(**{field: value})


@pytest.mark.parametrize("groups", [((1,), (2,)), ("12", ("3",))])
def test_ranking_refuses_groups_other_than_tuples_of_strings(groups):
    with pytest.raises(ValueError, match="Ranking groups must be non-empty tuples of doc-id strings"):
        Ranking(groups=groups)


def test_sampling_config_invariants():
    ok = SamplingConfig(k_samples=16, temperature=0.7, top_p=0.95, max_tokens=8192)
    assert ok.max_in_flight >= 1
    for kwargs in (
        dict(k_samples=0),
        dict(top_p=0.0),
        dict(top_p=1.5),
        dict(temperature=-0.1),
        dict(max_tokens=0),
        dict(max_in_flight=0),
    ):
        base = dict(k_samples=1, temperature=0.5, top_p=0.95, max_tokens=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SamplingConfig(**base)


def test_eval_report_checks_means():
    per_query = {"a": (0.4, 100), "b": (0.8, 300)}
    EvalReport(per_query=per_query, mean_ndcg10=0.6, mean_len=200.0)
    with pytest.raises(ValueError, match="mean_ndcg10"):
        EvalReport(per_query=per_query, mean_ndcg10=0.7, mean_len=200.0)
    with pytest.raises(ValueError, match="at least one"):
        EvalReport(per_query={}, mean_ndcg10=0.0, mean_len=0.0)


def test_eval_report_compares_means_at_a_report_file_resolution():
    # Each value and the mean rounded to 6 decimal places, as a report file
    # stores them: the values average 0.3333335, the mean reads 0.333334.
    EvalReport(per_query={"a": (0.333333, 10), "b": (0.333334, 20)}, mean_ndcg10=0.333334, mean_len=15.0)
    with pytest.raises(ValueError, match="member 'mean_len' is 15.000002"):
        EvalReport(per_query={"a": (0.5, 10), "b": (0.5, 20)}, mean_ndcg10=0.5, mean_len=15.000002)


@pytest.mark.parametrize("per_query, means, message", [
    ({"a": (0.5, 10.0)}, (0.5, 10.0), r"member per_query\['a'\]\['gen_len'\] must be int, got float"),
    ({"a": (True, 10)}, (1.0, 10.0), r"member per_query\['a'\]\['ndcg10'\] must be int or float, got bool"),
    ({"a": [0.5, 10]}, (0.5, 10.0), r"member per_query\['a'\] must be an \(ndcg10, gen_len\) pair, got \[0.5, 10\]"),
    ({"a": (0.5, 10, 1)}, (0.5, 10.0), r"member per_query\['a'\] must be an \(ndcg10, gen_len\) pair"),
    ({"a": (0.5, 10)}, ("0.5", 10.0), "member 'mean_ndcg10' must be int or float, got str"),
    ({"a": (0.5, 10)}, (0.5, None), "member 'mean_len' must be int or float, got NoneType"),
    ([("a", (0.5, 10))], (0.5, 10.0), "member 'per_query' must map at least one query"),
])
def test_eval_report_refuses_a_member_of_another_type(per_query, means, message):
    with pytest.raises(ValueError, match=message):
        EvalReport(per_query, *means)


def test_eval_report_takes_an_int_where_a_float_belongs():
    assert EvalReport({"a": (1, 10)}, 1, 10).mean_len == 10


def test_eval_report_holds_an_int_mean_as_the_float_it_equals():
    report = EvalReport({"a": (1, 10)}, 1, 10)
    assert (report.mean_ndcg10, report.mean_len) == (1.0, 10.0)
    assert type(report.mean_ndcg10) is type(report.mean_len) is float


@pytest.mark.parametrize("pair, message", [
    ((math.inf, 10), r"member per_query\['a'\]\['ndcg10'\] must lie in \[0, 1\], got inf"),
    ((-math.inf, 10), r"\['ndcg10'\] must lie in \[0, 1\], got -inf"),
    ((math.nan, 10), r"\['ndcg10'\] must lie in \[0, 1\], got nan"),
    ((7.5, 10), r"\['ndcg10'\] must lie in \[0, 1\], got 7.5"),
    ((-0.25, 10), r"\['ndcg10'\] must lie in \[0, 1\], got -0.25"),
    ((0.5, -3), r"member per_query\['a'\]\['gen_len'\] must be >= 0, got -3"),
])
def test_eval_report_refuses_a_member_out_of_range(pair, message):
    with pytest.raises(ValueError, match=message):
        EvalReport({"a": pair}, *pair)


@pytest.mark.parametrize("pair", [(0, 0), (0.0, 0), (1, 5), (1.0, 5)])
def test_eval_report_takes_the_ends_of_each_range(pair):
    EvalReport({"a": pair}, *pair)


def test_union_annotations_read_alike():
    assert _exact_types(Optional[int]) == _exact_types(int | None) == (int, type(None))
    assert text_types(Optional[float]) == (int, float, type(None))


# (type, a function that builds valid arguments for it anew, whether it is
# hashable).
_VALUE_TYPES = [
    (Query, lambda: ("q1", "what is it"), True),
    (CandidateSet, lambda: ("q1", ("d1", "d2"), ("a", "b")), True),
    (Qrels, lambda: ({("q1", "d1"): 2, ("q1", "d2"): 0},), False),
    (Ranking, lambda: ((("a",), ("b", "c")),), True),
    (TrajectorySample, lambda: ("q1", 2, "raw", "reasoning", Ranking((("a",), ("b",))),
                                (Ranking((("b", "a"),)), Ranking((("a",), ("b",)))),
                                7, "approximated", 0.5, True, 1.0, None, "hash"), True),
    (SamplingConfig, lambda: (16, 0.7, 0.95, 8192, "teacher", 7, 2), True),
    (EvalReport, lambda: ({"q1": (0.5, 10)}, 0.5, 10.0), False),
    (GenerationResult, lambda: ("text", 5, "stop", 12), True),
    (PromptTemplate, lambda: ("v1", "system", "{query} {passages}"), True),
    (MockMode, lambda: ("worst", 2, 1, 1), True),
    (MockProfile, lambda: ((MockMode(), MockMode("shuffled")),), True),
    (EndpointSettings, lambda: ("http://host/v1", "teacher", "KEY", 30.0, 2, 0.25), True),
    (PipelineConfig, lambda: (EndpointSettings(), {"distill": {"k_samples": 2}}, MockProfile(), 3), False),
]


def test_every_value_type_has_a_contract_entry():
    """models, sampling and config are all imported here, so each value
    type of the package is a subclass of _Value."""
    covered = {cls for cls, _, _ in _VALUE_TYPES}
    missing = [cls.__qualname__ for cls in _Value.__subclasses__() if cls not in covered]
    assert not missing, f"value types with no _VALUE_TYPES entry: {missing}"


@pytest.mark.parametrize("cls, make_args, hashable", _VALUE_TYPES, ids=[t[0].__name__ for t in _VALUE_TYPES])
def test_value_type_contract(cls, make_args, hashable):
    """Every value type of the package is built by position or keyword
    from its annotated fields, compares and hashes by field values, refuses
    any attribute change and reads back as Name(field=value, ...)."""
    names = list(get_type_hints(cls))
    assert list(inspect.signature(cls).parameters) == names
    value, same = cls(*make_args()), cls(**dict(zip(names, make_args())))
    # A name an __init__ binds before its fill would be set as a field too.
    assert list(vars(value)) == list(vars(same)) == names + (["_hash"] if cls is Ranking else [])
    values = tuple(getattr(value, name) for name in names)
    assert values == make_args()
    assert value is not same and value == same and not value != same
    assert value != values and value != object()
    if hashable:
        assert hash(value) == hash(same) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(value)
    for name in [*names, "other"]:
        with pytest.raises(AttributeError, match=repr(name)):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=repr(name)):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == values
    assert repr(value) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
