import json

import pytest

from exsim.evaluate import (
    EvalReport, annotated_similars, config_hash, evaluate_precision,
    evaluate_recall, precision_at_k, recall_at_k,
)
from exsim.corpus import LabeledPair


def test_recall_worked_example():
    # seed1: 3 of 4 annotated found; seed2: 1 of 2
    assert recall_at_k([(4, 3), (2, 1)]) == (0.75 + 0.5) / 2


def test_recall_ten_seed_fixture_exact():
    per_seed = [(4, 3), (2, 1), (5, 5), (1, 0), (8, 2),
                (2, 2), (4, 1), (10, 7), (3, 3), (5, 0)]
    expected = (3 / 4 + 1 / 2 + 5 / 5 + 0 / 1 + 2 / 8
                + 2 / 2 + 1 / 4 + 7 / 10 + 3 / 3 + 0 / 5) / 10
    assert recall_at_k(per_seed) == expected


def test_recall_perfect_and_validation():
    assert recall_at_k([(3, 3), (7, 7)]) == 1.0
    with pytest.raises(ValueError):
        recall_at_k([])
    with pytest.raises(ValueError):
        recall_at_k([(0, 0)])
    with pytest.raises(ValueError):
        recall_at_k([(2, 3)])


def test_precision_values():
    assert precision_at_k([3], 5) == 0.6
    assert precision_at_k([5, 5], 5) == 1.0
    assert precision_at_k([1, 0, 2], 5) == (0.2 + 0.0 + 0.4) / 3
    assert precision_at_k([3], 0) == 0.0
    with pytest.raises(ValueError):
        precision_at_k([], 5)


def test_evaluate_recall_lists():
    top = {"s1": ["a", "b", "c", "d"], "s2": ["x", "y"]}
    annotated = {"s1": {"a", "b", "q", "r"}, "s2": {"x", "z"}}
    value, per_seed = evaluate_recall(top, annotated, k=4)
    assert value == (2 / 4 + 1 / 2) / 2
    assert {(s.seed_id, s.annotated, s.found) for s in per_seed} == \
        {("s1", 4, 2), ("s2", 2, 1)}


def test_evaluate_recall_excludes_empty_seeds(caplog):
    top = {"s1": ["a"], "s2": ["b"]}
    annotated = {"s1": {"a"}, "s2": set()}
    with caplog.at_level("WARNING"):
        value, per_seed = evaluate_recall(top, annotated, k=1)
    assert len(per_seed) == 1
    assert "no annotated similars" in caplog.text


def test_evaluate_precision_short_lists_count_misses():
    ranked = {"q1": ["a", "b"], "q2": ["r", "s", "t", "u", "v"]}
    relevant = {"q1": {"a", "b", "c"}, "q2": {"r", "v"}}
    values, per_query = evaluate_precision(ranked, relevant, ks=(1, 5))
    assert values[5] == (2 / 5 + 2 / 5) / 2
    assert values[1] == (1 + 1) / 2
    by_id = {q.query_id: q.relevant_in_top_k for q in per_query}
    assert by_id["q1"] == {1: 1, 5: 2}


def test_annotated_similars_builds_sets():
    pairs = [LabeledPair("a", "b", "similar"),
             LabeledPair("a", "c", "dissimilar"),
             LabeledPair("b", "d", "similar")]
    sims = annotated_similars(pairs)
    assert sims == {"a": {"b"}, "b": {"a", "d"}, "d": {"b"}}


def test_report_json_and_table():
    value, per_seed = evaluate_recall({"s": ["a", "b"]}, {"s": {"a", "x"}}, k=2)
    values, per_query = evaluate_precision({"q": ["a", "b", "c", "d", "e"]},
                                           {"q": {"a", "c"}}, ks=(1, 3, 5))
    report = EvalReport(config_hash="abc123", k_recall=2, recall_at_k=value,
                        per_seed=per_seed, precision_ks=(1, 3, 5),
                        precision_at_k=values, per_query=per_query)
    parsed = json.loads(report.to_json())
    assert parsed["schema_version"] == 1
    assert parsed["recall"]["value"] == 0.5
    assert parsed["precision"]["values"]["5"] == 0.4


def test_config_hash_stable_and_sensitive():
    a = config_hash({"x": 1, "y": "two"})
    b = config_hash({"y": "two", "x": 1})
    c = config_hash({"x": 2, "y": "two"})
    assert a == b
    assert a != c
    assert len(a) == 12
