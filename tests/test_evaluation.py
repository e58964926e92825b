from __future__ import annotations

import json
import random

import pytest

from annoforge import evaluation
from annoforge.evaluation import (
    EvalResult,
    GoldExample,
    Prediction,
    format_table,
    load_gold,
    load_predictions,
    macro_average,
    mentions_from_instances,
    score,
    score_benchmarks,
)
from annoforge.notation import parse_guidelines, parse_instances
from oracles import oracle_counts, oracle_label_counts


def ex(eid, *mentions):
    return GoldExample(example_id=eid, text="", mentions=list(mentions))


def pr(eid, *mentions):
    return Prediction(example_id=eid, mentions=list(mentions))


def test_self_score_is_perfect():
    golds = [ex("1", ("Person", "Curie"), ("Org", "CERN")),
             ex("2", ("Person", "Bohr"))]
    preds = [Prediction(example_id=g.example_id, mentions=list(g.mentions))
             for g in golds]
    result = score(golds, preds)
    assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)
    assert all(r.f1 == 1.0 for r in result.breakdown.values())


def test_empty_predictions_score_zero():
    result = score([ex("1", ("Person", "Curie"))], [])
    assert (result.tp, result.fp, result.fn) == (0, 0, 1)
    assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)


def test_mixed_example_from_enumeration():
    golds = [ex("1", ("A", "x"), ("B", "y"))]
    preds = [pr("1", ("A", "x"), ("A", "z"))]
    result = score(golds, preds)
    assert (result.tp, result.fp, result.fn) == (1, 1, 1)
    assert (result.precision, result.recall, result.f1) == (0.5, 0.5, 0.5)


def test_multiset_matching_consumes_golds():
    # two identical gold mentions need two predictions
    result = score([ex("1", ("A", "x"), ("A", "x"))], [pr("1", ("A", "x"))])
    assert (result.tp, result.fp, result.fn) == (1, 0, 1)
    # and one extra identical prediction is a false positive
    result = score([ex("1", ("A", "x"))], [pr("1", ("A", "x"), ("A", "x"))])
    assert (result.tp, result.fp, result.fn) == (1, 1, 0)


def test_mentions_never_match_across_examples():
    golds = [ex("1", ("A", "x")), ex("2")]
    preds = [pr("1"), pr("2", ("A", "x"))]
    result = score(golds, preds)
    assert (result.tp, result.fp, result.fn) == (0, 1, 1)


def test_matching_modes():
    golds = [ex("1", ("Person", "Marie  Curie"))]
    preds = [pr("1", ("Person", "marie curie"))]
    assert score(golds, preds, matching="exact").tp == 0
    assert score(golds, preds, matching="normalized").tp == 1
    # labels are never normalized
    assert score([ex("1", ("person", "x"))], [pr("1", ("Person", "x"))],
                 matching="normalized").tp == 0
    with pytest.raises(ValueError, match="unknown matching mode"):
        score(golds, preds, matching="fuzzy")


def test_missing_prediction_counts_as_empty():
    golds = [ex("1", ("A", "x")), ex("2", ("A", "y"))]
    result = score(golds, [pr("1", ("A", "x"))])
    assert (result.tp, result.fn) == (1, 1)


def test_id_errors():
    with pytest.raises(ValueError, match="duplicate example_id '1' in golds"):
        score([ex("1"), ex("1")], [])
    with pytest.raises(ValueError, match="duplicate example_id '1' in predictions"):
        score([ex("1")], [pr("1"), pr("1")])
    with pytest.raises(ValueError, match="unknown example_id '9'"):
        score([ex("1")], [pr("9")])


def test_breakdown_sums_to_totals():
    golds = [ex("1", ("A", "x"), ("B", "y"), ("B", "z")),
             ex("2", ("A", "w"), ("C", "v"))]
    preds = [pr("1", ("A", "x"), ("B", "q")), pr("2", ("C", "v"), ("D", "u"))]
    result = score(golds, preds)
    assert sum(r.tp for r in result.breakdown.values()) == result.tp
    assert sum(r.fp for r in result.breakdown.values()) == result.fp
    assert sum(r.fn for r in result.breakdown.values()) == result.fn
    assert result.breakdown["A"].tp == 1 and result.breakdown["A"].fn == 1
    assert result.breakdown["D"].fp == 1


def test_additivity_over_suite_concatenation():
    g1, p1 = [ex("1", ("A", "x"))], [pr("1", ("A", "y"))]
    g2, p2 = [ex("2", ("B", "z"), ("B", "z"))], [pr("2", ("B", "z"))]
    whole = score(g1 + g2, p1 + p2)
    r1, r2 = score(g1, p1), score(g2, p2)
    assert (whole.tp, whole.fp, whole.fn) == (r1.tp + r2.tp, r1.fp + r2.fp, r1.fn + r2.fn)


def test_label_permutation_invariance():
    def rename(mentions):
        return [("Zebra" if lab == "A" else lab, span) for lab, span in mentions]

    golds = [ex("1", ("A", "x"), ("B", "y"))]
    preds = [pr("1", ("A", "x"), ("A", "z"))]
    before = score(golds, preds)
    after = score([GoldExample("1", "", rename(golds[0].mentions))],
                  [Prediction("1", rename(preds[0].mentions))])
    assert (before.tp, before.fp, before.fn) == (after.tp, after.fp, after.fn)
    assert before.f1 == after.f1


SUITE_LABELS = ["A", "B", "C"]


def random_suite(rng):
    # case and whitespace variants make normalized matching differ from exact
    spans = ["x", "y", "z", "w", "X", " x", "x  y", "x y", "X Y"]
    golds, preds = [], []
    for i in range(rng.randint(1, 6)):
        gm = [(rng.choice(SUITE_LABELS), rng.choice(spans))
              for _ in range(rng.randint(0, 5))]
        golds.append(ex(str(i), *gm))
        if rng.random() < 0.9:
            pm = [(rng.choice(SUITE_LABELS), rng.choice(spans))
                  for _ in range(rng.randint(0, 5))]
            preds.append(pr(str(i), *pm))
    return golds, preds


@pytest.mark.parametrize("matching", ["exact", "normalized"])
def test_scorer_agrees_with_brute_force(matching):
    rng = random.Random(42)
    differs_from_exact = False
    for _ in range(150):
        golds, preds = random_suite(rng)
        result = score(golds, preds, matching=matching)
        assert (result.tp, result.fp, result.fn) == oracle_counts(golds, preds, matching)
        oracle = {label: oracle_label_counts(golds, preds, label, matching)
                  for label in SUITE_LABELS}
        assert set(result.breakdown) == {label for label, c in oracle.items() if any(c)}
        for label, cell in result.breakdown.items():
            assert (cell.tp, cell.fp, cell.fn) == oracle[label], label
        differs_from_exact |= result.tp != score(golds, preds).tp
    assert differs_from_exact == (matching == "normalized")


def test_score_benchmarks_macro():
    suites = {
        "one": ([ex("1", ("A", "x"))], [pr("1", ("A", "x"))]),      # F1 = 1
        "two": ([ex("1", ("A", "x"))], [pr("1", ("A", "y"))]),      # F1 = 0
    }
    report = score_benchmarks(suites.items())
    assert report.per_dataset["one"].f1 == 1.0
    assert report.per_dataset["two"].f1 == 0.0
    assert report.macro_f1 == 0.5

    single = score_benchmarks({"only": suites["one"]}.items())
    assert single.macro_f1 == single.per_dataset["only"].f1

    with pytest.raises(ValueError, match="no suites"):
        score_benchmarks({}.items())


def test_score_benchmarks_scores_each_suite_as_it_arrives(monkeypatch):
    suites = {name: random_suite(random.Random(seed))
              for name, seed in (("a", 1), ("b", 2), ("c", 3))}
    drawn, scored = [], []

    def stream():
        for name, suite in suites.items():
            assert scored == drawn  # every suite drawn so far is scored
            drawn.append(name)
            yield name, suite

    def spy(golds, preds, matching="exact"):
        scored.append(drawn[-1])
        return score(golds, preds, matching=matching)

    monkeypatch.setattr(evaluation, "score", spy)
    streamed = score_benchmarks(stream(), matching="normalized")
    assert scored == ["a", "b", "c"]
    assert streamed == score_benchmarks(suites.items(), matching="normalized")


def test_macro_average_arithmetic():
    assert macro_average([0.0, 1.0]) == 0.5
    scores = [62.41, 63.79, 67.92, 64.59, 69.58, 65.25, 55.50]
    assert abs(macro_average(scores) - 64.15) <= 0.01
    with pytest.raises(ValueError):
        macro_average([])


SCIENTIST_GOLDS = [
    ex("1", ("Scientist", "Curie"), ("Scientist", "Einstein")),
    ex("2", ("Scientist", "Bohr")),
]
SCIENTIST_PREDS = [
    pr("1", ("Scientist", "Curie"), ("Scientist", "Newton")),
    pr("2"),
]


def test_score_breakdown_counts_match_oracle():
    cell = score(SCIENTIST_GOLDS, SCIENTIST_PREDS).breakdown["Scientist"]
    assert (cell.tp, cell.fp, cell.fn) == (1, 1, 2)
    assert (cell.tp, cell.fp, cell.fn) == \
        oracle_label_counts(SCIENTIST_GOLDS, SCIENTIST_PREDS, "Scientist")


SCHEMA = parse_guidelines('''@dataclass
class Scientist:
    """A person doing research."""
    name: str  # the scientist's name
    fields: Optional[List[str]]  # research areas

@dataclass
class Prize:
    """An award."""
    winners: List[str]  # who won it
''')


def test_mentions_from_instances_first_text_field():
    iset = parse_instances(
        '[Scientist(name="Curie", fields=["physics", "chemistry"])]', doc_id="d")
    assert mentions_from_instances(iset, SCHEMA) == [("Scientist", "Curie")]


def test_mentions_from_instances_list_field_flattens():
    # Prize has no text field, so its first declared field is the mention field
    iset = parse_instances('[Prize(winners=["Curie", "Bohr"])]', doc_id="d")
    assert mentions_from_instances(iset, SCHEMA) == [("Prize", "Curie"), ("Prize", "Bohr")]


def test_mentions_from_instances_override_and_fallback():
    iset = parse_instances('[Scientist(name="Curie", fields=["physics"])]', doc_id="d")
    # no schema: fall back to the first assignment
    assert mentions_from_instances(iset) == [("Scientist", "Curie")]
    # a class the schema does not declare contributes its first assignment
    other = parse_instances('[Alien(designation="Zorg")]', doc_id="d")
    assert mentions_from_instances(other, SCHEMA) == [("Alien", "Zorg")]


def test_load_gold_and_predictions(tmp_path):
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(
        json.dumps({"id": 1, "text": "Curie worked at the Sorbonne.",
                    "mentions": [{"label": "Scientist", "span": "Curie"}]}) + "\n")
    golds = load_gold(gold_path)
    assert golds[0].example_id == "1"
    assert golds[0].mentions == [("Scientist", "Curie")]

    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text("\n".join([
        json.dumps({"id": 1, "output": 'Sure: [Scientist(name="Curie")]'}),
        json.dumps({"id": 2, "output": "no brackets at all"}),
        json.dumps({"id": 3, "mentions": [{"label": "Prize", "span": "Nobel"}]}),
    ]) + "\n")
    preds = load_predictions(pred_path, SCHEMA)
    assert preds[0].mentions == [("Scientist", "Curie")]
    assert preds[1].mentions == []  # parse failure scores as empty
    assert preds[2].mentions == [("Prize", "Nobel")]


def test_load_gold_rejects_empty_span(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(json.dumps(
        {"id": 1, "text": "x", "mentions": [{"label": "A", "span": ""}]}) + "\n")
    with pytest.raises(ValueError, match="empty span"):
        load_gold(path)


def test_format_table():
    rows = [("movie", EvalResult.from_counts(3, 1, 1)),
            ("ai", EvalResult.from_counts(1, 0, 0))]
    text = format_table(rows, macro=0.8)
    lines = text.splitlines()
    assert "75.00" in lines[1] and "movie" in lines[1]
    assert "100.00" in lines[2]
    assert lines[3].startswith("macro avg") and "80.00" in lines[3]
