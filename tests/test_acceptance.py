"""Release criteria: eight checks, each reported as one pass/fail line.

Criteria 5 and 6 have two branches. When the environment points at the
released corpus (ANNOFORGE_RELEASED_DATASET, a dataset file in this
package's record format) and the benchmark label inventories
(ANNOFORGE_BENCHMARK_LABELS, a directory of <benchmark>.<split>.txt
files), the published anchor numbers are checked against them; otherwise
the same code paths are checked exactly on synthetic fixtures with
hand-computed ground truth.
"""

import functools
import json
import os
import random
import string
import time
from fractions import Fraction
from pathlib import Path

from annoforge.cli import main as cli_main
from annoforge.dataset import (
    compute_overlap,
    compute_stats,
    dataset_labels,
    load_labelspaces,
    read_dataset,
    write_dataset,
)
from annoforge.evaluation import GoldExample, Prediction, load_gold, macro_average, score
from annoforge.notation import (
    TEXT,
    TEXT_LIST,
    EntityClass,
    EntityInstance,
    FieldDef,
    InstanceSet,
    Schema,
    parse_guidelines,
    parse_instances,
    print_guidelines,
    print_instances,
)
from annoforge.validation import ErrorCode, filter_instances, validate
from builders import stats_record
from clirunner import CliRunner
from oracles import oracle_counts

DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parents[1] / "README.md"


def criterion(number, title):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                func(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")
        return wrapper
    return decorate


# -- criterion 1: parser round trip -------------------------------------------

IDENT_CHARS = string.ascii_letters + string.digits + "_"
TEXT_POOL = (string.ascii_letters + string.digits +
             " \n\t.,;:!?()'\"\\-_#@éüñ日本")
VALUE_POOL = TEXT_POOL
COMMENT_POOL = string.ascii_letters + string.digits + " .,;:!?()'\"\\-_"


def rand_text(rng, pool, low, high):
    return "".join(rng.choice(pool) for _ in range(rng.randint(low, high)))


def rand_guideline(rng):
    text = rand_text(rng, TEXT_POOL, 1, 90)
    while '"""' in text:
        text = text.replace('"""', '" "')
    text = text.rstrip('"')
    return text if text.strip() else "a guideline"


def rand_comment(rng):
    text = rand_text(rng, COMMENT_POOL, 1, 40).strip()
    return text if text else "a note"


def rand_schema(rng):
    classes = []
    for ci in range(rng.randint(1, 5)):
        name = rng.choice(string.ascii_uppercase) + rand_text(rng, IDENT_CHARS, 0, 8)
        fields = []
        for fi in range(rng.randint(1, 6)):
            fname = rng.choice(string.ascii_lowercase) + rand_text(rng, IDENT_CHARS, 0, 8)
            fields.append(FieldDef(name=f"{fname}_{fi}",
                                   kind=rng.choice((TEXT, TEXT_LIST)),
                                   comment=rand_comment(rng),
                                   required=rng.random() < 0.5))
        classes.append(EntityClass(name=f"{name}C{ci}", guideline=rand_guideline(rng),
                                   fields=fields))
    return Schema(classes=classes)


def rand_value(rng):
    if rng.random() < 0.5:
        return rand_text(rng, VALUE_POOL, 0, 20)
    return [rand_text(rng, VALUE_POOL, 0, 12) for _ in range(rng.randint(1, 4))]


def rand_instance_set(rng):
    instances = []
    for _ in range(rng.randint(0, 6)):
        cname = rng.choice(string.ascii_uppercase) + rand_text(rng, IDENT_CHARS, 0, 8)
        assignments = {}
        for ai in range(rng.randint(1, 5)):
            aname = rng.choice(string.ascii_lowercase) + rand_text(rng, IDENT_CHARS, 0, 6)
            assignments[f"{aname}_{ai}"] = rand_value(rng)
        instances.append(EntityInstance(class_name=cname, assignments=assignments))
    return InstanceSet(doc_id=f"doc-{rng.randint(0, 999)}", instances=instances)


@criterion(1, "parser round trip on 1000 random schemas and instance sets")
def test_criterion_1_parser_round_trip():
    rng = random.Random(20240817)
    start = time.monotonic()
    for _ in range(1000):
        schema = rand_schema(rng)
        assert parse_guidelines(print_guidelines(schema)) == schema
        iset = rand_instance_set(rng)
        assert parse_instances(print_instances(iset), doc_id=iset.doc_id) == iset
    assert time.monotonic() - start < 30


# -- criterion 2: one corruption, exactly one error code ----------------------

DOC_WORDS = [f"tok{i}" for i in range(40)]
BASE_DOCUMENT = " ".join(DOC_WORDS)


def clean_case(rng):
    classes = []
    for ci in range(rng.randint(2, 3)):
        fields = [FieldDef(name=f"f{ci}_0", kind=TEXT, comment="c", required=True)]
        for fi in range(1, rng.randint(2, 4)):
            fields.append(FieldDef(name=f"f{ci}_{fi}",
                                   kind=rng.choice((TEXT, TEXT_LIST)),
                                   comment="c", required=rng.random() < 0.5))
        classes.append(EntityClass(name=f"Type{ci}",
                                   guideline=f"Things of kind {ci}.", fields=fields))
    schema = Schema(classes=classes)

    def grounded(kind):
        if kind == TEXT:
            return rng.choice(DOC_WORDS)
        return [rng.choice(DOC_WORDS) for _ in range(rng.randint(1, 3))]

    instances = []
    for _ in range(rng.randint(1, 4)):
        cls = rng.choice(classes)
        assignments = {f.name: grounded(f.kind) for f in cls.fields
                       if f.required or rng.random() < 0.7}
        instances.append(EntityInstance(class_name=cls.name, assignments=assignments))
    return schema, InstanceSet(doc_id="case", instances=instances)


def pick_assigned(rng, schema, iset):
    inst = rng.choice(iset.instances)
    cls = schema.class_map()[inst.class_name]
    fname = rng.choice(sorted(inst.assignments))
    return inst, cls.field_map()[fname]


def corrupt_undefined(rng, schema, iset):
    rng.choice(iset.instances).class_name = "GhostType"


def corrupt_misaligned(rng, schema, iset):
    inst = rng.choice(iset.instances)
    inst.assignments["no_such_field"] = rng.choice(DOC_WORDS)


def corrupt_missing(rng, schema, iset):
    inst = rng.choice(iset.instances)
    cls = schema.class_map()[inst.class_name]
    required = [f.name for f in cls.fields if f.required]
    del inst.assignments[rng.choice(required)]


def corrupt_mismatch(rng, schema, iset):
    inst, fdef = pick_assigned(rng, schema, iset)
    value = inst.assignments[fdef.name]
    inst.assignments[fdef.name] = value[0] if isinstance(value, list) else [value]


def corrupt_ungrounded(rng, schema, iset):
    inst, fdef = pick_assigned(rng, schema, iset)
    if isinstance(inst.assignments[fdef.name], list):
        inst.assignments[fdef.name][0] = "zzqx unseen"
    else:
        inst.assignments[fdef.name] = "zzqx unseen"


def corrupt_empty(rng, schema, iset):
    inst, fdef = pick_assigned(rng, schema, iset)
    if isinstance(inst.assignments[fdef.name], list):
        inst.assignments[fdef.name] = rng.choice(([], [""], ["   "]))
    else:
        inst.assignments[fdef.name] = rng.choice(("", "   "))


CORRUPTIONS = {
    ErrorCode.UNDEFINED_ENTITY_TYPE: corrupt_undefined,
    ErrorCode.MISALIGNED_ATTRIBUTE: corrupt_misaligned,
    ErrorCode.MISSING_REQUIRED_FIELD: corrupt_missing,
    ErrorCode.TYPE_MISMATCH: corrupt_mismatch,
    ErrorCode.UNGROUNDED_SPAN: corrupt_ungrounded,
    ErrorCode.EMPTY_VALUE: corrupt_empty,
}


@criterion(2, "each injected defect yields exactly its error code, 500 cases each")
def test_criterion_2_validator_error_taxonomy():
    rng = random.Random(20240818)
    for code, corrupt in CORRUPTIONS.items():
        for _ in range(500):
            schema, iset = clean_case(rng)
            assert validate(iset, schema, BASE_DOCUMENT) == []
            corrupt(rng, schema, iset)
            errors = validate(iset, schema, BASE_DOCUMENT)
            assert errors, f"{code} corruption produced no errors"
            assert {e.code for e in errors} == {code}
            kept, _ = filter_instances(iset, schema, BASE_DOCUMENT)
            assert validate(kept, schema, BASE_DOCUMENT) == []


# -- criterion 3: scorer equals the brute-force matcher -----------------------

@criterion(3, "scorer matches the all-pairings oracle on 1000 suites; self-score F1 is 1.0")
def test_criterion_3_scorer_oracle_equivalence():
    rng = random.Random(20240819)
    labels = ["Per", "Org", "Loc"]
    spans = ["alpha", "Alpha", "beta  x", "beta x", "gamma", "delta"]

    def mentions(low=0):
        return [(rng.choice(labels), rng.choice(spans))
                for _ in range(rng.randint(low, 4))]

    for i in range(1000):
        matching = "exact" if i % 2 == 0 else "normalized"
        golds, preds = [], []
        for e in range(rng.randint(1, 4)):
            golds.append(GoldExample(example_id=f"e{e}", text="", mentions=mentions()))
            preds.append(Prediction(example_id=f"e{e}", mentions=mentions()))
        result = score(golds, preds, matching=matching)
        assert (result.tp, result.fp, result.fn) == oracle_counts(golds, preds, matching)

    for _ in range(200):
        golds = [GoldExample(example_id=f"e{e}", text="", mentions=mentions())
                 for e in range(rng.randint(1, 3))]
        golds[0].mentions.append(("Per", "alpha"))
        preds = [Prediction(example_id=g.example_id, mentions=list(g.mentions))
                 for g in golds]
        assert score(golds, preds).f1 == 1.0

    for gold_file in sorted((DATA / "eval" / "gold").glob("*.jsonl")):
        golds = load_gold(gold_file)
        preds = [Prediction(example_id=g.example_id, mentions=list(g.mentions))
                 for g in golds]
        assert score(golds, preds).f1 == 1.0


# -- criterion 4: macro-average anchor ----------------------------------------

@criterion(4, "macro average of the seven benchmark F1 scores is 64.15 within 0.01")
def test_criterion_4_macro_average_anchor():
    per_dataset = [62.41, 63.79, 67.92, 64.59, 69.58, 65.25, 55.50]
    assert abs(macro_average(per_dataset) - 64.15) <= 0.01


# -- criterion 5: label statistics --------------------------------------------

@criterion(5, "stats reproduces the released-corpus anchors or the exact synthetic counts")
def test_criterion_5_statistics_reproduction(tmp_path):
    released = os.environ.get("ANNOFORGE_RELEASED_DATASET")
    if released:
        stats = compute_stats(read_dataset(released))
        assert stats.unique_label_count == 28677
        assert abs(float(stats.avg_distinct_labels_per_doc) - 5.34) <= 0.01
        assert abs(float(stats.avg_annotations_per_doc) - 11.39) <= 0.01
        assert stats.top(1) == [("Symptom", 1820)]
        return

    records = [stats_record(f"doc{i:03d}",
                            3 * [f"L{i % 10}"] + 2 * [f"L{(i + 1) % 10}"])
               for i in range(50)]
    stats = compute_stats(records)
    assert stats.n_docs == 50
    assert stats.unique_label_count == 10
    assert stats.avg_distinct_labels_per_doc == Fraction(2)
    assert stats.avg_annotations_per_doc == Fraction(5)
    assert stats.doc_frequency == {f"L{i}": 10 for i in range(10)}
    assert stats.annotation_frequency == {f"L{i}": 25 for i in range(10)}

    dataset = tmp_path / "synthetic.jsonl"
    write_dataset(records, dataset)
    result = CliRunner().invoke(cli_main, ["stats", str(dataset), "--json"],
                                catch_exceptions=False)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n_docs"] == 50
    assert payload["unique_labels"] == 10
    assert payload["avg_distinct_labels_per_doc"] == 2.0
    assert payload["avg_annotations_per_doc"] == 5.0
    assert payload["top"][0]["count"] == 25


# -- criterion 6: benchmark label overlap -------------------------------------

@criterion(6, "overlap reproduces the published coverage or exact constructed fractions")
def test_criterion_6_overlap_reproduction():
    labels_dir = os.environ.get("ANNOFORGE_BENCHMARK_LABELS")
    released = os.environ.get("ANNOFORGE_RELEASED_DATASET")
    if labels_dir and released:
        label_set = dataset_labels(read_dataset(released))
        rows = {(r.benchmark, r.split): r
                for r in compute_overlap(label_set, load_labelspaces(labels_dir))}
        train = rows[("aggregate", "train")]
        test = rows[("aggregate", "test")]
        assert (train.matched_count, train.gold_label_count) == (103, 243)
        assert abs(100 * float(train.coverage) - 42.4) <= 0.1
        assert (test.matched_count, test.gold_label_count) == (98, 235)
        assert abs(100 * float(test.coverage) - 41.7) <= 0.1
        return

    dataset = {"Alpha", "Beta", "Gamma", "Delta", "Echo"}
    spaces = {"b1": {"train": {"Alpha", "Beta", "X1"}, "test": {"Delta", "X2"}},
              "b2": {"train": {"Gamma", "Y1", "Y2", "Y3"}}}
    rows = {(r.benchmark, r.split): r for r in compute_overlap(dataset, spaces)}
    assert rows[("b1", "train")].coverage == Fraction(2, 3)
    assert rows[("b2", "train")].coverage == Fraction(1, 4)
    assert rows[("b1", "test")].coverage == Fraction(1, 2)
    agg_train = rows[("aggregate", "train")]
    assert (agg_train.matched_count, agg_train.gold_label_count) == (3, 7)
    assert agg_train.coverage == Fraction(3, 7)
    agg_test = rows[("aggregate", "test")]
    assert (agg_test.matched_count, agg_test.gold_label_count) == (1, 2)
    assert agg_test.coverage == Fraction(1, 2)


# -- criterion 7: deterministic offline end-to-end run ------------------------

@criterion(7, "replay run generate/validate/stats/emit-train is offline, deterministic, <60s")
def test_criterion_7_end_to_end_replay(tmp_path, no_network):
    start = time.monotonic()
    runner = CliRunner()
    config = DATA / "config.yaml"

    def step(*args):
        result = runner.invoke(cli_main, [str(a) for a in args],
                               catch_exceptions=False)
        assert result.exit_code == 0, result.output + result.stderr
        return result

    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        step("--config", config, "--output-dir", run_dir, "generate")
        step("validate", run_dir / "dataset.jsonl")
        step("stats", run_dir / "dataset.jsonl")
        step("emit-train", run_dir / "dataset.jsonl", "--out", run_dir / "train.jsonl")

    for name in ("dataset.jsonl", "trail.jsonl", "rejects.jsonl",
                 "dataset.filtered.jsonl", "train.jsonl"):
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"

    records = {r.doc_id: r for r in read_dataset(tmp_path / "run1" / "dataset.jsonl")}
    lines = (tmp_path / "run1" / "train.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    for line in lines:
        example = json.loads(line)
        record = records[example["doc_id"]]
        iset = parse_instances(example["target"], doc_id=example["doc_id"])
        assert iset.instances, "training target lost its instances"
        assert validate(iset, record.schema, record.document) == []
    assert time.monotonic() - start < 60


# -- criterion 8: what is deliberately not reproduced -------------------------

@criterion(8, "README states that fine-tuned model scores are out of desk-scale scope")
def test_criterion_8_non_reproducibility_statement():
    text = README.read_text(encoding="utf-8").lower()
    assert "not reproducible" in text
    assert "fine-tun" in text
    assert "multi-gpu" in text
    assert "property-based" in text
