"""Seeded input generators for the benchmark.

Everything annoforge reads during a benchmark run is built here from one
seed: the short and long corpora, the per-document answers and fault
schedule that the mock endpoint serves, the large dataset of the analyse
workload, and the gold and prediction files for ``eval``. Each function also
returns the ground truth the benchmark checks annoforge's outputs against,
computed from the generator's own choices rather than from annoforge.

Entity values are grounded by construction: every value is a span inserted
verbatim into the document. Ungrounded values carry the syllable ``qzyx``,
which no generated document contains, so they fail grounding under every
policy.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

STAGES = ("summarize", "structure", "guidelines", "instances")

FILLER = """the of and a to in is was for on that with as by at from its this
which were are be has have it an or had been their also more than other into
after new first most two over such between during under while both some these
only many three each through those where about against among before well any
region period record report study early later large small common several
local public system process network series result change growth source field
method sample pattern season surface market signal measure value account
notes archive survey review section volume entry chapter item case""".split()

SYLLABLES = """ba ko ri mel tan vor lis den fa gor hal jin ka lun mor nes pol
quin ras sel tor ul ven wes yar zan bri cal dor fen gil hov ith jor kel lam
mir nob orn pim rud sav tem ump vel wim yor zel""".split()

CLASSES = """Person Organization City Country Drug Gene Protein Film Album Company
University River Mountain Disease Chemical Software Framework Language Award
Event Vehicle Ship Aircraft Building Museum Journal Book Song Team League
Planet Star Mineral Species Enzyme Instrument Painting Treaty Statute
Currency""".split()

UNGROUNDED_MARK = "Qzyx"
MARKER = "docref-"
SUITES = ("alpha", "beta", "gamma")
FLAW_CODES = {"ungrounded": "UngroundedSpan", "misaligned": "MisalignedAttribute",
              "upper": "UngroundedSpan"}


def _name(rng: random.Random) -> str:
    a, b, c, d, e = rng.choices(SYLLABLES, k=5)
    return f"{(a + b).capitalize()} {(c + d + e).capitalize()}"


def _ungrounded(rng: random.Random) -> str:
    return f"{UNGROUNDED_MARK} {(rng.choice(SYLLABLES) + rng.choice(SYLLABLES)).capitalize()}"


def _filler(rng: random.Random, words: int) -> str:
    out = []
    while words > 0:
        n = min(words, rng.randint(8, 18))
        out.append(" ".join(rng.choices(FILLER, k=n)).capitalize() + ".")
        words -= n
    return " ".join(out)


def make_document(rng: random.Random, doc_id: str, words: int, n_entities: int,
                  n_classes: int) -> tuple[str, list[tuple[str, dict]]]:
    """A document with a ``docref-`` marker and ``n_entities`` grounded entities.

    Returns the text and the entities as (class name, assignments) pairs,
    in document order. Every assigned value occurs verbatim in the text.
    """
    classes = rng.sample(CLASSES, n_classes)
    entities = []
    sentences = []
    used = set()
    for i in range(n_entities):
        cls = classes[i % n_classes]
        name = _name(rng)
        while name in used:
            name = _name(rng)
        used.add(name)
        assignments: dict = {"name": name}
        parts = [f"{name} was recorded"]
        if rng.random() < 0.6:
            place = _name(rng).split()[1]
            assignments["place"] = place
            parts.append(f"near {place}")
        if rng.random() < 0.5:
            tags = rng.sample(FILLER[-40:], 2)
            assignments["tags"] = tags
            parts.append(f"with {tags[0]} and {tags[1]} noted")
        sentences.append(" ".join(parts) + ".")
        entities.append((cls, assignments))
    budget = max(words - 8 * n_entities, n_entities + 1)
    gap = budget // (n_entities + 1)
    chunks = [f"Dossier {MARKER}{doc_id} follows."]
    for sentence in sentences:
        chunks.append(_filler(rng, gap))
        chunks.append(sentence)
    chunks.append(_filler(rng, budget - gap * n_entities))
    return " ".join(chunks), entities


# -- notation, written independently of annoforge's printer ------------------

def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def instance_call(cls: str, assignments: dict) -> str:
    kws = []
    for key, value in assignments.items():
        text = ("[" + ", ".join(_quote(v) for v in value) + "]"
                if isinstance(value, list) else _quote(value))
        kws.append(f"{key}={text}")
    return f"{cls}({', '.join(kws)})"


def instance_list(instances: list[tuple[str, dict]]) -> str:
    return "[" + ", ".join(instance_call(c, a) for c, a in instances) + "]"


def guidelines_text(classes: list[str]) -> str:
    blocks = []
    for cls in classes:
        low = cls.lower()
        blocks.append("\n".join([
            "@dataclass",
            f"class {cls}:",
            f'    """A {low} named in the document. Annotate every distinct {low}'
            f" once,\n    even when it is only mentioned in passing; generic"
            f' references do not count."""',
            f"    name: str  # the {low} name exactly as written",
            f"    place: Optional[str]  # a place the text links to this {low}",
            f"    tags: Optional[List[str]]  # short descriptors the text attaches",
        ]))
    return "\n\n".join(blocks) + "\n"


def _classes_in_order(instances: list[tuple[str, dict]]) -> list[str]:
    return list(dict.fromkeys(cls for cls, _ in instances))


# -- generate workloads ------------------------------------------------------

def _bad_instances(rng: random.Random, entities: list[tuple[str, dict]],
                   n: int) -> list[tuple[str, dict]]:
    """Instances validation must drop: ungrounded, misaligned or undefined."""
    bad = []
    for k in range(n):
        cls, good = rng.choice(entities)
        kind = k % 3
        if kind == 0:
            bad.append((cls, {"name": _ungrounded(rng)}))
        elif kind == 1:
            bad.append((cls, {"name": good["name"], "colour": good["name"]}))
        else:
            bad.append(("Unlisted" + cls, {"name": good["name"]}))
    return bad


# Shares of documents per fault, for the http and replay workloads. Each
# share is an exact count of documents, not a per-document coin flip, so
# every seed sees the same number of each fault. 429 faults make documents
# wait about 1 s (once) or 3 s (twice, or until annoforge gives up), far
# above the ~0.15 s of an unfaulted document, so the slowest 15% are exactly
# the 429 documents and p90 falls in the middle of the 1 s group.
HTTP_FAULTS = {"429_once": 0.12, "429_twice": 0.01, "429_forever": 0.02,
               "bad_first": 0.06, "bad_forever": 0.01, "length_first": 0.04,
               "all_ungrounded": 0.01}
REPLAY_FAULTS = {"bad_first": 0.10, "bad_forever": 0.03, "length_first": 0.06,
                 "all_ungrounded": 0.02}
REJECTING = {"429_forever", "bad_forever", "all_ungrounded"}


def _spread(rng: random.Random, bounds: tuple[int, int], n: int) -> list[int]:
    low, high = bounds
    values = [low + (high - low) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def build_generate_inputs(seed: int, workload: str, n_docs: int, words: tuple[int, int],
                          entities: tuple[int, int], classes: tuple[int, int],
                          faults: dict[str, float], prefix: str) -> dict:
    """Corpus, endpoint plan and expected outcome for a generate workload.

    Faults go to distinct documents chosen among the first 85% of the
    corpus, so a slow faulted document never sits in the last few slots of
    the run, where it would leave a worker idle and add scheduling noise.
    """
    rng = random.Random(f"{workload}:{seed}")
    ids = [f"{prefix}{i:05d}" for i in range(n_docs)]
    eligible = ids[: max(1, int(n_docs * 0.85))]
    order = rng.sample(eligible, len(eligible))
    fault_of: dict[str, str] = {}
    for fault, share in faults.items():
        for _ in range(max(1, round(share * n_docs))):
            if order:
                fault_of[order.pop()] = fault

    # sizes are spread evenly over their ranges, so every seed does the same work
    shape = list(zip(_spread(rng, words, n_docs), _spread(rng, entities, n_docs),
                     _spread(rng, classes, n_docs)))
    corpus, plan, expected = [], {}, {"accepted": {}, "rejected": {}}
    for doc_id, (n_words, n_entities, n_classes) in zip(ids, shape):
        text, ents = make_document(rng, doc_id, n_words, n_entities, n_classes)
        corpus.append({"id": doc_id, "text": text})
        fault = fault_of.get(doc_id)
        bad = _bad_instances(rng, ents, max(1, len(ents) // 10))
        served = ents + bad
        if fault == "all_ungrounded":
            served = [(c, {"name": _ungrounded(rng)}) for c, _ in ents[:3]]
        rng.shuffle(served)
        declared = _classes_in_order([i for i in served if not i[0].startswith("Unlisted")])
        responses = {
            "summarize": "\n".join(f"- {a['name']}: a {c.lower()} the document names"
                                   for c, a in ents[:12]),
            "structure": "```json\n" + json.dumps(
                [{"label": c, "attributes": a} for c, a in ents], indent=1) + "\n```",
            "guidelines": "```python\n" + guidelines_text(declared) + "```",
            "instances": "Instances found:\n" + instance_list(served),
        }
        stage = STAGES[int(doc_id[len(prefix):]) % 4]
        script: dict[str, list] = {}
        if fault == "429_once":
            script[stage] = [["429", rng.choice([0, 1])]]
        elif fault == "429_twice":
            script[stage] = [["429", rng.choice([0, 1])], ["429", rng.choice([0, 1])]]
        elif fault == "429_forever":
            script[stage] = [["429", rng.choice([0, 1])] for _ in range(3)]
        elif fault == "bad_first":
            script[stage] = [["bad"]]
        elif fault == "bad_forever":
            script[stage] = [["bad"]] * 3
        elif fault == "length_first":
            script[stage] = [["length"]]
        plan[doc_id] = {"responses": responses, "script": script, "fault": fault}
        if fault in REJECTING:
            expected["rejected"][doc_id] = "filter" if fault == "all_ungrounded" else stage
        else:
            expected["accepted"][doc_id] = [[c, a["name"]] for c, a in served
                                            if (c, a) in ents]
    return {"corpus": corpus, "plan": plan, "expected": expected}


def write_generate_inputs(inputs: dict, root: Path) -> None:
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for doc in inputs["corpus"]:
            fh.write(json.dumps(doc) + "\n")
    (root / "plan.json").write_text(json.dumps(inputs["plan"]), encoding="utf-8")
    (root / "gold").mkdir(exist_ok=True)
    with open(root / "gold" / "generated.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, mentions in inputs["expected"]["accepted"].items():
            fh.write(json.dumps({"id": doc_id, "mentions": [
                {"label": c, "span": s} for c, s in mentions]}) + "\n")


# -- analyse workload --------------------------------------------------------

def build_analyse_inputs(seed: int, root: Path, n_records: int,
                         n_examples: int) -> dict:
    """Write a dataset plus eval gold/prediction files; return expected counts."""
    rng = random.Random(f"analyse:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    label_counts: dict[str, int] = {}
    codes: dict[str, int] = {}
    dropped = clean_records = 0
    # exact counts per policy, so every seed flags the same number of records
    flaws = {}
    for policy, n in (("exact", n_records // 2), ("normalized", n_records - n_records // 2)):
        kinds = (["ungrounded"] * round(0.08 * n) + ["misaligned"] * round(0.04 * n)
                 + ["upper"] * round(0.08 * n))
        flaws[policy] = kinds + [None] * (n - len(kinds))
        rng.shuffle(flaws[policy])
    with open(root / "dataset.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "annoforge-dataset", "version": 1}) + "\n")
        for i in range(n_records):
            doc_id = f"a{i:06d}"
            text, ents = make_document(rng, doc_id, rng.randint(90, 160),
                                       rng.randint(5, 10), rng.randint(2, 4))
            policy = "exact" if i % 2 else "normalized"
            flaw = flaws[policy].pop()
            instances = list(ents)
            if flaw == "ungrounded":
                instances.append((ents[0][0], {"name": _ungrounded(rng)}))
            elif flaw == "misaligned":
                cls, good = ents[-1]
                instances.append((cls, {"name": good["name"], "colour": good["name"]}))
            elif flaw == "upper":
                # passes normalized grounding, fails exact
                cls, good = ents[0]
                instances.append((cls, {"name": good["name"].upper()}))
            flawed = flaw in FLAW_CODES and (flaw != "upper" or policy == "exact")
            if flawed:
                codes[FLAW_CODES[flaw]] = codes.get(FLAW_CODES[flaw], 0) + 1
            dropped += flawed
            clean_records += not flawed
            for cls, _ in (instances[:-1] if flawed else instances):
                label_counts[cls] = label_counts.get(cls, 0) + 1
            classes = _classes_in_order(ents)
            guidelines = guidelines_text(classes)
            record = {
                "doc_id": doc_id,
                "document": text,
                "summary": "\n".join(f"- {a['name']}" for _, a in ents[:4]),
                "structured": [{"label": c, "attributes": a} for c, a in ents],
                "guidelines": guidelines,
                "schema": guidelines,
                "instances": instance_list(instances),
                "validation": {"grounding": policy, "raw_count": len(instances),
                               "kept_count": len(instances), "errors": []},
                "meta": {"backend": "replay", "generated_at": None,
                         "grounding": policy, "model": "bench", "truncated": False},
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    expected = {"records": n_records, "dropped": dropped, "codes": codes,
                "clean_records": clean_records, "label_counts": label_counts,
                "eval": _write_eval_files(rng, root, n_examples)}
    return expected


def _write_eval_files(rng: random.Random, root: Path, n_examples: int) -> dict:
    """Gold and prediction suites; returns tp/fp/fn per suite under normalized matching.

    Gold mentions within an example are distinct after normalization, so
    each perturbation moves the counts by a known amount.
    """
    counts = {}
    for d in ("gold", "pred"):
        (root / d).mkdir(exist_ok=True)
    for suite in SUITES:
        tp = fp = fn = 0
        with open(root / "gold" / f"{suite}.jsonl", "w", encoding="utf-8") as gold_fh, \
                open(root / "pred" / f"{suite}.jsonl", "w", encoding="utf-8") as pred_fh:
            for i in range(n_examples):
                eid = f"{suite}-{i:06d}"
                labels = rng.sample(CLASSES, 4)
                gold, seen, n_gold = [], set(), rng.randint(6, 12)
                while len(gold) < n_gold:
                    span = _name(rng)
                    if span.casefold() not in seen:
                        seen.add(span.casefold())
                        gold.append((rng.choice(labels), span))
                pred = list(gold)
                if rng.random() < 0.05:
                    fn += len(gold)
                    pred_fh.write(json.dumps({"id": eid, "output": "no list here"}) + "\n")
                else:
                    if rng.random() < 0.3:
                        pred.pop(rng.randrange(len(pred)))
                        fn += 1
                    if rng.random() < 0.2:
                        k = rng.randrange(len(pred))
                        pred[k] = ("Other" + pred[k][0], pred[k][1])
                        fp += 1
                        fn += 1
                    if rng.random() < 0.3:
                        k = rng.randrange(len(pred))
                        pred[k] = (pred[k][0], "  " + pred[k][1].upper())
                    if rng.random() < 0.3:
                        pred.append((rng.choice(labels), _ungrounded(rng)))
                        fp += 1
                    tp += sum(1 for lab, span in pred if not lab.startswith("Other")
                              and not span.startswith(UNGROUNDED_MARK))
                    if i % 2:
                        line = {"id": eid, "output": instance_list(
                            [(lab, {"name": span}) for lab, span in pred])}
                    else:
                        line = {"id": eid, "mentions": [{"label": lab, "span": span}
                                                        for lab, span in pred]}
                    pred_fh.write(json.dumps(line) + "\n")
                gold_fh.write(json.dumps({"id": eid, "text": "", "mentions": [
                    {"label": lab, "span": span} for lab, span in gold]}) + "\n")
        counts[suite] = {"tp": tp, "fp": fp, "fn": fn}
    return counts
