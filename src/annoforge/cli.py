"""Command-line entry point: the whole workflow as subcommands.

Exit codes: 0 success; 1 the command ran but produced warnings (dropped
instances, skipped records, missing prediction files, zero generated
records); 2 usage or configuration error; 3 runtime failure.
"""

from __future__ import annotations

import functools
import json
import logging
import sys
from collections import Counter
from pathlib import Path

import click

from .config import ConfigError, RunConfig, build_client, build_templates, load_config, load_docs
from .dataset import (
    append_records,
    compute_overlap,
    compute_stats,
    dataset_labels,
    emit_training_examples,
    load_labelspaces,
    read_dataset,
    write_dataset,
)
from .evaluation import format_table, load_gold, load_predictions, score_benchmarks
from .notation import parse_guidelines
from .validation import GROUNDING_POLICIES, filter_instances

log = logging.getLogger(__name__)


def guarded(func):
    """Map failures onto the documented exit codes."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except SystemExit:
            raise
        except (ConfigError, FileNotFoundError, click.UsageError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2) from exc
        except Exception as exc:
            click.echo(f"runtime failure: {exc}", err=True)
            raise SystemExit(3) from exc

    return wrapper


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Run configuration file (YAML).")
@click.option("--output-dir", type=click.Path(), default=None,
              help="Override the configured output directory.")
@click.option("--seed", type=int, default=None,
              help="Override the configured sampling seed.")
@click.option("--resume", is_flag=True,
              help="Skip documents already present in the output dataset.")
@click.option("--quiet", is_flag=True, help="Only warnings and errors.")
@click.pass_context
def main(ctx, config_path, output_dir, seed, resume, quiet):
    """Generate, validate, describe, and score schema-guided annotations."""
    logging.basicConfig(level=logging.WARNING if quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    ctx.obj = {"config_path": config_path, "output_dir": output_dir,
               "seed": seed, "resume": resume}


def _load_cfg(ctx) -> RunConfig:
    path = ctx.obj.get("config_path")
    if path is None:
        raise ConfigError("this command needs --config")
    cfg = load_config(path)
    if ctx.obj.get("output_dir"):
        cfg.output_dir = Path(ctx.obj["output_dir"])
    return cfg


def _resolve_dataset(ctx, dataset_path: str | None) -> Path:
    if dataset_path is not None:
        return Path(dataset_path)
    if ctx.obj.get("output_dir"):
        return Path(ctx.obj["output_dir"]) / "dataset.jsonl"
    if ctx.obj.get("config_path"):
        return _load_cfg(ctx).output_dir / "dataset.jsonl"
    raise ConfigError("give a dataset path, or --config/--output-dir to locate one")


@main.command()
@click.pass_context
@guarded
def generate(ctx):
    """Run the four-stage pipeline over the corpus and write the dataset."""
    from .pipeline import run_pipeline, write_trail  # here: only generate needs it

    cfg = _load_cfg(ctx)
    docs = load_docs(cfg, seed=ctx.obj.get("seed"))
    templates = build_templates(cfg)
    client = build_client(cfg)
    out = cfg.output_dir
    dataset_path = out / "dataset.jsonl"

    existing = []
    if ctx.obj.get("resume") and dataset_path.exists():
        existing = read_dataset(dataset_path)
        log.info("resuming: %d records already present", len(existing))
    result = run_pipeline(docs, templates, client,
                          parallelism=cfg.parallelism,
                          keep_empty=cfg.keep_empty,
                          grounding=cfg.grounding,
                          max_doc_chars=cfg.max_doc_chars,
                          skip_ids={r.doc_id for r in existing})
    if existing:
        append_records(result.records, dataset_path)
    else:
        write_dataset(result.records, dataset_path)
    write_trail(result.trail, out / "trail.jsonl")
    with open(out / "rejects.jsonl", "w", encoding="utf-8") as fh:
        for reject in result.rejects:
            fh.write(json.dumps({"doc_id": reject.doc_id, "stage": reject.stage,
                                 "reason": reject.reason},
                                sort_keys=True, ensure_ascii=False) + "\n")

    total = len(existing) + len(result.records)
    click.echo(f"generated {len(result.records)} records "
               f"({total} total, {len(result.rejects)} rejected) -> {dataset_path}")
    raise SystemExit(0 if total >= 1 else 1)


@main.command("validate")
@click.argument("dataset_path", required=False, type=click.Path())
@click.option("--grounding", type=click.Choice(GROUNDING_POLICIES), default=None,
              help="Override the policy the records were generated with.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Where to write the filtered dataset.")
@click.pass_context
@guarded
def validate_cmd(ctx, dataset_path, grounding, out_path):
    """Re-validate a dataset and write the filtered survivors."""
    path = _resolve_dataset(ctx, dataset_path)
    records = read_dataset(path)
    by_code: Counter[str] = Counter()
    dropped = 0
    for record in records:
        policy = grounding or record.meta.get("grounding", "normalized")
        kept, errors = filter_instances(record.instances, record.schema,
                                        record.document, grounding=policy)
        dropped += len(record.instances.instances) - len(kept.instances)
        for err in errors:
            by_code[err.code.value] += 1
        record.instances = kept
        record.validation = {**record.validation,
                             "revalidated": policy,
                             "kept_count": len(kept.instances)}
    out = Path(out_path) if out_path else path.with_name(path.stem + ".filtered.jsonl")
    write_dataset(records, out)
    for code in sorted(by_code):
        click.echo(f"{code}: {by_code[code]}")
    click.echo(f"dropped {dropped} instances across {len(records)} records -> {out}")
    raise SystemExit(1 if dropped else 0)


@main.command()
@click.argument("dataset_path", required=False, type=click.Path())
@click.option("--top", "k", type=click.IntRange(min=1), default=10,
              show_default=True, help="Rows in the top/bottom label tables.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_context
@guarded
def stats(ctx, dataset_path, k, as_json):
    """Label statistics over a dataset."""
    records = read_dataset(_resolve_dataset(ctx, dataset_path), schema=False)
    result = compute_stats(records)
    if as_json:
        click.echo(json.dumps(result.to_dict(k), indent=2))
        return
    click.echo(f"documents               {result.n_docs}")
    click.echo(f"unique labels           {result.unique_label_count}")
    click.echo(f"distinct labels per doc {float(result.avg_distinct_labels_per_doc):.2f}")
    click.echo(f"annotations per doc     {float(result.avg_annotations_per_doc):.2f}")
    if result.annotation_frequency:
        click.echo("top labels:")
        for label, count in result.top(k):
            click.echo(f"  {count:6d}  {label}")
        click.echo("bottom labels:")
        for label, count in result.bottom(k):
            click.echo(f"  {count:6d}  {label}")


@main.command()
@click.argument("dataset_path", required=False, type=click.Path())
@click.option("--labels", "labelspace_dir", type=click.Path(exists=True),
              required=True, help="Directory of <benchmark>.<split>.txt files.")
@click.option("--case-insensitive", is_flag=True,
              help="Fold case when matching labels.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@click.pass_context
@guarded
def overlap(ctx, dataset_path, labelspace_dir, case_insensitive, as_json):
    """Coverage of benchmark label spaces by the dataset's labels."""
    records = read_dataset(_resolve_dataset(ctx, dataset_path), schema=False)
    results = compute_overlap(dataset_labels(records),
                              load_labelspaces(labelspace_dir),
                              case_insensitive=case_insensitive)
    if as_json:
        click.echo(json.dumps([{
            "benchmark": r.benchmark, "split": r.split,
            "gold_labels": r.gold_label_count, "matched": r.matched_count,
            "coverage": round(float(r.coverage), 4),
        } for r in results], indent=2))
        return
    width = max(len(f"{r.benchmark}.{r.split}") for r in results)
    for r in results:
        name = f"{r.benchmark}.{r.split}"
        click.echo(f"{name:{width}}  {r.matched_count:4d} / {r.gold_label_count:4d}"
                   f"  ({100 * float(r.coverage):5.1f}%)")


@main.command("emit-train")
@click.argument("dataset_path", required=False, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Training file to write (default: train.jsonl beside the dataset).")
@click.pass_context
@guarded
def emit_train(ctx, dataset_path, out_path):
    """Emit supervised training examples in the code-style format."""
    path = _resolve_dataset(ctx, dataset_path)
    records = read_dataset(path)
    out = Path(out_path) if out_path else path.with_name("train.jsonl")
    written = emit_training_examples(records, out)
    click.echo(f"wrote {written} of {len(records)} examples -> {out}")
    raise SystemExit(0 if written == len(records) else 1)


@main.command("eval")
@click.argument("gold_dir", type=click.Path(exists=True))
@click.argument("pred_dir", type=click.Path(exists=True))
@click.option("--matching", type=click.Choice(["exact", "normalized"]),
              default="exact", show_default=True)
@click.option("--schema", "schema_path", type=click.Path(exists=True), default=None,
              help="Guidelines file used to pick each class's mention field.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
@guarded
def eval_cmd(gold_dir, pred_dir, matching, schema_path, as_json):
    """Score predictions against gold files paired by name."""
    schema = (parse_guidelines(Path(schema_path).read_text(encoding="utf-8"))
              if schema_path else None)
    gold_files = sorted(Path(gold_dir).glob("*.jsonl"))
    if not gold_files:
        raise ConfigError(f"no gold files in {gold_dir}")
    suites = {}
    missing = []
    for gold_file in gold_files:
        pred_file = Path(pred_dir) / gold_file.name
        golds = load_gold(gold_file)
        if pred_file.exists():
            preds = load_predictions(pred_file, schema)
        else:
            missing.append(gold_file.name)
            log.warning("no predictions for %s; scoring as empty", gold_file.name)
            preds = []
        suites[gold_file.stem] = (golds, preds)
    report = score_benchmarks(suites, matching=matching)
    if as_json:
        click.echo(json.dumps({
            "per_dataset": {name: r.to_dict()
                            for name, r in report.per_dataset.items()},
            "macro_f1": report.macro_f1,
        }, indent=2))
    else:
        rows = [(name, report.per_dataset[name]) for name in sorted(report.per_dataset)]
        click.echo(format_table(rows, macro=report.macro_f1))
    raise SystemExit(1 if missing else 0)


if __name__ == "__main__":
    sys.exit(main())
