"""Command-line entry point: the whole workflow as subcommands.

``main()`` parses the command line and runs one command; the tests call it
in process. ``run()``, the entry point of ``annoforge`` and of ``python -m
annoforge.cli``, adds what only a whole process may do: a report that its
reader cut short exits 141, and the garbage collections at interpreter
shutdown skip every object the command made.

Exit codes: 0 success; 1 the command ran but produced warnings (dropped
instances, skipped records, missing prediction files, zero generated
records); 2 usage or configuration error; 3 runtime failure; 141 the reader
of stdout closed it before the report was written (``| head``).
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import time
from collections import Counter
from contextlib import closing, contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# Every command loads jsonl and validation (with notation), so only these are
# imported here; each command imports the rest. The dataset commands load
# dataset and eval loads evaluation; only a command that reads a config
# (generate, or --config locating a dataset) loads config, corpus and yaml;
# generate alone loads the pipeline, the client and datetime.
# The rule: an analysis command loads no module it does not use. So the
# records of notation, validation, dataset and evaluation are slotted
# ``Value`` classes (see the package root), not dataclasses, and no analysis
# command loads ``dataclasses`` or, through it, ``inspect``; ``fractions``
# loads only in stats and overlap. pipeline, llm, config and corpus keep
# ``@dataclass``: only generate and --config load them, generate writes its
# trail and reject lines with ``asdict``, and the run settings are frozen.
from . import ConfigError, jsonl
from .validation import GROUNDING_POLICIES, MATCHING_MODES

if TYPE_CHECKING:
    from .config import RunConfig

log = logging.getLogger("annoforge.cli")  # not __main__ under python -m


def _load_cfg(opts: argparse.Namespace) -> RunConfig:
    from .config import load_config

    if opts.config_path is None:
        raise ConfigError("this command needs --config")
    cfg = load_config(opts.config_path)
    if opts.output_dir:
        cfg.output_dir = Path(opts.output_dir)
    return cfg


def _resolve_dataset(opts: argparse.Namespace) -> Path:
    if opts.dataset_path is not None:
        path = Path(opts.dataset_path)
    elif opts.output_dir:
        path = Path(opts.output_dir) / "dataset.jsonl"
    elif opts.config_path:
        path = _load_cfg(opts).output_dir / "dataset.jsonl"
    else:
        raise ConfigError("give a dataset path, or --config/--output-dir to locate one")
    if path.is_dir():  # a usage error, as a missing file is
        raise ConfigError(f"dataset is a directory, not a file: {path}")
    if not path.exists():  # also a path under a file, which cannot exist
        raise ConfigError(f"dataset not found: {path}")
    return path


@contextmanager
def _replacing(out: Path):
    """A temporary file beside ``out`` that replaces it only if the block succeeds,
    so a failed run leaves ``out`` as it was, even when ``out`` is the input."""
    tmp = out.with_name(out.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def generate(opts: argparse.Namespace) -> int:
    """Run the four-stage pipeline over the corpus and write the dataset."""
    from dataclasses import asdict
    from datetime import timedelta

    from .config import build_client, build_templates, load_docs
    from .dataset import resume_doc_ids, write_dataset
    from .pipeline import config_meta, run_pipeline

    cfg = _load_cfg(opts)
    docs = load_docs(cfg, seed=opts.seed)
    templates = build_templates(cfg)
    client = build_client(cfg)
    out = cfg.output_dir
    dataset_path = out / "dataset.jsonl"

    resume = opts.resume
    done = set()
    for path in (dataset_path, out / "trail.jsonl", out / "rejects.jsonl"):
        if resume and path.exists():  # a kill leaves at most an unterminated last line
            jsonl.mend(path)
    if resume and dataset_path.exists():
        done = resume_doc_ids(dataset_path, config_meta(templates, client, cfg.grounding))
        log.info("resuming: %d records already present", len(done))
    pending = [doc for doc in docs if doc.doc_id not in done]
    step = -(-len(pending) // 20)  # about 20 progress lines, whatever the corpus size
    outcomes = run_pipeline(pending, templates, client, keep_empty=cfg.keep_empty,
                            grounding=cfg.grounding, max_doc_chars=cfg.max_doc_chars)
    counts: Counter[str] = Counter()
    out.mkdir(parents=True, exist_ok=True)
    # a resume appends, keeping the audit of earlier runs; a document that runs
    # again (it was rejected) has its new lines after its old ones
    audit_mode = "a" if resume else "w"
    # closing, so a failed write cancels the documents not yet started
    with closing(outcomes), open(out / "trail.jsonl", audit_mode, encoding="utf-8") as trail, \
            open(out / "rejects.jsonl", audit_mode, encoding="utf-8") as rejects:

        def records():
            start = time.monotonic()
            for n, (record, reject, steps) in enumerate(outcomes, 1):
                trail.writelines(jsonl.dumps(asdict(step)) for step in steps)
                counts["records" if reject is None else "rejects"] += 1
                if reject is not None:
                    rejects.write(jsonl.dumps(asdict(reject)))
                # on disk before the record, so a killed run keeps each record's audit
                trail.flush()
                rejects.flush()
                if n % step == 0 or n == len(pending):
                    rate = n / max(time.monotonic() - start, 1e-9)
                    log.info("progress: %d/%d documents, %.1f docs/s, ETA %s", n, len(pending),
                             rate, timedelta(seconds=round((len(pending) - n) / rate)))
                if reject is None:
                    yield record

        write_dataset(records(), dataset_path, append=bool(done))

    total = len(done) + counts["records"]
    print(f"generated {counts['records']} records "
          f"({total} total, {counts['rejects']} rejected) -> {dataset_path}")
    return 0 if total >= 1 else 1


def validate_cmd(opts: argparse.Namespace) -> int:
    """Re-validate a dataset and write the filtered survivors."""
    from .dataset import iter_dataset, write_dataset
    from .validation import filter_instances

    path = _resolve_dataset(opts)
    out = Path(opts.out_path) if opts.out_path else path.with_name(path.stem + ".filtered.jsonl")
    by_code: Counter[str] = Counter()
    counts: Counter[str] = Counter()

    def revalidated():
        for record in iter_dataset(path):
            policy = opts.grounding or record.meta.get("grounding", "normalized")
            kept, errors = filter_instances(record.instances, record.schema,
                                            record.document, grounding=policy)
            counts["records"] += 1
            counts["dropped"] += len(record.instances.instances) - len(kept.instances)
            by_code.update(err.code.value for err in errors)
            if errors:  # an instance was dropped; untouched, the set keeps its text
                record.instances = kept
            record.validation = {**record.validation,
                                 "revalidated": policy,
                                 "kept_count": len(kept.instances)}
            yield record

    with _replacing(out) as tmp:
        write_dataset(revalidated(), tmp)
    for code in sorted(by_code):
        print(f"{code}: {by_code[code]}")
    print(f"dropped {counts['dropped']} instances across {counts['records']} "
          f"records -> {out}")
    return 1 if counts["dropped"] else 0


def stats(opts: argparse.Namespace) -> int:
    """Label statistics over a dataset."""
    from .dataset import compute_stats, iter_dataset

    result = compute_stats(iter_dataset(_resolve_dataset(opts), schema=False))
    if opts.as_json:
        print(json.dumps(result.to_dict(opts.top), indent=2))
        return 0
    print(f"documents               {result.n_docs}")
    print(f"unique labels           {result.unique_label_count}")
    print(f"distinct labels per doc {float(result.avg_distinct_labels_per_doc):.2f}")
    print(f"annotations per doc     {float(result.avg_annotations_per_doc):.2f}")
    if result.annotation_frequency:
        print("top labels:")
        for label, count in result.top(opts.top):
            print(f"  {count:6d}  {label}")
        print("bottom labels:")
        for label, count in result.bottom(opts.top):
            print(f"  {count:6d}  {label}")
    return 0


def overlap(opts: argparse.Namespace) -> int:
    """Coverage of benchmark label spaces by the dataset's labels."""
    from .dataset import compute_overlap, dataset_labels, iter_dataset, load_labelspaces

    path = _resolve_dataset(opts)
    labels = dataset_labels(iter_dataset(path, schema=False))
    if not labels:
        raise ValueError(f"{path}: dataset label set is empty")
    results = compute_overlap(labels, load_labelspaces(opts.labelspace_dir),
                              case_insensitive=opts.case_insensitive)
    if opts.as_json:
        print(json.dumps([{
            "benchmark": r.benchmark, "split": r.split,
            "gold_labels": r.gold_label_count, "matched": r.matched_count,
            "coverage": round(float(r.coverage), 4),
        } for r in results], indent=2))
        return 0
    width = max(len(f"{r.benchmark}.{r.split}") for r in results)
    for r in results:
        name = f"{r.benchmark}.{r.split}"
        print(f"{name:{width}}  {r.matched_count:4d} / {r.gold_label_count:4d}"
              f"  ({100 * float(r.coverage):5.1f}%)")
    return 0


def emit_train(opts: argparse.Namespace) -> int:
    """Emit supervised training examples in the code-style format."""
    from .dataset import emit_training_examples, iter_dataset

    path = _resolve_dataset(opts)
    out = Path(opts.out_path) if opts.out_path else path.with_name("train.jsonl")
    with _replacing(out) as tmp:
        written, read = emit_training_examples(iter_dataset(path), tmp)
    print(f"wrote {written} of {read} examples -> {out}")
    return 0 if written == read else 1


def eval_cmd(opts: argparse.Namespace) -> int:
    """Score predictions against gold files paired by name."""
    from .evaluation import format_table, load_gold, load_predictions, macro_average, score
    from .notation import ParseError, parse_guidelines

    try:
        schema = (parse_guidelines(Path(opts.schema_path).read_text(encoding="utf-8"))
                  if opts.schema_path else None)
    except ParseError as exc:
        raise ValueError(f"{opts.schema_path}: {exc}") from exc
    gold_files = sorted(Path(opts.gold_dir).glob("*.jsonl"))
    if not gold_files:
        raise ConfigError(f"no gold files in {opts.gold_dir}")
    per_dataset = {}
    missing = False
    for gold_file in gold_files:
        golds = load_gold(gold_file)
        pred_file = Path(opts.pred_dir) / gold_file.name
        if pred_file.exists():
            preds = load_predictions(pred_file, schema)  # score reads it line by line
        else:
            missing = True
            log.warning("no predictions for %s; scoring as empty", gold_file.name)
            preds = []
        per_dataset[gold_file.stem] = score(golds, preds, matching=opts.matching)
        del golds, preds  # let this suite go before the next one loads
    macro_f1 = macro_average([r.f1 for r in per_dataset.values()])
    if opts.as_json:
        print(json.dumps({
            "per_dataset": {name: r.to_dict() for name, r in per_dataset.items()},
            "macro_f1": macro_f1,
        }, indent=2))
    else:
        rows = [(name, per_dataset[name]) for name in sorted(per_dataset)]
        print(format_table(rows, macro=macro_f1))
    return 1 if missing else 0


def _existing_path(value: str) -> str:
    if not os.path.exists(value):
        raise argparse.ArgumentTypeError(f"path {value!r} does not exist")
    return value


def _existing_dir(value: str) -> str:
    if not os.path.isdir(_existing_path(value)):
        raise argparse.ArgumentTypeError(f"path {value!r} is not a directory")
    return value


def _existing_file(value: str) -> str:
    if os.path.isdir(_existing_path(value)):
        raise argparse.ArgumentTypeError(f"path {value!r} is a directory, not a file")
    return value


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a valid integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"{number} is not >= 1")
    return number


# --help only, no -h, and no abbreviated options: the surface the CLI has always had
PARSER_SETTINGS = {"add_help": False, "allow_abbrev": False}


def _with_help(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def build_parser(prog: str | None = None) -> argparse.ArgumentParser:
    """The command line: global options, then one subcommand with its own."""
    parser = _with_help(argparse.ArgumentParser(
        prog=prog or "annoforge", **PARSER_SETTINGS,
        description="Generate, validate, describe, and score schema-guided annotations."))
    parser.add_argument("--config", dest="config_path", metavar="PATH",
                        help="Run configuration file (YAML).")
    parser.add_argument("--output-dir", metavar="PATH",
                        help="Override the configured output directory.")
    parser.add_argument("--seed", type=int, help="Override the configured sampling seed.")
    parser.add_argument("--resume", action="store_true",
                        help="Skip documents already present in the output dataset.")
    parser.add_argument("--quiet", action="store_true", help="Only warnings and errors.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, func) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=func.__doc__, description=func.__doc__,
                                  **PARSER_SETTINGS)
        sub.set_defaults(run=func)
        return _with_help(sub)

    command("generate", generate)

    sub = command("validate", validate_cmd)
    sub.add_argument("dataset_path", nargs="?", metavar="DATASET_PATH")
    sub.add_argument("--grounding", choices=GROUNDING_POLICIES,
                     help="Override the policy the records were generated with.")
    sub.add_argument("--out", dest="out_path", metavar="PATH",
                     help="Where to write the filtered dataset.")

    sub = command("stats", stats)
    sub.add_argument("dataset_path", nargs="?", metavar="DATASET_PATH")
    sub.add_argument("--top", type=_positive_int, default=10, metavar="N",
                     help="Rows in the top/bottom label tables (default: 10).")
    sub.add_argument("--json", dest="as_json", action="store_true",
                     help="Machine-readable output.")

    sub = command("overlap", overlap)
    sub.add_argument("dataset_path", nargs="?", metavar="DATASET_PATH")
    sub.add_argument("--labels", dest="labelspace_dir", type=_existing_path, required=True,
                     metavar="PATH", help="Directory of <benchmark>.<split>.txt files.")
    sub.add_argument("--case-insensitive", action="store_true",
                     help="Fold case when matching labels.")
    sub.add_argument("--json", dest="as_json", action="store_true",
                     help="Machine-readable output.")

    sub = command("emit-train", emit_train)
    sub.add_argument("dataset_path", nargs="?", metavar="DATASET_PATH")
    sub.add_argument("--out", dest="out_path", metavar="PATH",
                     help="Training file to write (default: train.jsonl beside the dataset).")

    sub = command("eval", eval_cmd)
    sub.add_argument("gold_dir", type=_existing_dir, metavar="GOLD_DIR")
    sub.add_argument("pred_dir", type=_existing_dir, metavar="PRED_DIR")
    sub.add_argument("--matching", choices=MATCHING_MODES, default="exact",
                     help="Span matching (default: exact).")
    sub.add_argument("--schema", dest="schema_path", type=_existing_file, metavar="PATH",
                     help="Guidelines file used to pick each class's mention field.")
    sub.add_argument("--json", dest="as_json", action="store_true",
                     help="Machine-readable output.")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None):
    """Run the command line ``args`` (default: ``sys.argv[1:]``).

    Ends in ``SystemExit`` with the command's exit code, or in the
    ``BrokenPipeError`` of an output whose reader closed it, which ``run()``
    turns into exit 141.
    """
    opts = build_parser(prog_name).parse_args(args)
    logging.basicConfig(level=logging.WARNING if opts.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        code = opts.run(opts)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    except BrokenPipeError:  # an output's reader closed it (the client's are LLMErrors)
        raise
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        raise SystemExit(3) from exc
    except KeyboardInterrupt:  # Ctrl-C: a one-word note and exit 1, not a traceback
        print("\nAborted!", file=sys.stderr)
        code = 1
    raise SystemExit(code)


def run() -> NoReturn:
    """The process entry point: ``main()``, then two steps that act on the
    whole process, which is why ``main()`` leaves them out.

    A report cut short by its reader (``annoforge stats ... | head -1``)
    exits 141, the status a shell gives a writer that SIGPIPE ended, with
    nothing on stderr: stdout then points at ``os.devnull``, so the flush at
    exit cannot fail again. And ``gc.freeze()`` moves every object the
    command made out of the collector's reach, so the full collections that
    run while the interpreter shuts down skip them. Nothing is left for them
    to finalize: each command closes what it opens in a ``with`` block.
    """
    try:
        try:
            main()
        finally:  # what is still in stdout's buffer meets a closed pipe here
            sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        raise SystemExit(141) from None
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
