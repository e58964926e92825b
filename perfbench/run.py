"""annoforge benchmark: three seeded workloads driven through the CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all workloads, tiny sizes, both modes

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):
    generate-http    ``generate`` over the http backend against a mock endpoint
                     with scaled-down model latency, 429s, repairs and truncations
    generate-replay  ``generate`` over the replay backend on long documents,
                     from a cache recorded during set-up, so model time is zero
    analyse          ``validate``, ``stats``, ``emit-train`` and ``eval`` over a
                     large seeded dataset and large gold/prediction suites

Every annoforge command runs in a fresh process from ``src/``, as a user
would run it. A round is one pass of the workload's command sequence; the
run repeats rounds for about ``--seconds``. The generate workloads follow
``generate`` with the same four analysis commands on the new dataset, which
also checks it. With ``--trace 1`` the run makes one untraced and one traced
round and reports per-layer metrics from the traced one. The last stdout
line is the JSON result; an ``env:`` line before it records the machine, and
a ``raw:`` line the measured times before they are brought to the reference
speed (see ``SpeedProbe``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKLOADS = ("generate-http", "generate-replay", "analyse")
PARALLELISM = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150

SIZES = {
    "full": {"http_docs": 100, "replay_docs": 45, "records": 2500, "examples": 3000},
    "smoke": {"http_docs": 12, "replay_docs": 4, "records": 300, "examples": 200},
}
# The probe's time on the reference machine (a 2-core Intel Xeon VM, Python
# 3.11) at its usual speed. Reported times are brought to that speed.
PROBE_REF_S = 0.18
MIN_ROUNDS = {"generate-http": 1, "generate-replay": 2, "analyse": 1}
ANALYSIS = ("validate", "stats", "emit_train", "eval")
# A generate-http round takes most of a run, so after its generate the
# analysis commands, each about as long as interpreter start-up, repeat
# until the run's time is used, at least MIN_HTTP_PASSES times, to give
# each command time a median. The other workloads repeat whole rounds.
MIN_HTTP_PASSES = 3
# The commands whose documents docs_per_s and cpu_ms_per_doc count.
PRIMARY = {"generate-http": ("generate",), "generate-replay": ("generate",),
           "analyse": ANALYSIS}

# Spans the traced run records; each yields <name>.s and <name>.self_s.
SPAN_NAMES = (
    "config.load_config", "corpus.load", "llm.complete", "llm.request_key",
    "llm.cache_load", "pipeline.render", "pipeline.stage.summarize",
    "pipeline.stage.structure", "pipeline.stage.guidelines", "pipeline.stage.instances",
    "notation.parse_instances", "notation.parse_guidelines", "notation.print_instances",
    "notation.print_guidelines", "validation.validate", "dataset.write", "dataset.read",
    "dataset.compute_stats", "dataset.emit_train", "evaluation.load_gold",
    "evaluation.load_predictions", "evaluation.score",
)


class CheckFailed(Exception):
    pass


def at_reference_speed(wall_s: float, cpu_s: float, probe_s: float) -> float:
    """``wall_s`` with its CPU part scaled to the speed at which the probe takes PROBE_REF_S.

    Only CPU time follows the host's speed; time spent waiting (model
    latency, backoff sleeps) is kept as measured.
    """
    return wall_s - cpu_s * (1 - PROBE_REF_S / probe_s)


class SpeedProbe:
    """Times ``probe.py`` in a fresh interpreter: how fast the host runs Python now.

    The host is shared, and its speed drifts by tens of percent over
    minutes, which moves every CPU-bound time with it. Each timed command
    gets the mean of the probe's times just before and just after it, and
    its CPU time is scaled by PROBE_REF_S over that mean. The probe does the
    same kinds of work as annoforge's commands and imports nothing from
    annoforge, so a change to annoforge does not move it.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.last: float | None = None
        self.times: list[float] = []

    def measure(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(BENCH / "probe.py")], check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        self.last = time.perf_counter() - start
        self.times.append(self.last)
        return self.last

    def before(self) -> float:
        return self.last if self.last is not None else self.measure()


PROBE = SpeedProbe()


@dataclass
class Command:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    probe_s: float = PROBE_REF_S
    spans: list = field(default_factory=list)

    @property
    def ref_wall_s(self) -> float:
        return at_reference_speed(self.wall_s, self.cpu_s, self.probe_s)

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * PROBE_REF_S / self.probe_s


@dataclass
class Round:
    primary: tuple[str, ...]
    docs: int = 0
    rejected: int = 0
    unexpected: int = 0
    commands: list[Command] = field(default_factory=list)
    endpoint: dict = field(default_factory=dict)
    trail: list = field(default_factory=list)
    give_ups: int = 0
    dataset_sha: str = ""

    def times(self, name: str) -> list[float]:
        return [c.ref_wall_s for c in self.commands if c.name == name]

    @property
    def primary_wall_s(self) -> float:
        return sum(c.ref_wall_s for c in self.commands if c.name in self.primary)

    @property
    def primary_cpu_s(self) -> float:
        return sum(c.ref_cpu_s for c in self.commands if c.name in self.primary)

    @property
    def wall_s(self) -> float:
        return sum(c.ref_wall_s for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- processes ---------------------------------------------------------------

def run_annoforge(name: str, args: list[str], work: Path, traced: bool,
                  expect: tuple[int, ...], probed: bool = True) -> Command:
    """Run one CLI command in a fresh process and take its wall time, CPU and peak RSS.

    With ``probed``, the speed probe runs before (unless it just ran) and after.
    """
    probe_before = PROBE.before() if probed else PROBE_REF_S
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans_path = work / f"{name}.spans.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), *args]
        env["PERFBENCH_TRACE_OUT"] = str(spans_path)
    else:
        argv = [sys.executable, "-m", "annoforge.cli", *args]
    out_path, err_path = work / f"{name}.out", work / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=work)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe_s = (probe_before + PROBE.measure()) / 2 if probed else PROBE_REF_S
    stdout = out_path.read_text(encoding="utf-8")
    if proc.returncode not in expect:
        tail = err_path.read_text(encoding="utf-8")[-2000:]
        raise CheckFailed(f"{name} exited {proc.returncode}, expected {expect}: {tail}")
    spans = json.loads(spans_path.read_text()) if traced else []
    return Command(name, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024, stdout, probe_s, spans)


class MockEndpoint:
    """The mock endpoint in its own process, so its work takes no share of annoforge's GIL."""

    def __init__(self, plan: Path, fixed_ms: float, per_char_us: float) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mock_endpoint.py"), "--plan", str(plan),
             "--templates", str(SRC / "annoforge" / "templates"),
             "--fixed-ms", str(fixed_ms), "--per-char-us", str(per_char_us)],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError("mock endpoint did not start")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def call(self, method: str, path: str) -> dict:
        req = urllib.request.Request(self.url + path, method=method,
                                     data=b"" if method == "POST" else None)
        with urllib.request.urlopen(req, timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# -- set-up ------------------------------------------------------------------

def write_config(path: Path, corpus: Path, backend: str, out: Path,
                 base_url: str | None = None, cache: Path | None = None) -> None:
    # JSON strings are YAML scalars, so paths need no further quoting
    q = json.dumps
    lines = [f"corpus: {q(str(corpus))}", "client:", f"  backend: {backend}",
             "  model: bench", f"  parallelism: {PARALLELISM}"]
    if base_url:
        lines.append(f"  base_url: {q(base_url)}")
    if cache:
        lines.append(f"  cache: {q(str(cache))}")
    lines += ["pipeline:", "  grounding: normalized", f"output_dir: {q(str(out))}"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    """Inputs and state of one workload, built by ``setup`` from the seed."""

    def __init__(self, name: str, seed: int, sizes: dict, work: Path) -> None:
        self.name, self.seed, self.sizes, self.work = name, seed, sizes, work
        self.mock: MockEndpoint | None = None
        self.expected: dict = {}
        self.inputs = work / "inputs"

    def setup(self) -> None:
        self.inputs.mkdir(parents=True)
        if self.name == "analyse":
            self.expected = gen.build_analyse_inputs(
                self.seed, self.inputs, self.sizes["records"], self.sizes["examples"])
            return
        if self.name == "generate-http":
            inputs = gen.build_generate_inputs(
                self.seed, self.name, self.sizes["http_docs"], words=(200, 400),
                entities=(6, 10), classes=(2, 4), faults=gen.HTTP_FAULTS, prefix="h")
        else:
            inputs = gen.build_generate_inputs(
                self.seed, self.name, self.sizes["replay_docs"], words=(10000, 20000),
                entities=(45, 55), classes=(5, 8), faults=gen.REPLAY_FAULTS, prefix="r")
        gen.write_generate_inputs(inputs, self.inputs)
        self.expected = inputs["expected"]
        self.n_docs = len(inputs["corpus"])
        corpus, config = self.inputs / "corpus.jsonl", self.inputs / "config.yaml"
        if self.name == "generate-http":
            self.mock = MockEndpoint(self.inputs / "plan.json", fixed_ms=15, per_char_us=20)
            write_config(config, corpus, "http", self.inputs / "out", base_url=self.mock.url)
            return
        cache = self.inputs / "cache.jsonl"
        self.mock = MockEndpoint(self.inputs / "plan.json", fixed_ms=0, per_char_us=0)
        try:
            record_cfg = self.inputs / "record.yaml"
            write_config(record_cfg, corpus, "record", self.inputs / "recorded",
                         base_url=self.mock.url, cache=cache)
            run_annoforge("record", ["--config", str(record_cfg), "generate"],
                          self.inputs, traced=False, expect=(0,), probed=False)
        finally:
            self.stop()
        write_config(config, corpus, "replay", self.inputs / "out", cache=cache)

    def stop(self) -> None:
        if self.mock is not None:
            self.mock.stop()
            self.mock = None


def cpu_now() -> float:
    """CPU seconds of this process plus its waited-for children."""
    own, children = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(
        resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup_workload(name: str, seed: int, sizes: dict, work: Path,
                   repeats: int) -> tuple[Workload, list[float], list[float]]:
    """Set up ``repeats`` times from scratch; keep the last.

    Returns every duration as measured and at the reference speed.
    """
    raw, times, workload = [], [], None
    for i in range(repeats):
        if workload is not None:
            workload.stop()
            shutil.rmtree(workload.work)
        probe_before = PROBE.before()
        start, cpu_start = time.perf_counter(), cpu_now()
        workload = Workload(name, seed, sizes, work / f"setup{i}")
        try:
            workload.setup()
        except BaseException:
            workload.stop()
            raise
        wall, cpu = time.perf_counter() - start, cpu_now() - cpu_start
        raw.append(wall)
        times.append(at_reference_speed(wall, cpu, (probe_before + PROBE.measure()) / 2))
    return workload, times, raw


# -- rounds and their checks -------------------------------------------------

def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_round(wl: Workload, index: int, traced: bool, passes: int = 1,
              pass_deadline: float = 0.0) -> Round:
    work = wl.work / f"round{index}"
    work.mkdir()
    rnd = Round(primary=PRIMARY[wl.name])
    if wl.name == "analyse":
        analyse_round(rnd, wl, work, traced)
    else:
        generate_round(rnd, wl, work, traced, passes, pass_deadline)
    return rnd


def generate_round(rnd: Round, wl: Workload, work: Path, traced: bool, passes: int,
                   pass_deadline: float) -> None:
    rnd.docs = wl.n_docs
    out = work / "out"
    if wl.mock is not None:
        wl.mock.call("POST", "/reset")
    rnd.commands.append(run_annoforge(
        "generate", ["--config", str(wl.inputs / "config.yaml"), "--output-dir", str(out),
                     "generate"], work, traced, expect=(0,)))
    if wl.mock is not None:
        rnd.endpoint = wl.mock.call("GET", "/stats")
    dataset_path = out / "dataset.jsonl"
    rnd.dataset_sha = hashlib.sha256(dataset_path.read_bytes()).hexdigest()
    records = read_jsonl(dataset_path)[1:]
    rejects = read_jsonl(out / "rejects.jsonl")
    rnd.trail = [{k: t[k] for k in ("doc_id", "stage", "attempt", "parsed_ok")}
                 for t in read_jsonl(out / "trail.jsonl")]
    rnd.rejected = len(rejects)
    rnd.give_ups = sum("giving up after" in r["reason"] for r in rejects)

    accepted = [r["doc_id"] for r in records]
    rejected = {r["doc_id"]: r["stage"] for r in rejects}
    check(len(accepted) == len(set(accepted)), "a document is written twice")
    check(len(accepted) + len(rejects) == wl.n_docs and not set(accepted) & set(rejected),
          "accepted plus rejected documents do not equal the input")
    want_acc, want_rej = wl.expected["accepted"], wl.expected["rejected"]
    rnd.unexpected = (len(set(accepted) ^ set(want_acc))
                      + sum(rejected.get(d) != s for d, s in want_rej.items()))
    check(rnd.unexpected == 0, f"{rnd.unexpected} documents do not end as the "
                               "fault schedule implies")

    pred = work / "pred"
    pred.mkdir()
    with open(pred / "generated.jsonl", "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps({"id": record["doc_id"], "output": record["instances"]}) + "\n")
    labels = Counter(c for mentions in want_acc.values() for c, _ in mentions)
    mentions = sum(len(m) for m in want_acc.values())
    done, pass_s = 0, 0.0
    # stop before a pass that would end past the deadline
    while done < passes or time.perf_counter() + pass_s < pass_deadline:
        done += 1
        pass_start = time.perf_counter()
        # exit 0 from validate means every record re-validates with zero errors;
        # eval of the kept instances against the expected survivors must be exact
        cmds = run_analysis(rnd, work, traced, dataset_path, validate_exit=0, emit_exit=0,
                            gold=wl.inputs / "gold", pred=pred)
        check_stats(cmds, len(want_acc), labels)
        check_eval(cmds, {"generated": {"tp": mentions, "fp": 0, "fn": 0}})
        check(cmds["emit_train"].stdout.startswith(f"wrote {len(records)} of {len(records)} "),
              "emit-train skipped a record")
        pass_s = time.perf_counter() - pass_start


def analyse_round(rnd: Round, wl: Workload, work: Path, traced: bool) -> None:
    exp = wl.expected
    rnd.docs = exp["records"]
    dataset_path = wl.inputs / "dataset.jsonl"
    cmds = run_analysis(rnd, work, traced, dataset_path, validate_exit=1, emit_exit=1,
                        gold=wl.inputs / "gold", pred=wl.inputs / "pred")
    lines = cmds["validate"].stdout.splitlines()
    codes = dict(line.split(": ") for line in lines[:-1])
    check({k: int(v) for k, v in codes.items()} == exp["codes"],
          f"validate error codes {codes} differ from {exp['codes']}")
    check(lines[-1].startswith(f"dropped {exp['dropped']} instances across "
                               f"{exp['records']} records"), f"validate said {lines[-1]!r}")
    check_stats(cmds, exp["records"], Counter(exp["label_counts"]))
    check_eval(cmds, exp["eval"])
    written = cmds["emit_train"].stdout
    check(written.startswith(f"wrote {exp['clean_records']} of {exp['records']} "),
          f"emit-train said {written!r}")
    rnd.rejected = exp["records"] - exp["clean_records"]


def run_analysis(rnd: Round, work: Path, traced: bool, dataset: Path, validate_exit: int,
                 emit_exit: int, gold: Path, pred: Path) -> dict[str, Command]:
    """One pass of validate, stats (of validate's output), emit-train and eval."""
    filtered = work / "filtered.jsonl"
    steps = {
        "validate": (["validate", str(dataset), "--out", str(filtered)], validate_exit),
        "stats": (["stats", str(filtered), "--json", "--top", "1000"], 0),
        "emit_train": (["emit-train", str(dataset), "--out", str(work / "train.jsonl")],
                       emit_exit),
        "eval": (["eval", str(gold), str(pred), "--matching", "normalized", "--json"], 0),
    }
    cmds = {}
    for name, (args, code) in steps.items():
        cmds[name] = run_annoforge(name, args, work, traced, expect=(code,))
        rnd.commands.append(cmds[name])
    return cmds


def check_stats(cmds: dict[str, Command], n_docs: int, labels: Counter) -> None:
    stats = json.loads(cmds["stats"].stdout)
    got = Counter({row["label"]: row["count"] for row in stats["top"]})
    check(stats["n_docs"] == n_docs, f"stats counted {stats['n_docs']} documents, not {n_docs}")
    check(got == labels, "stats label counts differ from the generator's survivors")


def check_eval(cmds: dict[str, Command], expected: dict) -> None:
    report = json.loads(cmds["eval"].stdout)["per_dataset"]
    got = {name: {k: r[k] for k in ("tp", "fp", "fn")} for name, r in report.items()}
    check(got == expected, f"eval counts {got} differ from the generator's {expected}")


# -- metrics -----------------------------------------------------------------

def end_to_end(rounds: list[Round], setup_times: list[float]) -> dict[str, float]:
    docs = sum(r.docs for r in rounds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r.rss_mb for r in rounds),
        # totals over the timed run, which weigh every round by its length
        "docs_per_s": docs / sum(r.primary_wall_s for r in rounds),
        "cpu_ms_per_doc": 1000 * sum(r.primary_cpu_s for r in rounds) / docs,
        "doc_reject_ratio": sum(r.rejected for r in rounds) / docs,
    }
    for name in ANALYSIS:
        metrics[f"{name}_s"] = statistics.median(t for r in rounds for t in r.times(name))
    return metrics


def raw_times(rounds: list[Round], raw_setup: list[float]) -> dict[str, float]:
    """Median times as measured, before scaling to the reference speed, and the probe's."""
    commands = [c for r in rounds for c in r.commands]
    raw = {"setup_s": statistics.median(raw_setup),
           "probe_s": statistics.median(PROBE.times)}
    for name in sorted({c.name for c in commands}):
        raw[f"{name}_s"] = statistics.median(c.wall_s for c in commands if c.name == name)
    return {k: round(v, 4) for k, v in raw.items()}


def span_totals(commands: list[list]) -> tuple[dict, dict, dict, dict]:
    """Per span name: total seconds, self seconds, calls and the recorded sizes.

    ``commands`` holds each process's spans; span ids are unique per process.
    """
    total, self_s, calls, sizes = (defaultdict(float), defaultdict(float),
                                   Counter(), defaultdict(list))
    for spans in commands:
        child_s: dict[int, float] = defaultdict(float)
        child_llm_s: dict[int, float] = defaultdict(float)
        for _sid, name, start, end, parent, _doc, _size in spans:
            if parent is not None:
                child_s[parent] += end - start
                if name == "llm.complete":
                    child_llm_s[parent] += end - start
        for sid, name, start, end, _parent, _doc, size in spans:
            total[name] += end - start
            # a stage's self time is its in-process work: everything but the model call
            minus = child_llm_s[sid] if name.startswith("pipeline.stage.") else child_s[sid]
            self_s[name] += end - start - minus
            calls[name] += 1
            if size is not None:
                sizes[name].append(size)
    return total, self_s, calls, sizes


def per_layer(untraced: Round, traced: Round) -> dict[str, float]:
    total, self_s, calls, sizes = span_totals([c.spans for c in traced.commands])
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.s"] = total[name]
        m[f"{name}.self_s"] = self_s[name]
    m["llm.complete.calls"] = calls["llm.complete"]
    m["notation.parse_instances.calls"] = calls["notation.parse_instances"]
    chars = sum(sizes["notation.parse_instances"])
    m["notation.parse_instances.chars_per_s"] = (
        chars / total["notation.parse_instances"] if chars else 0.0)

    ep, docs = traced.endpoint, traced.docs
    requests = ep.get("requests", 0)
    lat = sorted(1000 * v for v in ep.get("doc_latency_s", {}).values())
    m["llm.http.requests"] = requests
    m["llm.http.status_429"] = ep.get("status_429", 0)
    m["llm.http.connections_per_request"] = ep["connections"] / requests if requests else 0.0
    m["llm.http.retry_wait_s"] = ep.get("retry_wait_s", 0.0)
    m["llm.http.first_429_wait_s"] = (ep["first_retry_wait_s"] / ep["first_retries"]
                                      if ep.get("first_retries") else 0.0)
    m["llm.http.in_flight_mean"] = (ep["in_flight_area_s"] / ep["window_s"] / PARALLELISM
                                    if ep.get("window_s") else 0.0)
    m["llm.http.doc_latency_p50_ms"] = statistics.median(lat) if lat else 0.0
    m["llm.http.doc_latency_p90_ms"] = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else 0.0
    m["llm.http.requests_per_doc"] = requests / docs if ep else 0.0
    m["llm.http.request_kb_per_doc"] = ep["request_bytes"] / 1024 / docs if ep else 0.0
    m["llm.http.give_up_rejects"] = traced.give_ups

    stage_docs: dict[str, set] = defaultdict(set)
    stage_lines: Counter = Counter()
    reasks = reask_ok = 0
    for t in traced.trail:
        stage_docs[t["stage"]].add(t["doc_id"])
        stage_lines[t["stage"]] += 1
        if t["attempt"] > 1:
            reasks += 1
            reask_ok += t["parsed_ok"]
    for stage in gen.STAGES:
        m[f"pipeline.attempts_per_stage.{stage}"] = (
            stage_lines[stage] / len(stage_docs[stage]) if stage_docs[stage] else 0.0)
    m["pipeline.repair_success_ratio"] = reask_ok / reasks if reasks else 0.0

    checked = sum(n for n, _ in sizes["validation.validate"])
    flagged = sum(bad for _, bad in sizes["validation.validate"])
    m["validation.instances"] = checked
    m["validation.kept_ratio"] = (checked - flagged) / checked if checked else 0.0
    m["dataset.bytes_written"] = sum(sizes["dataset.write"])
    read_records = sum(sizes["dataset.read"])
    m["dataset.read.records_per_s"] = (read_records / total["dataset.read"]
                                       if read_records else 0.0)
    m["trace.overhead.docs_per_s_ratio"] = untraced.primary_wall_s / traced.primary_wall_s
    m["trace.overhead.command_s_ratio"] = traced.wall_s / untraced.wall_s
    return m


# -- environment -------------------------------------------------------------

def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "annoforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        rev = None
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"machine": platform.machine(), "cpu": cpu, "nproc": PARALLELISM,
            "python": platform.python_version(), "git_revision": rev,
            "src_sha256": digest.hexdigest()}


# -- entry point ---------------------------------------------------------------

def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    e2e_units, layer_units = declared_metrics()
    work = BENCH / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = None
    PROBE.reset()
    correct, failed, attempted = True, 0, 0
    metrics: dict[str, float] = {}
    try:
        wl, setup_times, raw_setup = setup_workload(name, seed, sizes, work, SETUP_REPEATS)
        rounds: list[Round] = []
        start = time.perf_counter()
        try:
            if trace:
                rounds = [run_round(wl, 0, traced=False), run_round(wl, 1, traced=True)]
            elif name == "generate-http":
                rounds = [run_round(wl, 0, traced=False, passes=MIN_HTTP_PASSES,
                                    pass_deadline=start + seconds)]
            else:
                while True:
                    rounds.append(run_round(wl, len(rounds), traced=False))
                    elapsed = time.perf_counter() - start
                    if (len(rounds) >= MIN_ROUNDS[name]
                            and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                        break
            if name == "generate-replay":
                check(len({r.dataset_sha for r in rounds}) == 1,
                      "replay datasets of one seed differ between rounds")
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
            failed = max(1, sum(r.unexpected for r in rounds))
        attempted = sum(r.docs for r in rounds) or 1
        if rounds and correct:
            metrics = per_layer(*rounds) if trace else end_to_end(rounds, setup_times)
            print("raw: " + json.dumps(raw_times(rounds, raw_setup)), flush=True)
    finally:
        if wl is not None:
            wl.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    units = layer_units if trace else e2e_units
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                        for k in units if k in metrics}}


def main() -> int:
    ap = argparse.ArgumentParser(description="annoforge benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny sizes, untraced and traced")
    args = ap.parse_args()
    if not (SRC / "annoforge" / "cli.py").is_file():
        print(f"annoforge sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    print("env: " + json.dumps(environment()), flush=True)
    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                result = run_workload(name, args.seed, 0, bool(trace), SIZES["smoke"])
                print(f"{name} trace={trace}: " + json.dumps(result), flush=True)
                ok = ok and result["correct"]
        return 0 if ok else 1
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          SIZES["full"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
