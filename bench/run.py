"""Pipeline benchmark for rerank-distill.

Generates a workload from a seed, then runs the five CLI stages in process
through `rerank_distill.cli.main` (sample -> evaluate -> build-corpus ->
analyze-redundancy -> report) again and again for `--seconds`, and prints
one JSON result as the last line of standard output.

    python3 bench/run.py --workload distill-mock --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload at the default seed

With `--trace 0` the result holds the end-to-end metrics, medians over the
repetitions, measured with nothing hooked. Stage and set-up times are CPU
seconds of the process (user and system, every thread), not wall seconds:
on a host that shares its cores, the hypervisor takes a varying share of
the time away from the virtual CPUs (its "steal" time; on a shared
2-vCPU virtual machine it ranged from a few per cent to over half, in
spells of minutes), and a wall-clock time of CPU-bound work moves with
that share rather than with the program. CPU time leaves stolen time out. Wall times
stay in the traced run's per-layer metrics (`cli.<stage>.wall_ms`), where
the latency workload's waiting shows. With `--trace 1` it holds the
per-layer metrics: repetitions alternate between plain and traced, and the
traced ones wrap the package's functions from outside, where their callers
look them up.

Every run checks the stage outputs. At the default seed their sha256
digests must equal the ones pinned in digests.json; at every seed the
record counts must agree with one another. The latency workload's outputs
must also equal a run of the same inputs without the delay. A failed check
marks the result incorrect and the exit code is 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

from spans import SpanIndex, Tracer, quartiles, self_times, slot_busy_frac

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
STAGES = ("sample", "evaluate", "build-corpus", "analyze-redundancy", "report")
OUTPUTS = ("samples.jsonl", "samples.scored.jsonl", "eval.json", "corpus.jsonl",
           "corpus.stats.json", "redundancy.json", "comparison.json")
SETUP_REPEATS = 7
WALL, CPU = 0, 1  # fields of a stage time

# End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "sample_cpu_s": "s",
    "evaluate_cpu_s": "s",
    "build_corpus_cpu_s": "s",
    "analyze_redundancy_cpu_s": "s",
    "pipeline_cpu_sps": "1/s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "ok_frac": "fraction",
}


def import_package():
    """Import the package from this checkout's src/, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import rerank_distill.cli
    except ImportError as exc:
        sys.exit(f"cannot import rerank_distill from {SRC}: {exc}")
    if not Path(rerank_distill.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"rerank_distill was imported from {rerank_distill.cli.__file__}, not {SRC}")
    return rerank_distill


def import_cpu_seconds() -> float:
    """CPU time to import the CLI module in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
            "import rerank_distill.cli; print(time.process_time() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def stage_argvs(shape, inputs: dict[str, str], out: Path, seed: int) -> list[tuple[str, list[str]]]:
    samples, scored, report = str(out / "samples.jsonl"), str(out / "samples.scored.jsonl"), str(out / "eval.json")
    candidates = ["--topics", inputs["topics"], "--run-file", inputs["run"], "--corpus", inputs["corpus"],
                  "--config", inputs["config"], "--depth", str(shape.depth)]
    return [
        ("sample", ["sample", *candidates, "--backend", "mock", "--qrels", inputs["qrels"],
                    "--profile", shape.profile, "--seed", str(seed), "--out", samples]),
        ("evaluate", ["evaluate", "--samples", samples, "--qrels", inputs["qrels"],
                      "--out", report, "--scored-out", scored]),
        ("build-corpus", ["build-corpus", "--samples", scored, *candidates,
                          "--out", str(out / "corpus.jsonl"), "--stats", str(out / "corpus.stats.json")]),
        ("analyze-redundancy", ["analyze-redundancy", "--samples", scored, "--model-tag", "teacher",
                                "--out", str(out / "redundancy.json")]),
        ("report", ["report", f"teacher={report}", "--out", str(out / "comparison.json")]),
    ]


def run_stage(cli, stage: str, argv: list[str], log, tracer=None) -> tuple[float, float]:
    """Run one stage through the CLI; return its (wall, CPU) seconds.

    The stage starts from a collected heap, as it would in a fresh process,
    so garbage an earlier stage left behind is not charged to it.
    """
    gc.collect()
    with tracer.span("cli." + stage.replace("-", "_")) if tracer else contextlib.nullcontext(), \
            contextlib.redirect_stdout(log):
        start, cpu_start = time.perf_counter(), time.process_time()
        code = cli.main(argv)
        seconds = time.perf_counter() - start, time.process_time() - cpu_start
    if code != 0:
        raise RuntimeError(f"stage {stage} exited with {code}; see its log")
    return seconds


def run_pipeline(cli, argvs, log, tracer=None, offline_repeats: int = 1) -> dict[str, list[tuple[float, float]]]:
    """Run `sample` once and the four stages after it `offline_repeats`
    times; (wall, CPU) seconds of each stage run."""
    (sample, sample_argv), *offline = argvs
    times = {sample: [run_stage(cli, sample, sample_argv, log, tracer)]}
    for _ in range(offline_repeats):
        for stage, argv in offline:
            times.setdefault(stage, []).append(run_stage(cli, stage, argv, log, tracer))
    return times


def pipeline_seconds(times: dict[str, list[tuple[float, float]]]) -> float:
    """CPU time of one pass through the five stages."""
    return sum(statistics.median(t[CPU] for t in v) for v in times.values())


def digest_outputs(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_invariants(out: Path, shape) -> tuple[list[str], int]:
    """Record counts the stage outputs must agree on, at any seed.
    Returns (problems, invalid samples)."""
    problems = []
    store = read_jsonl(out / "samples.jsonl")
    scored = read_jsonl(out / "samples.scored.jsonl")
    if len(store) != shape.queries * shape.k_samples:
        problems.append(f"store has {len(store)} records, expected {shape.queries} x {shape.k_samples}")
    unscored = [{k: v for k, v in r.items() if k != "score"} for r in scored]
    if unscored != [{k: v for k, v in r.items() if k != "score"} for r in store]:
        problems.append("scored store does not hold the same records as the store")
    if any(r["valid"] and r["score"] is None for r in scored):
        problems.append("scored store has a valid sample without a score")
    rows = json.loads((out / "corpus.stats.json").read_text(encoding="utf-8"))["rows"]
    if len(rows) != shape.queries:
        problems.append(f"filter stats have {len(rows)} rows for {shape.queries} queries")
    corpus_records = len(read_jsonl(out / "corpus.jsonl")) - 1
    retained = sum(row["retained"] for row in rows)
    if corpus_records != retained:
        problems.append(f"corpus has {corpus_records} records but {retained} queries were retained")
    return problems, sum(not r["valid"] for r in store)


# --- tracing ------------------------------------------------------------------

INPUT_READERS = ("read_topics", "read_run", "read_corpus_texts", "read_qrels", "candidates_from_run")


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _parsed(args, result):
    return float(result is not None)


def hooks(pkg):
    """(module, attribute, span name, item counter) for every function the
    traced run wraps, patched where its caller looks it up."""
    cli, sampling, parsing, metrics, rio = pkg.cli, pkg.sampling, pkg.parsing, pkg.metrics, pkg.io
    table = [
        (cli, "load_config", "config.load_config", None),
        (cli, "sample_trajectories", "sampling.sample_trajectories", None),
        (cli, "attach_scores", "metrics.attach_scores", _first_len),
        (cli, "aggregate_report", "metrics.aggregate_report", None),
        (cli, "redundancy_metrics", "metrics.redundancy_metrics", None),
        (cli, "build_corpus", "distill.build_corpus", _first_len),
        (sampling, "build_prompt", "sampling.build_prompt", None),
        (sampling, "hash_messages", "sampling.hash_messages", None),
        (sampling, "count_tokens", "parsing.count_tokens", _first_len),
        (sampling, "extract_rankings", "parsing.extract_rankings", _first_len),
        (sampling, "split_reasoning", "parsing.split_reasoning", _first_len),
        (sampling, "parse_final_ranking", "parsing.parse_final_ranking", _parsed),
        (parsing, "extract_rankings", "parsing.extract_rankings", _first_len),
        (metrics, "ndcg_at_k", "metrics.ndcg_at_k", None),
        (rio, "build_prompt", "sampling.build_prompt", None),
        (rio, "hash_messages", "sampling.hash_messages", None),
        (rio, "read_samples", "io.read_samples", _result_len),
        (rio, "write_samples", "io.write_samples", _first_len),
        (rio, "write_sft_corpus", "io.write_sft_corpus", None),
        (rio, "write_report", "io.write_report", None),
        (rio, "read_report", "io.read_report", None),
    ]
    table += [(rio, name, "io." + name, None) for name in INPUT_READERS]
    return table


# Per-layer metric name suffix -> unit.
LAYER_UNITS = {
    "us_per_call": "us", "us_per_record": "us", "us_per_sample": "us", "self_us_per_sample": "us",
    "us_per_query": "us", "ms": "ms", "self_ms": "ms", "p50": "ms", "p90": "ms", "calls": "count",
    "calls_per_sample": "count", "chars_scanned_per_sample": "chars", "store_bytes_per_record": "bytes",
    "valid_frac": "fraction", "kept_frac": "fraction", "slot_busy_frac": "fraction",
    "overhead_frac": "fraction", "wall_ms": "ms",
}


@contextlib.contextmanager
def instrumented(pkg, tracer, latency_seed: int | None):
    """Patch the package for one repetition: the latency backend at the
    CLI's backend factory when `latency_seed` is set, and every hook when
    `tracer` is set. A missing patch target raises AttributeError.

    Yields the list of latency backends the factory made, so the caller
    can check that every request went through the delay."""
    import workload

    delayed = []
    with contextlib.ExitStack() as stack:
        if latency_seed is not None or tracer is not None:
            factory = pkg.cli._backend_for

            def backend_for(args, config):
                backend = factory(args, config)
                if latency_seed is not None:
                    backend = workload.LatencyBackend(backend, latency_seed)
                    delayed.append(backend)
                if tracer is not None:
                    backend = workload.TracedBackend(backend, tracer)
                return backend

            stack.enter_context(mock.patch.object(pkg.cli, "_backend_for", backend_for))
        if tracer is not None:
            for module, attr, name, items in hooks(pkg):
                stack.enter_context(mock.patch.object(module, attr, tracer.wrap(name, getattr(module, attr), items)))
        yield delayed


def layer_metrics(spans_list, shape, reps: int, out: Path, untraced_s, traced_s, slots: int,
                  times) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans of `reps` traced repetitions, and
    the hooked names that recorded no span. A metric that rests on such a
    name is left out: its hook no longer sees the calls."""
    own = self_times(spans_list)
    layers = SpanIndex(spans_list)
    samples = shape.queries * shape.k_samples * reps
    m = {}
    for fn in ("count_tokens", "extract_rankings", "split_reasoning", "parse_final_ranking"):
        m[f"parsing.{fn}.us_per_call"] = 1e6 * layers.per_call(f"parsing.{fn}")
    m["parsing.extract_rankings.calls_per_sample"] = layers.calls("parsing.extract_rankings") / samples
    m["parsing.chars_scanned_per_sample"] = sum(
        layers.items(f"parsing.{fn}") for fn in ("count_tokens", "extract_rankings", "split_reasoning")) / samples
    m["parsing.valid_frac"] = layers.per_call("parsing.parse_final_ranking", items=True)

    m["io.write_samples.us_per_record"] = 1e6 * layers.per_item("io.write_samples")
    m["io.read_samples.us_per_record"] = 1e6 * layers.per_item("io.read_samples")
    m["io.read_samples.calls"] = layers.calls("io.read_samples") / reps
    m["io.store_bytes_per_record"] = (out / "samples.jsonl").stat().st_size / (shape.queries * shape.k_samples)
    m["io.read_inputs.ms"] = 1e3 * sum(layers.total(f"io.{fn}") for fn in INPUT_READERS) / reps
    m["sampling.build_prompt.us_per_call"] = 1e6 * layers.per_call("sampling.build_prompt")
    m["sampling.hash_messages.us_per_call"] = 1e6 * layers.per_call("sampling.hash_messages")
    queries = layers.get("sampling.sample_trajectories")
    m["sampling.self_us_per_sample"] = 1e6 * sum(own[s.id] for s in queries) / samples
    m["sampling.generate.calls"] = layers.calls("sampling.generate") / reps
    m["sampling.generate.us_per_call"] = 1e6 * layers.per_call("sampling.generate")
    m["sampling.slot_busy_frac"] = slot_busy_frac(layers.get("sampling.generate"), slots, layers.total("cli.sample"))
    query_ms = sorted(1e3 * s.duration for s in queries) or [math.nan]
    m["sampling.query_ms.p50"] = statistics.median(query_ms)
    m["sampling.query_ms.p90"] = statistics.quantiles(query_ms, n=10)[8] if len(query_ms) > 1 else query_ms[0]

    m["metrics.ndcg_at_k.us_per_call"] = 1e6 * layers.per_call("metrics.ndcg_at_k")
    m["metrics.redundancy_metrics.us_per_call"] = 1e6 * layers.per_call("metrics.redundancy_metrics")
    m["metrics.attach_scores.us_per_sample"] = 1e6 * layers.per_item("metrics.attach_scores")
    m["metrics.aggregate_report.ms"] = 1e3 * layers.per_call("metrics.aggregate_report")
    m["distill.build_corpus.us_per_query"] = 1e6 * layers.per_item("distill.build_corpus")
    m["distill.kept_frac"] = (len(read_jsonl(out / "corpus.jsonl")) - 1) / (shape.queries * shape.k_samples)
    m["io.write_sft_corpus.ms"] = 1e3 * layers.per_call("io.write_sft_corpus")
    m["config.load_config.ms"] = 1e3 * layers.per_call("config.load_config")
    for stage in STAGES:
        name = "cli." + stage.replace("-", "_")
        m[f"{name}.self_ms"] = 1e3 * sum(own[s.id] for s in layers.get(name)) / reps
        m[f"{name}.wall_ms"] = 1e3 * statistics.median(t[WALL] for t in times[stage])
    m["trace.overhead_frac"] = quartiles(traced_s)[1] / quartiles(untraced_s)[1] - 1.0
    return {k: v for k, v in m.items() if not math.isnan(v)}, layers.missing


# --- one workload -------------------------------------------------------------

def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "loadavg_1m_start": loadavg_1m(),
        "cpu_probe_ms_start": cpu_probe_ms(),
    }


def steal_seconds() -> float | None:
    """CPU time the hypervisor has taken from this machine's virtual CPUs
    since boot, summed over them, from the steal column of /proc/stat."""
    with contextlib.suppress(OSError, IndexError, ValueError), open("/proc/stat", encoding="utf-8") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    return None


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs
    the interpreter at this moment, to read drift between runs against."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def loadavg_1m() -> float | None:
    with contextlib.suppress(OSError), open("/proc/loadavg", encoding="utf-8") as fh:
        return float(fh.read().split()[0])
    return None


def git_commit() -> str:
    """HEAD of this checkout; "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


@dataclass
class Measurement:
    """Stage times and digests from the repetitions of one run. `times`
    holds the (wall, CPU) seconds of the untraced stage runs; the pipeline
    lists hold the CPU seconds of each repetition."""

    times: dict[str, list[tuple[float, float]]] = field(default_factory=lambda: {stage: [] for stage in STAGES})
    untraced_cpu: list[float] = field(default_factory=list)
    traced_cpu: list[float] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    digests: list[dict[str, str]] = field(default_factory=list)
    delayed_requests: list[int] = field(default_factory=list)
    peak_rss_mb: float = 0.0


def measure(pkg, shape, argvs, out: Path, log, seconds: float, trace: bool, latency_seed: int | None) -> Measurement:
    """Repeat the pipeline for about `seconds`. With `trace`, repetitions
    alternate between plain and traced, ending on a traced one, and each
    runs every stage once."""
    m = Measurement()
    begin = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        traced = trace and len(m.untraced_cpu) > len(m.traced_cpu)
        tracer = m.tracer if traced else None
        with instrumented(pkg, tracer, latency_seed) as delayed:
            rep = run_pipeline(pkg.cli, argvs, log, tracer, 1 if trace else shape.offline_repeats)
        m.digests.append(digest_outputs(out))
        m.delayed_requests.append(sum(backend.calls for backend in delayed))
        (m.traced_cpu if traced else m.untraced_cpu).append(pipeline_seconds(rep))
        if not traced:
            for stage, values in rep.items():
                m.times[stage] += values
        rep_s = time.perf_counter() - rep_start
        if time.perf_counter() - begin + rep_s > seconds and (not trace or m.traced_cpu):
            break
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def check(name: str, shape, seed: int, m: Measurement, pkg, inputs, work: Path, log) -> tuple[list[str], int]:
    """Problems with the stage outputs, and the number of invalid samples."""
    problems = []
    if any(d != m.digests[0] for d in m.digests):
        problems.append("outputs differ between repetitions of the same inputs")
    found, invalid = check_invariants(work / "out", shape)
    problems += found
    if seed == DEFAULT_SEED:
        pinned = json.loads((BENCH / "digests.json").read_text()).get(name, {})
        for output, digest in m.digests[0].items():
            if pinned.get(output) != digest:
                problems.append(f"{output}: sha256 {digest} differs from the pinned {pinned.get(output)}")
    if shape.latency:
        expected = shape.queries * shape.k_samples
        if any(n != expected for n in m.delayed_requests):
            problems.append(f"the latency backend delayed {m.delayed_requests} requests per repetition, "
                            f"expected {expected}")
        plain = work / "plain"
        plain.mkdir()
        run_pipeline(pkg.cli, stage_argvs(shape, inputs, plain, seed), log)
        if digest_outputs(plain) != m.digests[0]:
            problems.append("outputs with the latency backend differ from outputs without it")
    return problems, invalid


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    run_start, steal_start = time.perf_counter(), steal_seconds()
    env = environment()
    pkg = import_package()
    import workload

    if name not in workload.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; have {', '.join(workload.WORKLOADS)}")
    shape = workload.WORKLOADS[name]
    slots = workload.max_in_flight()
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    root_logger = logging.getLogger()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.process_time()
            inputs = workload.generate(shape, seed, work)
            setups.append(time.process_time() - start + import_cpu_seconds())
        out = work / "out"
        out.mkdir()
        with open(work / "pipeline.log", "w", encoding="utf-8") as log:
            handler = logging.StreamHandler(log)
            root_logger.addHandler(handler)
            root_logger.setLevel(logging.INFO)
            try:
                m = measure(pkg, shape, stage_argvs(shape, inputs, out, seed), out, log, seconds, trace,
                            seed if shape.latency else None)
                problems, invalid = check(name, shape, seed, m, pkg, inputs, work, log)
            finally:
                root_logger.removeHandler(handler)

        if trace:
            metrics, missing = layer_metrics(m.tracer.spans, shape, len(m.traced_cpu), out,
                                             m.untraced_cpu, m.traced_cpu, slots, m.times)
            problems += [f"the traced run recorded no {name} span; its hook no longer sees the calls"
                         for name in missing]
            units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
        else:
            per_run = {stage.replace("-", "_") + "_cpu_s": [t[CPU] for t in m.times[stage]]
                       for stage in STAGES if stage != "report"}
            per_run["setup_s"] = setups
            metrics = {k: statistics.median(v) for k, v in per_run.items()}
            metrics["pipeline_cpu_sps"] = shape.queries * shape.k_samples / pipeline_seconds(m.times)
            metrics["peak_rss_mb"] = m.peak_rss_mb
            metrics["store_mb"] = (out / "samples.jsonl").stat().st_size / 1e6
            units = END_TO_END
            for k, v in per_run.items():
                q1, med, q3 = quartiles(v)
                print(f"# {k}: median {med:.6g} s, quartiles [{q1:.6g}, {q3:.6g}], n={len(v)}")

        runs = len(m.untraced_cpu) + len(m.traced_cpu)
        attempted = shape.queries * shape.k_samples * runs
        failed = attempted if problems else invalid * runs
        if not trace:
            metrics["ok_frac"] = 1.0 - failed / attempted
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steal = steal_seconds()
    env.update(loadavg_1m_end=loadavg_1m(), cpu_probe_ms_end=cpu_probe_ms(),
               steal_frac=None if steal is None or steal_start is None
               else (steal - steal_start) / ((time.perf_counter() - run_start) * os.cpu_count()))
    env.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), max_in_flight=slots,
               repetitions=len(m.untraced_cpu), traced_repetitions=len(m.traced_cpu),
               offline_repeats=shape.offline_repeats)
    print("# environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result))
    return 1 if problems else 0


# --- every workload -------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process and print a table."""
    import workload

    status = 0
    for name in workload.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0:
            status = 1
            sys.stderr.write(done.stderr)
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {done.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:45s} {entry['value']:14.6g} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="how long to repeat the pipeline")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        sys.exit(f"no package source at {SRC}")
    if args.workload == "all":
        import_package()
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
