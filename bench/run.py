"""End-to-end and per-layer benchmark of ``trendcast run``.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep_quickstart --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (see ``workloads.py``)
under ``.bench_work/`` and removed at exit. Every timed step is a fresh
child interpreter that imports trendcast from ``src/``.

``--trace 0`` repeats rounds of one ``trendcast run``, one ``trendcast
rank`` and two set-up children until the next round would overrun
``--seconds`` (at least one round). It reports medians of
``run_s``, ``setup_s``, ``rank_s`` and ``peak_rss_mb``.

``--trace 1`` runs a fixed sequence whatever ``--seconds`` says: it times
``import trendcast`` in fresh children, then in this process runs
``run_sweep`` untraced with one worker and with the default worker count,
and once more with one worker under the tracer (see ``tracer.py``),
followed by one ``predictors.score`` call for the rank spec. It reports
the per-layer metrics.

Both modes check the outputs: every child exits 0; ``sweep.csv``,
``heatmap.csv`` and ``scatter.csv`` have the expected row counts, repeat
byte for byte (CLI runs against each other; untraced runs against the
traced one), and agree cell by cell with ``reference.py``; ``rank``
prints the reference top n. The last stdout line is the result JSON; the
line before it holds the details (percentiles, sample counts, input sizes,
environment, failed checks).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import reference
import workloads
from setup_child import dataset_spec
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SCRIPT = os.path.join(HERE, "setup_child.py")
OUTPUTS = ("sweep.csv", "heatmap.csv", "scatter.csv")
KINDS = ("total_pop", "recent_pop", "pbp", "wpp", "ibp")
MEASURES = ("in_degree", "pagerank", "leaderrank")
IMPORT_SAMPLES = 5
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"  # as the CLI configures it


class Ledger:
    """Attempted and failed operations: CLI invocations and checked cells."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Child:
    """A finished child interpreter: wall time, its own peak RSS, exit code."""

    def __init__(self, argv, work, tag):
        self.stdout = os.path.join(work, f"{tag}.out")
        self.stderr = os.path.join(work, f"{tag}.err")
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        env = {k: v for k, v in os.environ.items() if k != "TRENDCAST_LOG"}
        env["PYTHONPATH"] = SRC
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *argv], env,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, self.stdout, flags, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, self.stderr, flags, 0o644),
            ],
            setpgroup=0,
        )
        try:
            # wait4 returns this child's own rusage (itself and the workers
            # it reaped), unlike RUSAGE_CHILDREN, which keeps the maximum
            # over every child this process ever waited for.
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: take the child's workers down too
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        self.wall_s = time.perf_counter() - start
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = os.waitstatus_to_exitcode(status)

    def read_stdout(self) -> str:
        with open(self.stdout, encoding="utf-8", errors="replace") as fh:
            return fh.read()


def summary(values) -> dict:
    """Median, the highest percentile with ten samples beyond it (the
    maximum when there are fewer than 20), and the sample count."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return {"n": 0}
    pct = 100 if n < 20 else int(100 * (1 - 10 / n))
    high = values[-1] if pct == 100 else values[min(n - 1, int(n * pct / 100))]
    return {"median": statistics.median(values), f"p{pct}": high, "n": n}


def digest(out_dir) -> str | None:
    """SHA-256 over the three output files; None if one is missing."""
    h = hashlib.sha256()
    try:
        for name in OUTPUTS:
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    except OSError:
        return None
    return h.hexdigest()


def cli_argv(command, *args) -> list[str]:
    return ["-m", "trendcast.cli", command, *args]


def rank_argv(inputs) -> list[str]:
    w = inputs.workload
    argv = cli_argv("rank", inputs.dataset_path, "--spec", reference.rank_spec_string(w),
                    "--n", str(reference.grid_values(w)["n"][0]), "--format", w.format)
    if inputs.social_path:
        argv += ["--social", inputs.social_path]
    return argv


def check_run_outputs(ledger, ref, out_dir, tag) -> str | None:
    """Check one output directory against the reference; return its digest."""
    try:
        for name, ok in reference.check_outputs(ref, out_dir):
            ledger.record(f"{tag}: {name}", ok)
    except (OSError, ValueError, KeyError) as exc:
        ledger.record(f"{tag}: outputs unreadable ({exc})", False)
        return None
    return digest(out_dir)


def untraced(args, inputs, ref, work, ledger) -> tuple[dict, dict]:
    samples = {"run_s": [], "setup_s": [], "rank_s": [], "peak_rss_mb": []}
    first_digest = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        k = len(samples["run_s"])
        out_dir = os.path.join(work, f"run{k}")
        run = Child(cli_argv("run", inputs.config_path, "--out", out_dir), work, f"run{k}")
        ledger.record(f"run{k}: exit {run.exit_code}", run.exit_code == 0)
        samples["run_s"].append(run.wall_s)
        samples["peak_rss_mb"].append(run.peak_rss_mb)
        if run.exit_code == 0:
            if first_digest is None:
                first_digest = check_run_outputs(ledger, ref, out_dir, f"run{k}")
            else:
                ledger.record(f"run{k}: outputs identical to the first run",
                              digest(out_dir) == first_digest)
            shutil.rmtree(out_dir)

        for j, step in enumerate(("setup", "rank", "setup")):
            tag = f"{step}{k}.{j}"
            if step == "setup":
                child = Child([SETUP_SCRIPT, inputs.config_path], work, tag)
            else:
                child = Child(rank_argv(inputs), work, tag)
            ledger.record(f"{tag}: exit {child.exit_code}", child.exit_code == 0)
            if step == "rank" and child.exit_code == 0:
                ledger.record(f"{tag}: top n matches the reference",
                              reference.check_rank(ref, child.read_stdout()))
            samples[f"{step}_s"].append(child.wall_s)

        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    metrics = {
        "run_s": (statistics.median(samples["run_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "rank_s": (statistics.median(samples["rank_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
    }
    details = {name: summary(values) for name, values in samples.items()}
    details["run_s"]["cpu_count"] = os.cpu_count()
    return metrics, details


def _import_library():
    sys.path.insert(0, SRC)
    import trendcast

    if os.path.dirname(os.path.dirname(os.path.abspath(trendcast.__file__))) != SRC:
        raise RuntimeError(f"imported trendcast from {trendcast.__file__}, not {SRC}")
    from trendcast import events, experiment, ingestion, predictors, social

    return events, experiment, ingestion, predictors, social


def traced(args, inputs, ref, work, ledger) -> tuple[dict, dict]:
    w = inputs.workload
    import_s = []
    for k in range(IMPORT_SAMPLES):
        child = Child(["-c", "import trendcast"], work, f"import{k}")
        ledger.record(f"import{k}: exit {child.exit_code}", child.exit_code == 0)
        import_s.append(child.wall_s)

    events, experiment, ingestion, predictors, social = _import_library()
    log_path = os.path.join(work, "inprocess.log")
    logging.basicConfig(filename=log_path, level=logging.INFO, format=LOG_FORMAT)
    cfg = experiment.parse_experiment_config(inputs.config_path)
    digests = {}

    def sweep(tag, workers, tracer=None):
        cfg.out_dir = os.path.join(work, tag)
        start = time.perf_counter()
        if tracer is None:
            status = experiment.run_sweep(cfg, workers=workers)
        else:
            status = tracer.call("experiment.run_sweep", experiment.run_sweep,
                                 (cfg,), {"workers": workers})
        elapsed = time.perf_counter() - start
        ledger.record(f"{tag}: run_sweep status {status}", status == 0)
        digests[tag] = digest(cfg.out_dir)
        return elapsed

    serial_s = sweep("serial", 1)
    # the CLI writes exactly these log lines to stderr
    stderr_lines = reference.count_lines(log_path)
    pool_s = sweep("pool", None)

    tracer = Tracer()
    tracer.install()
    try:
        traced_s = sweep("traced", 1, tracer)
        start = time.perf_counter()
        graph = tracer.last_result("events.build")
        social_graph = tracer.last_result("social.load_social_graph")
        tracer.drop_results()
        if graph is None:  # the sweep no longer builds through events.build
            graph = events.build(ingestion.load_dataset(cfg.dataset, dataset_spec(ingestion, cfg)))
        if social_graph is None and cfg.social:
            social_graph = social.load_social_graph(cfg.social)
        spec_tuple = reference.expected_specs(w)[0]
        kind, lam, gamma, eta, centrality = spec_tuple
        t_past = reference.windows(w)[0][0]
        spec = predictors.PredictorSpec(kind, lam, gamma, eta,
                                        None if kind == "total_pop" else t_past, centrality)
        top = predictors.score(graph, spec, graph.t_last, social_graph).top(ref.n)
        score_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    ledger.record("traced rank spec top-n matches the reference",
                  list(top) == ref.predicted(spec_tuple, ref.t_last, t_past, ref.n).tolist())
    traced_digest = check_run_outputs(ledger, ref, os.path.join(work, "traced"), "traced")
    for tag in ("serial", "pool"):
        ledger.record(f"{tag}: outputs identical to the traced run",
                      traced_digest is not None and digests.get(tag) == traced_digest)

    wall = traced_s + score_s
    layers = tracer.layer_self_times()
    self_sum = sum(layers.values())
    ledger.record("layer self times add up to the traced wall time",
                  abs(self_sum - wall) <= 0.01 * wall)
    graph_mb, build_peak_mb = build_memory(
        events, ingestion.load_dataset(cfg.dataset, dataset_spec(ingestion, cfg)))

    metrics = layer_metrics(tracer, inputs, ref)
    metrics.update({
        "events.graph_mb": (graph_mb, "MB"),
        "events.build_peak_mb": (build_peak_mb, "MB"),
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.stderr_lines": (stderr_lines, "count"),
        "experiment.serial_run_s": (serial_s, "s"),
        "experiment.pool_run_s": (pool_s, "s"),
        "trace.overhead_frac": (traced_s / serial_s - 1.0, "ratio"),
        "trace.wall_s": (wall, "s"),
    })
    for layer in ("experiment", "ingestion", "events", "social", "predictors", "evaluation"):
        metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    details = {
        "cli.import_s": summary(import_s),
        "trace.self_sum_s": self_sum,
        "trace.spans": len(tracer.spans),
    }
    return metrics, details


def build_memory(events, loaded) -> tuple[float, float]:
    """Build the graph from loaded events under tracemalloc, outside any
    timed region: (MB still allocated after it, peak MB during it)."""
    tracemalloc.start()
    try:
        graph = events.build(loaded)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del graph
    return retained / 2**20, peak / 2**20


def layer_metrics(tracer: Tracer, inputs, ref) -> dict:
    m = {}
    sizes = inputs.sizes

    def timed(name, metric):
        m[f"{metric}.s"] = (tracer.total(name), "s")
        m[f"{metric}.calls"] = (len(tracer.named(name)), "count")

    def rate(count, name):
        seconds = tracer.total(name)
        return count * len(tracer.named(name)) / seconds if seconds else 0.0

    timed("ingestion.load_dataset", "ingestion.load_dataset")
    m["ingestion.rows_per_s"] = (rate(sizes["rows"], "ingestion.load_dataset"), "1/s")

    timed("events.build", "events.build")

    m["social.load_social_graph.s"] = (tracer.total("social.load_social_graph"), "s")
    m["social.edges_per_s"] = (rate(sizes["edges"], "social.load_social_graph"), "1/s")
    influence = tracer.named("social.compute_influence")
    for measure in MEASURES:
        spans = [s for s in influence if s.attrs.get("measure") == measure]
        m[f"social.{measure}.s"] = (sum(s.duration for s in spans), "s")
        m[f"social.{measure}.iterations"] = (
            max((s.attrs["iterations"] for s in spans), default=0), "count")
        m[f"social.{measure}.converged"] = (
            int(bool(spans) and all(s.attrs["converged"] for s in spans)), "flag")

    timed("predictors.score", "predictors.score")
    scores = tracer.named("predictors.score")
    for kind in KINDS:
        m[f"predictors.score.{kind}.s"] = (
            sum(s.duration for s in scores if s.attrs.get("kind") == kind), "s")

    m["evaluation.evaluate.s"] = (tracer.total("evaluation.evaluate"), "s")
    m["evaluation.evaluate.self_s"] = (tracer.self_total("evaluation.evaluate"), "s")
    m["evaluation.cells"] = (
        sum(s.attrs.get("cells", 0) for s in tracer.named("evaluation.evaluate")), "count")
    timed("evaluation.true_ranking", "evaluation.true_ranking")
    timed("evaluation.new_entries", "evaluation.new_entries")
    degenerate, keys = ref.degenerate_dates()
    truth_calls = len(tracer.named("evaluation.true_ranking"))
    m["evaluation.truth_reuse"] = (keys / truth_calls if truth_calls else 0.0, "ratio")
    m["evaluation.degenerate_dates"] = (degenerate, "count")

    m["experiment.run_sweep.self_s"] = (tracer.self_total("experiment.run_sweep"), "s")
    m["experiment.write_s"] = (tracer.self_total("experiment.write"), "s")
    return m


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: children are killed, inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "trendcast", "__init__.py")):
        print(f"bench/run.py: no trendcast sources under {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    os.environ["TMPDIR"] = tempfile.tempdir = work  # keep temp files in the checkout
    ledger = Ledger()
    try:
        gen_start = time.perf_counter()
        inputs = workloads.generate(args.workload, args.seed, work)
        ref = reference.Reference(inputs)
        inputs.sizes["links"] = int(ref.ts.size)  # distinct (user, item) events
        gen_s = time.perf_counter() - gen_start
        # compile src/ to bytecode before anything is timed
        warm = Child(["-c", "import trendcast"], work, "warmup")
        ledger.record(f"warmup: exit {warm.exit_code}", warm.exit_code == 0)
        mode = traced if args.trace else untraced
        metrics, details = mode(args, inputs, ref, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run still uses it
            pass

    failed = len(ledger.failures)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "error_rate": failed / ledger.attempted,
        "attempted": ledger.attempted,
        "failed": failed,
        "failures": ledger.failures[:20],
        "inputs": inputs.sizes,
        "generate_s": gen_s,
        "environment": environment(),
    })
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
