"""srdkit benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload exact-search --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38    # all four

Run from the repository root (or any copy of it holding ``src/srdkit`` and
``bench``).  Nothing is installed or built: the program is imported from
``src``.  Every item is one CLI invocation through ``srdkit.cli.run`` in this
process, with ``--jobs 1`` on its command line so that no worker pool starts
whatever ``SRD_KIT_JOBS`` says.  Each answer is checked against
bench/reference.json.  Workloads are a closed loop with one client: the next
item starts when the previous one returns.

``--trace 0`` runs one pass over the workload's items, then further
rounds until ``--seconds`` have passed, each item again only while its best
wall latency still fits before that deadline.  Each run of an item is
timed by the CPU time of the thread that runs it (``time.thread_time``).
A probe, a fixed pure-Python loop of about 2 ms, is timed just before and
just after it, and every SAMPLE_CPU_S of CPU time while it runs; the inner
probes' time is taken out of the item's.  The run's normalized time is its
CPU time scaled to a machine on which the probe takes PROBE_REF_S: CPU
time x (PROBE_REF_S / mean probe time) ** PROBE_EXPONENT.  An item's time
is the median normalized time of its runs, and the metrics are

  items_per_norm_s   items per normalized second over one pass
                     (items / sum of the items' times)
  item_norm_p50_ms   median of the items' times
  item_norm_p90_ms   90th percentile of the same, interpolated
  setup_s            median normalized user CPU time of several set-ups:
                     import of srdkit plus writing the seeded input files
  peak_rss_mb        peak resident set size of this process

An item runs in this one thread from start to end (``--jobs 1``,
in-process, inputs in the page cache), so on a quiet machine whose probe
takes PROBE_REF_S its normalized time is its latency.  A change to srdkit
moves the item times and not the probe.  The same figures by the wall
clock (best run of each item), the probe times and every run are kept in
the details.

Why normalized.  The machine the benchmark was sized on is a shared 2-core
VM on which the speed of plain Python code switches between levels about
1.7x apart, for fractions of a second to minutes at a time.  The slow level
shows in the thread's CPU time as well as in wall time, so neither CPU time
nor best-of-runs took it out: over seeds 1-5 of exact-search at 38 s per
run (one relabelling per graph), items per second by the best CPU time of
each item ranged over 32% of the lowest value.  The probe runs at the same
speed level as the item next to it; normalized, the same runs ranged over
3.5%.  Four runs of one seed ranged over 15% by median CPU time and 6.7%
normalized.  Probes inside an item matter for long items: over 18 runs of
the 4 s construction of multipartite 3,3,3,3, CPU time ranged over 39% of
its median, normalized by the probes at its ends 43%, and normalized by
all its probes 22%.  srdkit slows down more than the probe does, hence
PROBE_EXPONENT: the time of a small exact-search item went with the
probe's to the power 1.4 over 9,830 runs in 100 s, and over ten runs of
reduce-check the factor common to all its items went with the median
probe's to the power 1.4 too.  Even so the probe does not follow every
slowdown, and normalized figures can differ by 15% or more between
periods of different load on the machine.

Why several variants of each input (COPIES).  The seed's relabelling moves
single items by up to 2x: over seeds 11-15, graph g103 of exact-search
took from 561 to 1029 normalized ms, while the runs of one seed agreed
within 7%.  As quartile spread over the median, with one variant per
input the p90 of exact-search spread by 23% over seeds 1-5 and 7% over
seeds 11-15, and items per second by 10% over seeds 11-15; with three
variants, by 7% and 8.5% over seeds 11-15.  exact-search and reduce-check
use two: with three, one pass of reduce-check took up to 47 s when the
machine was slow, longer than the 38 s run.  verify-families has only 8
seeded graphs, cheap ones, and uses three.

``--trace 1`` runs a traced warm-up pass, an untraced pass and then a second
traced pass, with every public function of srdkit wrapped by
bench/tracer.py, and reports the per-layer metrics of the last pass, the
tracing overhead (traced minus untraced pass time, wall clock) and
``failed_share``: items with a budget verdict, a wrong answer, an
unexpected exit code or an exception, over items attempted.  Self times
(``*.self_s``) leave out the tracer's bookkeeping except the bare Python
call of each wrapper; ``trace.<module>.wrapper_s`` is the bookkeeping of
the calls that module made.  The exact counters of the two traced passes
must be equal, and equal to those of any earlier traced run of the same
workload, seed and code; a difference makes the run incorrect.

The result is the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.  ``failed`` counts wrong
answers, unexpected exit codes and exceptions; a budget verdict the
reference expects (the nine 6-vertex graphs past the 11-edge gate) is a
correct answer.  Details (environment, sample counts, failures by item,
counters) go to bench/.out/, spans of traced runs too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
WORK = BENCH / ".work"

SETUP_REPEATS = 9
PROBE_LOOPS = 30_000
PROBE_REF_S = 0.002
PROBE_EXPONENT = 1.4
SAMPLE_CPU_S = 0.1
# Seeded variants of each input in an untraced run (see workloads.build).
COPIES = {"exact-search": 2, "verify-families": 3, "reduce-check": 2}

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# set-up


def import_srdkit():
    """A fresh import of srdkit from src (earlier imports are dropped, so
    each set-up pays for executing the package's modules)."""
    for name in [n for n in sys.modules if n == "srdkit" or n.startswith("srdkit.")]:
        del sys.modules[name]
    return importlib.import_module("srdkit")


def user_cpu() -> float:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_utime


def set_up(workload: str, seed: int, copies: int):
    """Import srdkit and write the seeded inputs, SETUP_REPEATS times.

    Returns (package, items, workdir, set-up samples); a sample is (wall
    seconds, user CPU seconds, [probe before, probe after]), in the form
    ``measure`` uses.  The inputs of the last repeat are kept for the run.

    Set-up is timed by user CPU time alone: the kernel's time to create the
    input files of reduce-check went from 10 ms to 460 ms per set-up with
    other load on the machine, while the user time stayed near 70 ms.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    samples = []
    workdir = None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        before = probe()
        start, user_start = time.perf_counter(), user_cpu()
        package = import_srdkit()
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        items = workloads.build(workload, seed, workdir, workloads.load_reference(), copies)
        cpu, wall = user_cpu() - user_start, time.perf_counter() - start
        samples.append((wall, cpu, [before, probe()]))
    return package, items, workdir, samples


# ---------------------------------------------------------------------------
# measurement


def run_item(cli_run, item) -> tuple:
    """Run one item; returns (wall seconds, CPU seconds, exit code, reason),
    where reason is None for a correct answer and the exit code None after
    an exception.  CPU seconds are those of this thread, which runs the
    whole item."""
    start, cpu_start = time.perf_counter(), time.thread_time()
    try:
        code, text = cli_run(list(item.argv))
        reason = None
    except Exception as exc:  # a traceback must not end the pass or read as a verdict
        code, reason = None, f"raised {type(exc).__name__}: {exc}"
    cpu, wall = time.thread_time() - cpu_start, time.perf_counter() - start
    if reason is None:
        reason = item.check(code, text)
    return wall, cpu, code, reason


def run_pass(cli_run, items) -> tuple:
    """Run every item once; returns (wall seconds, per-item latencies,
    budget verdicts, failures as (item name, reason))."""
    latencies = []
    budget = 0
    failures = []
    start = time.perf_counter()
    for item in items:
        latency, _, code, reason = run_item(cli_run, item)
        latencies.append(latency)
        if reason is not None:
            failures.append((item.name, reason))
        elif code == 3:
            budget += 1
    return time.perf_counter() - start, latencies, budget, failures


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop of about 2 ms: how fast this
    thread runs Python code at the moment."""
    start = time.thread_time()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.thread_time() - start


def normalized(sample) -> float:
    """A run's CPU seconds scaled to the speed at which the probe takes
    PROBE_REF_S, by the mean of the probes taken around and inside it."""
    _, cpu, probes = sample
    return cpu * (PROBE_REF_S / statistics.fmean(probes)) ** PROBE_EXPONENT


_inner_probes: list = []


def _probe_on_signal(signum, frame):
    _inner_probes.append(probe())


def sampled_run(cli_run, item) -> tuple:
    """``run_item`` with a probe just before and just after it, and one
    more every SAMPLE_CPU_S of CPU time while it runs (SIGVTALRM), so that
    a long item is normalized by the speed over its whole run.  Returns
    (wall seconds, CPU seconds, exit code, reason, probe times); the inner
    probes' time is taken out of the item's wall and CPU time."""
    before = probe()
    _inner_probes.clear()
    # Timed here rather than by run_item so that every inner probe falls
    # between the two clock readings.
    start, cpu_start = time.perf_counter(), time.thread_time()
    signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)
    try:
        _, _, code, reason = run_item(cli_run, item)
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    cpu, wall = time.thread_time() - cpu_start, time.perf_counter() - start
    inner = sum(_inner_probes)
    probes = [before, *_inner_probes, probe()]
    return wall - inner, cpu - inner, code, reason, probes


def measure(cli_run, items, seconds: float) -> dict:
    """One full pass, then more rounds over the items until ``seconds``
    have passed since the start; in a later round an item runs only if its
    best wall latency so far still fits before that deadline.

    Every run of an item is recorded as (wall seconds, CPU seconds, probe
    times), as ``sampled_run`` returns them.
    """
    best = [math.inf] * len(items)
    runs = [[] for _ in items]
    budget = 0
    failures = []
    start = time.perf_counter()
    rounds = 0
    previous_handler = signal.signal(signal.SIGVTALRM, _probe_on_signal)
    while True:
        ran = False
        for i, item in enumerate(items):
            if rounds >= 1 and time.perf_counter() - start + best[i] > seconds:
                continue
            latency, cpu, code, reason, probes = sampled_run(cli_run, item)
            ran = True
            best[i] = min(best[i], latency)
            runs[i].append((latency, cpu, probes))
            if reason is not None:
                failures.append((item.name, reason))
            elif code == 3:
                budget += 1
        rounds += 1
        if not ran:
            break
    signal.signal(signal.SIGVTALRM, previous_handler)
    return {
        "runs": runs,
        "wall_s": time.perf_counter() - start,
        "budget": budget,
        "failures": failures,
    }


def measure_traced(package, cli_run, items) -> tuple:
    """A traced warm-up pass, an untraced pass and a traced pass of the same
    items; returns the three passes and the tracers of the two traced ones.

    The first pass over a fresh set of inputs is slower (reduce-check, for
    one, creates its output files then), so the untraced pass that the
    tracing overhead is measured against comes second.  The warm-up is
    traced so that its exact counters can be checked against those of the
    last pass."""
    from tracer import Tracer

    def traced_pass():
        tracer = Tracer(package).install()
        try:
            return run_pass(package.cli.run, items), tracer
        finally:
            tracer.close()

    warm_up, warm_up_tracer = traced_pass()
    untraced = run_pass(cli_run, items)
    traced, tracer = traced_pass()
    return warm_up, untraced, traced, warm_up_tracer, tracer


# ---------------------------------------------------------------------------
# reporting


def code_fingerprint() -> str:
    """Hash of srdkit's sources and the benchmark's own code and data."""
    digest = hashlib.sha256()
    paths = sorted((SRC / "srdkit").glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in paths + [workloads.REFERENCE]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the enclosing git checkout, read from .git without running
    git; "none" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "code_sha256_16": code_fingerprint(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "jobs": 1,
        "SRD_KIT_JOBS": os.environ.get("SRD_KIT_JOBS"),
    }


def counter_diff(before: dict, now: dict) -> dict:
    return {
        k: (before.get(k), now.get(k))
        for k in sorted(set(before) | set(now))
        if before.get(k) != now.get(k)
    }


def check_counters(workload: str, seed: int, warm_up: dict, counters: dict) -> str | None:
    """The exact counters must be the same in both traced passes of this
    run, and the same as in any earlier traced run of the same workload,
    seed and code, which are recorded in bench/.out/counters."""
    if warm_up != counters:
        return f"exact counters differ between the two traced passes: {counter_diff(warm_up, counters)}"
    path = OUT / "counters" / f"{workload}-seed{seed}-{code_fingerprint()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            return f"exact counters differ from an earlier run (before, now): {counter_diff(before, counters)}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True, indent=1) + "\n")
    return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_summary(times: list) -> dict:
    """Items per second, p50 and p90 of per-item times in seconds, with the
    number of items above the p90."""
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return {
        "items_per_s": len(times) / sum(times),
        "p50_ms": statistics.median(times) * 1e3,
        "p90_ms": p90 * 1e3,
        "items_above_p90": sum(t > p90 for t in times),
    }


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own so that peak
    RSS and module state are its own."""
    code = 0
    for name in workloads.WORKLOADS:
        print(f"# workload {name}", flush=True)
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "srdkit" / "__init__.py").is_file():
        print(f"error: no srdkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    copies = 1 if args.trace else COPIES.get(args.workload, 1)
    package, items, workdir, setup_samples = set_up(args.workload, args.seed, copies)
    try:
        # The heap left by set-up is the benchmark's, not the program's:
        # freeze it so the program's garbage collections do not scan it.
        gc.collect()
        gc.freeze()
        cli_run = package.cli.run
        if args.trace:
            warm_up, untraced, traced, warm_up_tracer, tracer = measure_traced(
                package, cli_run, items
            )
        else:
            result = measure(cli_run, items, args.seconds)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir)

    env = environment(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "environment": env}
    if args.trace:
        failures = warm_up[3] + untraced[3] + traced[3]
        attempted = 3 * len(items)
        counters = tracer.exact_counters()
        counter_error = check_counters(
            args.workload, args.seed, warm_up_tracer.exact_counters(), counters
        )
        metrics = {
            name: metric(value, unit) for name, (value, unit) in tracer.layer_metrics().items()
        }
        overhead = traced[0] - untraced[0]
        metrics.update(
            {
                "failed_share": metric((traced[2] + len(traced[3])) / len(items), "ratio"),
                "budget_verdicts": metric(traced[2], "count"),
                "trace.spans": metric(tracer.span_count, "count"),
                "trace.untraced_pass_s": metric(untraced[0], "s"),
                "trace.traced_pass_s": metric(traced[0], "s"),
                "trace.overhead_s": metric(overhead, "s"),
                "trace.overhead_ratio": metric(overhead / untraced[0], "ratio"),
            }
        )
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.bin")
        record.update(counters=counters, counter_error=counter_error)
        samples = {"failed_share": len(items), "trace.overhead_ratio base": untraced[0]}
    else:
        failures = result["failures"]
        item_runs = result["runs"]
        runs = [len(x) for x in item_runs]
        attempted = sum(runs)
        counter_error = None
        norm = [statistics.median(map(normalized, xs)) for xs in item_runs]
        summary = latency_summary(norm)
        metrics = {
            "items_per_norm_s": metric(summary["items_per_s"], "1/s"),
            "item_norm_p50_ms": metric(summary["p50_ms"], "ms"),
            "item_norm_p90_ms": metric(summary["p90_ms"], "ms"),
            "setup_s": metric(statistics.median(map(normalized, setup_samples)), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
            ),
        }
        best_wall = [min(x[0] for x in xs) for xs in item_runs]
        probes = [p for xs in item_runs for x in xs for p in x[2]]
        record["normalized"] = summary
        record["wall"] = dict(
            latency_summary(best_wall),
            setup_s=statistics.median(x[0] for x in setup_samples),
        )
        samples = {
            "items": len(norm),
            "items above p90": summary["items_above_p90"],
            "runs per item, min and max": [min(runs), max(runs)],
            "invocations": attempted,
            "wall_s": result["wall_s"],
            "probe_s min, median and max": [min(probes), statistics.median(probes), max(probes)],
            "setup repeats": len(setup_samples),
            "budget verdicts": result["budget"],
        }
        record["runs_by_item"] = {it.name: xs for it, xs in zip(items, item_runs)}
        record["normalized_s_by_item"] = {it.name: t for it, t in zip(items, norm)}
    correct = not failures and counter_error is None
    record.update(
        metrics=metrics,
        samples=samples,
        failures=failures,
        setup_runs=setup_samples,
    )

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    if "wall" in record:
        print(f"# normalized {json.dumps(record['normalized'])}")
        print(f"# wall-clock, best run of each item {json.dumps(record['wall'])}")
    print(f"# samples {json.dumps(samples)}")
    for name, reason in failures:
        print(f"# FAILED {name}: {reason}")
    if counter_error:
        print(f"# FAILED counters: {counter_error}")
    result_line = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
