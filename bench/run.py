#!/usr/bin/env python3
"""Verdict benchmark for datactl.

    python3 bench/run.py --workload audit-large|search|small-models \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run is one process with one
client in a closed loop: it builds the workload's input files from the seed
under bench/out/, then repeats passes over the workload's job list for S
seconds (a pass starts only if it should end within them), checking every
verdict against the answer known by construction.  Before that it times a
few cold imports of datactl.cli, each in a fresh interpreter (set-up time).

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced passes with passes traced through spans around
the calls into each datactl module (see spans.py), and reports the per-layer
metrics; the spans of the first traced pass go to bench/out/.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  Lines before it list every metric by name
and unit, the run's context, and every failed job with its cause.  A count
that should repeat exactly and does not stops the run with exit code 3.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 21
DEPTHS = range(6)
# Counts taken at span boundaries; each must repeat exactly in every traced pass.
COUNTS = ("dsl.tokens", "semantics.events", "architecture.states", "logic.conclusions",
          "mapping.activities") + tuple(f"compliance.violations.C{k}" for k in range(1, 6))
TIME_UNIT = {"_s": "s", "_ms": "ms"}


class CountMismatch(Exception):
    """A count that must repeat exactly did not."""


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter importing datactl.cli, and the time of
    the import alone, over SETUP_RUNS processes (after one that writes the
    bytecode cache, as a user's first command would)."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import datactl.cli; print(time.perf_counter() - t)")
    cmd = [sys.executable, "-E", "-c", probe, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, cwd=ROOT, timeout=60)
    walls, imports = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT, timeout=60)
        walls.append(time.perf_counter() - start)
        imports.append(float(proc.stdout))
    return walls, imports


def run_pass(job_list, tracer=None):
    """One pass over the job list: (wall seconds, job times, failures)."""
    times, failures = [], []
    pass_start = time.perf_counter()
    for job in job_list:
        start = time.perf_counter()
        try:
            result = tracer.call("bench.job", job.run) if tracer else job.run()
        except Exception as err:  # a crash is a failed verdict, not the end of the run
            times.append(time.perf_counter() - start)
            failures.append((job.name, f"raised {type(err).__name__}: {err}"))
            continue
        times.append(time.perf_counter() - start)
        problem = job.check(result)
        if problem is not None:
            failures.append((job.name, problem))
    return time.perf_counter() - pass_start, times, failures


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "datactl").glob("*.py")))


def code_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "datactl").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass


def layer_metrics(wall: float, tracer) -> dict[str, float]:
    own = spans.self_times(tracer.spans)
    names = Counter(name for name, *_ in tracer.spans)

    def self_of(*names_):
        return sum((own.get(n, 0.0) for n in names_), 0.0)

    m: dict[str, float] = {}
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = sum((v for n, v in own.items() if spans.layer_of(n) == layer), 0.0)
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    m["bench.self_s"] += wall - roots
    m["trace.wall_s"] = wall

    # cli.main's self time per call: argument parsing, file reads and output,
    # and the library work with no span of its own (report rendering,
    # MappingContext, Universe, the CLI's user collection).
    m["cli.overhead_ms"] = 1000 * own.get("cli.main", 0.0) / max(1, names["cli.main"])
    m["dsl.parse_policy_s"] = self_of("dsl.parse_policy")
    m["dsl.parse_trace_s"] = self_of("dsl.parse_trace", "dsl.parse_arch_trace")
    m["dsl.parse_architecture_s"] = self_of("dsl.parse_architecture")
    m["dsl.parse_query_s"] = self_of("dsl.parse_has_query")
    m["dsl.serialize_s"] = self_of(*(n for n in own if n.startswith("dsl.serialize_")))
    parse_s = m["dsl.self_s"] - m["dsl.serialize_s"]
    m["dsl.tokens_per_s"] = tracer.counts["dsl.tokens"] / parse_s if parse_s > 0 else 0.0
    m["semantics.fold_s"] = self_of("semantics.iter_states")
    for rule in ("C1", "C2", "C3", "C4", "C5"):
        m[f"compliance.{rule}_s"] = self_of(f"compliance.{rule}")
    m["compliance.check_trace_s"] = self_of("compliance.check_trace")
    m["compliance.growth_4x"] = growth(tracer)
    m["architecture.enumerate_s"] = self_of("architecture.enumerate_states")
    m["architecture.states_per_s"] = (tracer.counts["architecture.states"] / m["architecture.enumerate_s"]
                                      if m["architecture.enumerate_s"] > 0 else 0.0)
    m["logic.deduce_s"] = self_of("logic.deduce")
    m["logic.eval_semantic_s"] = self_of("logic.eval_semantic")
    m["logic.enumerations_per_query"] = enumerations_per_query(tracer.spans)
    m["mapping.derive_s"] = self_of("mapping.derive_architecture")
    m["mapping.image_trace_s"] = self_of("mapping.image_trace")
    m["mapping.correspondence_s"] = self_of("mapping.check_correspondence")
    m["mapping.compare_s"] = self_of("mapping.compare_architectures")
    return m


def growth(tracer) -> float:
    """check_trace time on the longest trace over its time on traces a
    quarter as long (0 when the pass has no such pair)."""
    by_len: dict[int, list[float]] = {}
    for n, idx in tracer.audits:
        _, start, end, _ = tracer.spans[idx]
        by_len.setdefault(n, []).append(end - start)
    if not by_len:
        return 0.0
    longest = max(by_len)
    if longest % 4 or longest // 4 not in by_len:
        return 0.0
    return statistics.mean(by_len[longest]) / statistics.mean(by_len[longest // 4])


def enumerations_per_query(records) -> float:
    """enumerate_states calls made under eval_semantic, per outermost
    eval_semantic call."""
    def under_eval(i):
        while i >= 0:
            if records[i][0] == "logic.eval_semantic":
                return True
            i = records[i][3]
        return False

    queries = sum(1 for name, _, _, parent in records
                  if name == "logic.eval_semantic" and not under_eval(parent))
    enums = sum(1 for name, _, _, parent in records
                if name == "architecture.enumerate_states" and under_eval(parent))
    return enums / queries if queries else 0.0


def enumeration_counts(enumerations) -> dict[str, float]:
    """Frontier size per depth and transitions tried, for every
    enumerate_states call of a pass.

    The frontier at depth k is S(k) - S(k-1), with S(k) the number of states
    reachable within k events, so S(k) for k below the call's bound is counted
    again here with tracing off; transitions are frontier times the events
    instantiated per depth.  The call's own count must equal S(bound).
    """
    import datactl.architecture as arch
    import datactl.dsl as dsl

    memo: dict = {}
    depth = [0] * len(DEPTHS)
    transitions = events = new = 0
    for pa, bound, universe, states in enumerations:
        key = (dsl.serialize_architecture(pa), universe)
        if key not in memo:
            memo[key] = (len(arch.instantiate_events(pa, 1, universe)), {})
        per_depth_events, reach = memo[key]
        if reach.setdefault(bound, states) != states:
            raise CountMismatch(f"enumerate_states gave {states} states within {bound}, "
                                f"and {reach[bound]} before")
        for k in range(bound):
            if k not in reach:
                reach[k] = len(arch.enumerate_states(pa, k, universe))
        frontier = [reach[0]] + [reach[k] - reach[k - 1] for k in range(1, bound + 1)]
        for k, size in enumerate(frontier):
            if k < len(depth):
                depth[k] += size
        transitions += sum(frontier[:-1]) * per_depth_events
        events += per_depth_events
        new += states - 1
    m = {f"architecture.states_depth.{k}": depth[k] for k in DEPTHS}
    m["architecture.transitions"] = transitions
    m["architecture.events_per_depth"] = events / len(enumerations) if enumerations else 0.0
    m["architecture.new_state_ratio"] = new / transitions if transitions else 0.0
    return m


def exact_counts(tracer) -> dict:
    counts = dict(tracer.counts)
    counts["enumerate_states"] = [(bound, n) for _, bound, _, n in tracer.enumerations]
    return counts


# ---------------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in TIME_UNIT.items():
        if name.endswith(suffix):
            return unit
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_4x", "_per_query", "events_per_depth")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "datactl" / "cli.py").is_file():
        print(f"bench: no datactl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not (ROOT / "fixtures" / "facebook").is_dir():
        print(f"bench: no fixtures under {ROOT / 'fixtures'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    setup_walls, import_times = measure_setup()

    sys.path.insert(0, str(SRC))
    import datactl
    import jobs

    if Path(datactl.__file__).resolve().parent != SRC / "datactl":
        print(f"bench: imported datactl from {datactl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job_list, context = jobs.WORKLOADS[args.workload](
        ROOT, work, random.Random(args.seed))
    # The inputs live until the end of the run; keep them out of the collector's
    # way so that collections cost what they would in a datactl process.
    gc.collect()
    gc.freeze()

    untraced, traced, warm = [], [], []
    if args.trace:
        # Tracing overhead compares untraced with traced passes, so neither
        # side may be the process's first, slower pass.
        warm.append(run_pass(job_list))
    # Passes (untraced and traced pairs with --trace 1) repeat while the next
    # one, as long as the slowest so far, still ends within --seconds.  A
    # traced run makes at least two rounds, so that the exact counts are
    # compared between traced passes and the overhead is a median.
    start = time.perf_counter()
    rounds: list[float] = []
    min_rounds = 2 if args.trace else 1
    while (len(rounds) < min_rounds
           or time.perf_counter() + max(rounds) <= start + args.seconds):
        round_start = time.perf_counter()
        untraced.append(run_pass(job_list))
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append((run_pass(job_list, tracer), tracer))
            finally:
                tracer.uninstall()
        rounds.append(time.perf_counter() - round_start)

    runs = warm + untraced + [r for r, _ in traced]
    times = [t for _, ts, _ in runs for t in ts]
    failures = Counter(f for _, _, fs in runs for f in fs)
    failed = sum(failures.values())
    walls = [w for w, _, _ in untraced]
    # A job's time is its median over the untraced passes.  The percentiles
    # over jobs go to the context, not the gated metrics: the few-millisecond
    # jobs swing with the host's load more than whole passes do.
    job_ms = sorted(1000 * statistics.median(ts[i] for _, ts, _ in untraced)
                    for i in range(len(job_list)))

    e2e = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "src_datactl_lines": src_lines(),
        "jobs_per_pass": len(job_list),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "job_p50_ms": statistics.median(job_ms),
        "job_p90_ms": (statistics.quantiles(job_ms, n=10, method="inclusive")[8]
                       if len(job_ms) > 1 else job_ms[0]),
        "percentile_samples": len(job_ms),
        "setup_samples": len(setup_walls),
        "fail_share": failed / len(times),
    })

    metrics = dict(e2e)
    if args.trace:
        try:
            metrics.update(traced_metrics(args, traced, walls, import_times))
        except CountMismatch as err:
            print(f"bench: exact count did not repeat: {err}", file=sys.stderr)
            return 3
        context["trace_file"] = str((work / "spans.json").relative_to(ROOT))
        first = traced[0][1]
        (work / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"],
             "spans": [[n, s, e, p] for n, s, e, p in first.spans]}))

    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:>16.6f} {unit_of(name)}")
    for (name, cause), n in sorted(failures.items()):
        print(f"FAIL {name} (x{n}): {cause}")
    print("context " + json.dumps(context, sort_keys=True))
    (work / "result.json").write_text(json.dumps({"context": context, "metrics": metrics},
                                                 indent=1, sort_keys=True))

    keep = (e2e.keys() if not args.trace else
            [k for k in metrics if k not in e2e])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in keep},
    }))
    return 0


def traced_metrics(args, traced, untraced_walls, import_times):
    per_pass = [layer_metrics(wall, tracer) for (wall, _, _), tracer in traced]
    m = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(untraced_walls)
    m["cli.import_s"] = statistics.median(import_times)

    counts = [exact_counts(tracer) for _, tracer in traced]
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            diff = sorted(k for k in set(c) | set(counts[0]) if c.get(k) != counts[0].get(k))
            raise CountMismatch(f"traced pass {i} differs from pass 1 in {diff}")
    for name in COUNTS:
        m[name] = counts[0].get(name, 0)
    m.update(enumeration_counts(traced[0][1].enumerations))

    # The same code and seed must give the same counts in every run.
    record = {k: v for k, v in m.items() if unit_of(k) == "count"}
    path = OUT / "counts" / f"{args.workload}-{args.seed}-{code_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != record:
            diff = sorted(k for k in record if before.get(k) != record[k])
            raise CountMismatch(f"counts differ from an earlier run with this seed: {diff}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, sort_keys=True))
    return m


if __name__ == "__main__":
    sys.exit(main())
