"""Host-time benchmark of the wireless security processing platform.

Run from the repository root:

    python3 perfbench/run.py --workload farm_resume --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric, its times normalized for the host's drifting speed (see
:mod:`hostspeed`); ``--trace 1`` wraps the program's layers (see
:mod:`layers`) and prints the per-layer metrics instead.  The metric
names, units and directions come from ``BENCHMARK.json``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads are described in
``perfbench/README.md``.
"""

import argparse
import collections
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Environment that selects backends or parallelism; cleared so every
#: run measures the defaults (interpreted ISS, reference mpn, serial).
PINNED_ENV = ("REPRO_ISS_BACKEND", "REPRO_MPN_BACKEND", "REPRO_JOBS",
              "REPRO_EXECUTOR")
#: Scratch space (temporary characterization caches, span files),
#: relative to the directory the benchmark runs in.
WORK_DIR = ".perfbench"

#: Layers that must record calls on each workload, per phase: the
#: timed passes, and the traced set-up.
MAPPED_LAYERS = {
    "farm_resume": (
        ("crypto.sha1", "protocols.cache_key",
         "ssl.session_cache.store_entry", "ssl.session_cache.lookup",
         "ssl.session_cache.contains", "farm.scheduler.affinity_probe",
         "farm.scheduler.select", "farm.scheduler.backlog_scan",
         "farm.events.push", "farm.events.pop", "farm.simulator.run",
         "protocols.request_cost", "farm.workload.generate_requests",
         "farm.metrics.summarize"),
        ("costs.measure", "macromodel.characterize",
         "crypto.ec.scalar_mul", "isa.assemble", "isa.machine.run")),
    "farm_link": (
        ("farm.scheduler.select", "farm.scheduler.backlog_scan",
         "farm.events.push", "farm.events.pop", "farm.simulator.run",
         "protocols.request_cost", "farm.workload.generate_requests",
         "farm.metrics.summarize"),
        ("costs.measure", "macromodel.characterize",
         "crypto.ec.scalar_mul", "isa.assemble", "isa.machine.run")),
    "explore_modexp": (
        ("macromodel.ledger", "macromodel.predict", "mp.hooks.trace",
         "mp.mpn.mul_basecase", "mp.mpn.divrem",
         "mp.mpn.addmul_1", "crypto.modexp.powm", "crypto.modmul.mul",
         "explore.evaluate"),
        ("macromodel.characterize", "isa.assemble", "isa.machine.run")),
}
#: Layers that must record no call in the timed passes of a workload.
IDLE_LAYERS = {"farm_link": ("crypto.sha1",)}


class BenchmarkError(Exception):
    """A check that makes the whole run invalid (no result printed)."""


#: One timed pass: host clock at its start and end, checked outcome.
Pass = collections.namedtuple("Pass", "start end report")


def measure(workload, seconds):
    """Run passes for ``seconds``: at least one, and no further pass once
    a pass of median length would end after the deadline.

    An exception in a pass counts every operation of that pass as
    failed.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + statistics.median(
            p.end - p.start for p in passes) <= deadline:
        gc.collect()        # every pass starts from the same heap
        start = time.perf_counter()
        try:
            outputs = workload.execute()
        except Exception:
            traceback.print_exc()
            outputs = None
        end = time.perf_counter()
        passes.append(Pass(start, end, workload.failed_pass()
                           if outputs is None else workload.check(outputs)))
        del outputs
    return passes


def sims_agree(passes):
    sims = [p.report.sim for p in passes if not p.report.failed]
    return all(sim == sims[0] for sim in sims)


def summary_of(passes):
    """Median host seconds of a pass and the sim numbers of the passes."""
    run_s = statistics.median(p.end - p.start for p in passes)
    sim = next((p.report.sim for p in passes if not p.report.failed), {})
    return run_s, sim


def workload_metrics(run_s, sim):
    """Workload-scoped results; 0 where a metric is not this workload's."""
    out = {name: sim.get(name, 0) for name in (
        "farm.requests", "farm.p50_ms", "farm.p99_ms", "farm.secure_mbps",
        "farm.cache_hit_rate", "farm.evicted_sessions",
        "farm.simulator.events", "explore.best_cycles")}
    out["farm.requests_per_s"] = sim.get("farm.requests", 0) / run_s
    out["explore.candidates_per_s"] = (sim.get("explore.candidates", 0)
                                       / run_s)
    return out


def regime(name, sim):
    """Whether a farm workload's sim numbers sit in its intended regime."""
    if not sim:
        return False
    if name == "farm_link":
        return (sim["farm.completed_per_s"] >= 0.97 * sim[
            "farm.offered_per_s"] and sim["farm.p99_ms"] <= 250.0)
    if name == "farm_resume":
        return sim["farm.evicted_sessions"] > 0
    return True


def layer_metrics(name, recorder_stats, setup_stats, cache_stats,
                  traced_passes):
    """Per-layer metrics of a traced run: per pass for the timed
    layers, for the one traced set-up for the set-up layers."""
    from layers import LAYERS, SETUP_LAYERS

    out = {}
    for layer in LAYERS:
        if layer in SETUP_LAYERS:
            stats, per = setup_stats, 1
        else:
            stats, per = recorder_stats, traced_passes
        out[f"{layer}.calls"] = stats["calls"].get(layer, 0) / per
        out[f"{layer}.self_s"] = stats["self_s"].get(layer, 0.0) / per
    counters = recorder_stats["counters"]

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] \
            if counters.get(den) else 0.0

    out["ssl.session_cache.hit_ratio"] = (
        counters.get("ssl.session_cache.lookup.hits", 0)
        / recorder_stats["calls"]["ssl.session_cache.lookup"]
        if recorder_stats["calls"].get("ssl.session_cache.lookup")
        else 0.0)
    out["farm.scheduler.affinity_probe.useful_ratio"] = ratio(
        "farm.scheduler.affinity_probe.useful",
        "farm.scheduler.affinity_probe.attempts")
    out["farm.scheduler.backlog_scan.queued_items"] = counters.get(
        "farm.scheduler.backlog_scan.queued_items", 0) / traced_passes
    for key in ("isa.instructions", "isa.cycles"):
        out[key] = setup_stats["counters"].get(key, 0)
    out["costs.characterizations"] = cache_stats.characterizations
    out["costs.memo_hits"] = cache_stats.memo_hits

    timed, setup = MAPPED_LAYERS[name]
    silent = [layer for layer in timed
              if not recorder_stats["calls"].get(layer)]
    silent += [f"{layer} (set-up)" for layer in setup
               if not setup_stats["calls"].get(layer)]
    if silent:
        raise BenchmarkError(f"mapped layers recorded no call on {name}: "
                             + ", ".join(silent))
    busy = [layer for layer in IDLE_LAYERS.get(name, ())
            if recorder_stats["calls"].get(layer)]
    if busy:
        raise BenchmarkError(f"layers that must stay idle on {name} "
                             "were called: " + ", ".join(busy))
    return out


def run(args, scratch, spec):
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)

    def cold_setup(rep):
        workloads.cold_start(os.path.join(scratch, f"costs-{rep}"))
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        return start, time.perf_counter()

    metrics = {}
    if not args.trace:
        from hostspeed import SpeedProbe

        probe = SpeedProbe()
        with probe:
            setups = [cold_setup(rep) for rep in range(workload.setup_reps)]
            passes = measure(workload, args.seconds)
        norm_setups = [probe.normalize(*interval) for interval in setups]
        norm_passes = [probe.normalize(p.start, p.end) for p in passes]
        run_s, sim = summary_of(passes)
        metrics.update(workload_metrics(run_s, sim))
    else:
        from layers import Instrumentation, SpanRecorder

        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder)
        workloads.cold_start(os.path.join(scratch, "costs-traced"))
        instrumentation.install()
        try:
            workload.setup()
        finally:
            instrumentation.restore()
        setup_stats = recorder.snapshot()
        cache_stats = dataclasses.replace(
            sys.modules["repro.costs"].get_cache().stats)
        recorder.clear()
        untraced = measure(workload, args.seconds / 2)
        instrumentation.install()
        try:
            traced = measure(workload, args.seconds / 2)
        finally:
            instrumentation.restore()
        run_s, sim = summary_of(untraced)
        traced_run_s, traced_sim = summary_of(traced)
        if traced_sim != sim:
            raise BenchmarkError("sim numbers differ between the traced "
                                 f"and the untraced passes: {traced_sim} "
                                 f"!= {sim}")
        passes = untraced + traced
        metrics.update(workload_metrics(run_s, sim))
        metrics.update(layer_metrics(args.workload, recorder.snapshot(),
                                     setup_stats, cache_stats, len(traced)))
        metrics["host.run_s"] = run_s
        metrics["trace.run_s"] = traced_run_s
        metrics["trace.overhead_s"] = traced_run_s - run_s
        metrics["trace.spans"] = len(recorder.spans) + recorder.dropped
        os.makedirs(os.path.join(WORK_DIR, "traces"), exist_ok=True)
        recorder.write(os.path.join(
            WORK_DIR, "traces", f"{args.workload}-seed{args.seed}.jsonl"))

    attempted = sum(p.report.attempted for p in passes)
    failed = sum(p.report.failed for p in passes)
    correct = failed == 0 and sims_agree(passes)
    if not args.trace:
        metrics["setup_s"] = statistics.median(s for s, _ in norm_setups)
        metrics["run_s"] = statistics.median(s for s, _ in norm_passes)
        metrics["host.setup_s"] = statistics.median(
            end - start for start, end in setups)
        metrics["host.run_s"] = run_s
        metrics["host.slowdown"] = statistics.median(
            f for _, f in norm_setups + norm_passes)
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024.0
            - probe.resident_bytes) / 2 ** 20
        metrics["ops_ok_ratio"] = (attempted - failed) / attempted
        metrics["ops_failed_ratio"] = failed / attempted

    mp = sys.modules["repro.mp"]
    machine = sys.modules["repro.isa.machine"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(passes)}  {workload.op_name} per pass "
          f"{passes[0].report.attempted}  "
          f"python {platform.python_version()}  "
          f"iss backend {machine.resolve_backend()}  "
          f"mpn backend {mp.active_backend()}  "
          f"regime {'ok' if regime(args.workload, sim) else 'LEFT'}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError("declared metrics not measured: "
                             + ", ".join(missing))
    shown = dict((m["name"], m["unit"]) for m in declared)
    if not args.trace:
        family = args.workload.split("_")[0] + "."
        shown.update((m["name"], m["unit"]) for m in spec["per_layer"]
                     if m["name"] in metrics
                     and m["name"].startswith(family))
        shown["ops_failed_ratio"] = "ratio"
        shown.update({"host.setup_s": "s", "host.run_s": "s",
                      "host.slowdown": "x"})
    for name, unit in shown.items():
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("farm_resume", "farm_link",
                                 "explore_modexp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro "
              "here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    os.environ["REPRO_COSTS_CACHE_DIR"] = os.path.join(scratch, "costs")
    sys.path.insert(0, src)
    try:
        run(args, scratch, spec)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
