#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {stream,tenants,osem} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics (the ``end_to_end`` list
of ``BENCHMARK.json``); ``--trace 1`` runs the same seed twice in one
process, untraced and then with timing wrappers on every layer
boundary, and prints the per-layer metrics (the ``per_layer`` list).
The traced run also writes a Chrome trace-event file and a summary to
``perfbench/out/``, and checks the benchmark's own invariants:

(a) every layer records calls on each workload ``design.json`` says it
    should move;
(b) the layers' self times plus ``bench.self_s`` sum to the traced wall
    total within 1%;
(c) tracing only observes: virtual metrics and counters are identical
    in the untraced and the traced pass, and every wrapped attribute is
    the original object again afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output matched its reference (and, traced, every
invariant held); it is 2 when the program under test cannot be
imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Fresh set-ups per end-to-end run, before and after the timed phase
#: (so they sample the whole run's machine noise); ``setup_s`` is the
#: median of all of them.
SETUPS_BEFORE, SETUPS_AFTER = 4, 3


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``0 < q <= 100``)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, on_deploy=lambda deployment: None):
    """One fresh set-up; returns ``(session, wall seconds)``."""
    gc.collect()
    start = perf_counter()
    session = workload.setup(on_deploy)
    return session, perf_counter() - start


def run_timed(workload, session) -> float:
    """The timed phase; returns its wall-clock seconds."""
    gc.collect()
    session.begin_timed()
    start = perf_counter()
    workload.run(session)
    wall = perf_counter() - start
    session.end_timed()
    return wall


def end_to_end(workload):
    setup_walls = []
    session = None
    for _ in range(SETUPS_BEFORE):
        session = None  # release the previous deployment before the next
        session, setup_wall = timed_setup(workload)
        setup_walls.append(setup_wall)
    wall = run_timed(workload, session)
    rss = peak_rss_mb()
    failed = min(workload.n_units, session.failed + workload.check(session))
    samples = session.sync_samples
    notes = {
        "ops": workload.n_units,
        "failed_ratio": failed / workload.n_units,
        "sync_points": session.sync_points,
        "latency_samples": len(samples),
        "timed_wall_s": wall,
    }
    metrics = {
        "units_per_s": (workload.n_units / wall, "1/s"),
        "virt_setup_s": (session.virt_setup_s, "s"),
        "virt_makespan_s": (session.virt_makespan_s, "s"),
        "sync_virt_p50_ms": (percentile(samples, 50) * 1e3, "ms"),
        "sync_virt_p90_ms": (percentile(samples, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    session = None
    setup_walls += [timed_setup(workload)[1] for _ in range(SETUPS_AFTER)]
    return failed, {"setup_s": (statistics.median(setup_walls), "s")} | metrics, notes, []


def traced(workload, seed: int):
    import tracing

    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)

    timed_setup(workload)  # warm-up, like the end-to-end run's repeated set-ups
    plain, setup_wall = timed_setup(workload)
    untraced_wall = setup_wall + run_timed(workload, plain)
    expected = tracing.fingerprint(plain)
    plain = None
    gc.collect()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        session, setup_wall = timed_setup(workload, tracer.wrap_daemons)
        total = setup_wall + run_timed(workload, session)
    finally:
        tracer.uninstall()

    problems = []
    not_restored = tracer.restored()
    if not_restored:
        problems.append(f"(c) wrappers left installed: {not_restored[:5]}")
    if tracing.fingerprint(session) != expected:
        problems.append("(c) virtual metrics or counters differ between untraced and traced runs")

    agg = tracing.aggregate(session)
    failed = min(workload.n_units, session.failed + workload.check(session))
    native = workload.native_makespan() if hasattr(workload, "native_makespan") else 0.0

    calls, total_s, self_s = tracer.calls, tracer.total_s, tracer.self_s

    def key_sum(table, *keys):
        return sum(table.get(k, 0) for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    compile_keys = ("clc:repro.core.client.api.compile_program",
                    "clc:repro.ocl.program.compile_program")
    execute_key = "clc:repro.ocl.queue.clc_execute"
    layer_self = {layer: tracer.layer_sum(self_s, layer) for layer in tracing.LAYERS}
    bench_self = total - tracer.root_s
    kernel_s = key_sum(total_s, execute_key)
    pushes = agg["daemon.daemon_pushes"]
    builds = agg["daemon.programs_built"] + agg["daemon.build_cache_hits"] + agg["daemon.negative_build_hits"]
    metrics = {
        "client.self_s": (layer_self["client"], "s"),
        "client.api_calls": (tracer.calls_with_prefix("client:"), "count"),
        "client.round_trips": (agg["client.round_trips"], "count"),
        "client.cmds_per_batch": (ratio(agg["client.batched_commands"], agg["client.batches"]), "ratio"),
        "client.sync_wait_virt_s": (sum(session.sync_samples), "s"),
        "client.deferred_read_batches": (agg["client.deferred_read_batches"], "count"),
        "client.retries": (agg["client.retries"], "count"),
        "coherence.self_s": (layer_self["coherence"], "s"),
        "coherence.calls": (tracer.calls_with_prefix("coherence:"), "count"),
        "coherence.push_commits": (agg["client.push_commits"], "count"),
        "coherence.wasted_pushes": (agg["client.wasted_pushes"], "count"),
        "coherence.push_useful_ratio": (ratio(agg["client.push_commits"], pushes), "ratio"),
        "coherence.coalesced_transfers": (
            agg["client.coalesced_uploads"] + agg["client.coalesced_downloads"]
            + agg["client.coalesced_peer_transfers"], "count"),
        "wire.self_s": (layer_self["wire"], "s"),
        "wire.size_calls": (calls.get("wire:Message.wire_size", 0), "count"),
        "wire.encodes": (calls.get("wire:repro.net.messages.encode", 0), "count"),
        "wire.decodes": (calls.get("wire:repro.net.messages.decode", 0), "count"),
        "wire.encode_hit_ratio": (ratio(
            agg["client.encode_cache_hits"] + agg["daemon.encode_cache_hits"],
            calls.get("wire:Message.cached_wire", 0)), "ratio"),
        "wire.decode_hit_ratio": (ratio(
            agg["client.decode_cache_hits"] + agg["daemon.decode_cache_hits"],
            calls.get("wire:WireDecodeCache.decode", 0)), "ratio"),
        "wire.reply_hit_ratio": (ratio(
            agg["daemon.reply_cache_hits"], calls.get("wire:ReplyCache.encode", 0)), "ratio"),
        "net.self_s": (layer_self["net"], "s"),
        "net.calls": (tracer.calls_with_prefix("net:"), "count"),
        "net.bytes_sent": (agg["client.bytes_sent"] + agg["daemon.bytes_sent"], "B"),
        "net.bytes_received": (agg["client.bytes_received"] + agg["daemon.bytes_received"], "B"),
        "net.nic_busy_virt_s": (agg["nic.busy_virt_s"], "s"),
        "net.nic_util_max": (agg["nic.util_max"], "ratio"),
        "daemon.self_s": (layer_self["daemon"], "s"),
        "daemon.handler_calls": (tracer.calls_with_prefix("daemon:"), "count"),
        "daemon.cmds_dispatched": (agg["daemon.batched_commands_received"], "count"),
        "daemon.cpu_busy_virt_s": (agg["cpu.busy_virt_s"], "s"),
        "daemon.cpu_util_max": (agg["cpu.util_max"], "ratio"),
        "daemon.build_cache_hit_ratio": (ratio(agg["daemon.build_cache_hits"], builds), "ratio"),
        "daemon.programs_built": (agg["daemon.programs_built"], "count"),
        "ocl.self_s": (layer_self["ocl"], "s"),
        "ocl.enqueues": (tracer.calls_with_prefix("ocl:CommandQueue.enqueue_"), "count"),
        "clc.self_s": (layer_self["clc"], "s"),
        "clc.compiles": (key_sum(calls, *compile_keys), "count"),
        "clc.compile_s": (key_sum(total_s, *compile_keys), "s"),
        "clc.kernel_runs": (key_sum(calls, execute_key), "count"),
        "clc.kernel_s": (kernel_s, "s"),
        "clc.kernel_ops": (tracer.kernel_ops, "count"),
        "clc.ops_per_s": (ratio(tracer.kernel_ops, kernel_s), "1/s"),
        "sim.self_s": (layer_self["sim"], "s"),
        "sim.allocs": (tracer.calls_with_prefix("sim:"), "count"),
        "hw.device_busy_virt_s": (agg["device.busy_virt_s"], "s"),
        "hw.device_util_max": (agg["device.util_max"], "ratio"),
        "hw.pcie_busy_virt_s": (agg["pcie.busy_virt_s"], "s"),
        "bench.self_s": (bench_self, "s"),
        "trace.overhead_ratio": (total / untraced_wall - 1.0, "ratio"),
        "native.virt_makespan_s": (native, "s"),
        "forwarding_overhead_ratio": (ratio(session.virt_makespan_s, native), "ratio"),
    }

    # (a) every boundary of each layer the design says should move on
    # this workload recorded calls.
    for layer, prefix in tracing.boundary_groups():
        moves = design["layers"][layer]["moves"]
        if any(m["workload"] == workload.name for m in moves) and not tracer.calls_with_prefix(prefix):
            problems.append(f"(a) boundary {prefix}* recorded no call on {workload.name}")
    # (b) self times partition the traced wall total.
    accounted = sum(layer_self.values()) + bench_self
    if abs(accounted - total) > 0.01 * total:
        problems.append(f"(b) self times sum to {accounted:.6f}s of {total:.6f}s")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{seed}")
    summary = {
        "workload": workload.name,
        "seed": seed,
        "traced_wall_s": total,
        "untraced_wall_s": untraced_wall,
        "self_share": {layer: ratio(v, total) for layer, v in layer_self.items()}
        | {"bench": ratio(bench_self, total)},
        "boundaries": {k: {"calls": calls[k], "total_s": total_s[k], "self_s": self_s[k]}
                       for k in sorted(calls)},
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "self_test_problems": problems,
    }
    tracer.write_chrome(stem + ".trace.json", t0, summary)
    with open(stem + ".summary.json", "w") as fh:
        json.dump(summary | {"metrics": {k: v for k, (v, _) in metrics.items()}}, fh, indent=1)
    notes = {"self_share": " ".join(f"{k}={v:.3f}" for k, v in summary["self_share"].items()),
             "trace_file": os.path.relpath(stem + ".trace.json", ROOT)}
    return failed, metrics, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)

    if args.trace:
        failed, metrics, notes, problems = traced(workload, args.seed)
    else:
        failed, metrics, notes, problems = end_to_end(workload)
    for problem in problems:
        print(f"self-test failed: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:18.9g} {unit}")
    for name, value in notes.items():
        print(f"{name:32s} {value}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.n_units,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
