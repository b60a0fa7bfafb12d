"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipelined_writes --seed 1 --seconds 10 --trace 0

The workloads are defined, with the reason for each, in
``perfbench/workloads.py``.  ``--trace 0`` prints the end-to-end metrics:
``setup_s``, ``throughput_ops_s``, ``latency_p50_ms``, ``latency_p99_ms``
and ``peak_rss_mb``.  ``--trace 1`` runs traced and untraced chunks
alternately and prints the per-layer metrics, the tracing overhead, and
writes the first spans to ``.perfbench/spans-<workload>.jsonl``.

Every time is scaled to a nominal host speed by the probe of
``perfbench/hostspeed.py`` and printed beside its raw value.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every correctness
gate passed, 1 when one failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile

import hostspeed
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Metrics of a layer a
#: workload does not use read 0.
PER_LAYER = {
    "net.client.self_us_per_op": "us/op",
    "net.client.reply_wait_us_per_op": "us/op",
    "net.client.requests_per_op": "req/op",
    "net.client.retries_per_op": "retries/op",
    "net.client.items_per_batch_frame": "items/frame",
    "net.framing.self_us_per_op": "us/op",
    "net.framing.frames_per_op": "frames/op",
    "net.framing.bytes_per_op": "B/op",
    "net.framing.encode_us_per_frame": "us/frame",
    "net.framing.decode_us_per_frame": "us/frame",
    "net.framing.send_self_us_per_frame": "us/frame",
    "net.framing.recv_self_us_per_frame": "us/frame",
    "engine.server.self_us_per_op": "us/op",
    "engine.server.executes_per_op": "calls/op",
    "engine.server.execute_us_per_call": "us/call",
    "engine.server.dedup_replays": "count",
    "engine.cache.self_us_per_op": "us/op",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.still_valid_ratio": "ratio",
    "engine.cache.round_trips_per_read": "rt/read",
    "store.self_us_per_op": "us/op",
    "store.recovery_s": "s",
    "store.replayed_records": "count",
    "store.append_us_per_write": "us/write",
    "store.fsyncs_per_write": "fsyncs/write",
    "store.fsync_us": "us",
    "store.wal_bytes_per_write": "B/write",
    "store.snapshots_per_1k_writes": "count/1k",
    "store.snapshot_ms": "ms",
    "checkers.self_us_per_op": "us/op",
    "checkers.late_reads_s": "s",
    "checkers.sc_s": "s",
    "checkers.states": "states/check",
    "checkers.verify_s": "s",
    "core.history.build_s": "s",
    "residual.us_per_op": "us/op",
    "trace.us_per_op": "us/op",
    "trace.overhead_frac": "frac",
}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Latency samples per block; percentiles are medians over blocks.
BLOCK = 1000


def block_percentile(samples, q: float) -> float:
    """Median over consecutive blocks of ``BLOCK`` samples of each
    block's percentile (a short remainder joins the last block).  A burst
    of host preemption then spoils one block, not the run's tail."""
    starts = list(range(0, max(len(samples) - BLOCK, 0) + 1, BLOCK))
    bounds = list(zip(starts, starts[1:] + [len(samples)]))
    return statistics.median(_percentile(samples[a:b], q) for a, b in bounds)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(measure) -> dict:
    ops, seconds = measure.ops["plain"], measure.timed_scaled["plain"]
    return {
        "setup_s": statistics.median(measure.setup_scaled),
        "throughput_ops_s": _div(ops, seconds),
        "latency_p50_ms": block_percentile(measure.samples, 0.50) * 1e3,
        "latency_p99_ms": block_percentile(measure.samples, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(measure) -> dict:
    timed, verify, setup = (measure.agg[k] for k in ("timed", "verify", "setup"))
    counters = measure.counters["traced"]
    ops = measure.ops["traced"]

    def per_op(seconds: float) -> float:
        return _div(seconds, ops) * 1e6

    def self_us_per_op(*layers: str) -> float:
        return per_op(sum(
            stat.self_s for name, stat in timed.items() if spans.layer_of(name) in layers
        ))

    def mean(name: str, field: str = "active_s", *aggs) -> float:
        """Mean seconds per call of ``name`` over ``aggs`` (default timed)."""
        stats = [agg[name] for agg in (aggs or (timed,)) if name in agg]
        return _div(sum(getattr(s, field) for s in stats), sum(s.calls for s in stats))

    def calls(name: str) -> int:
        return timed[name].calls if name in timed else 0

    def self_s(name: str) -> float:
        return timed[name].self_s if name in timed else 0.0

    wait = sum(
        timed[name].wall_s - timed[name].active_s
        for name in ("net.client.read", "net.client.write") if name in timed
    )
    records = counters["wal_records"]
    append = self_s("store.log_write") + self_s("store.log_writes") - sum(measure.fsync_s)
    traced_us = per_op(measure.timed_scaled["traced"])
    plain_us = _div(measure.timed_scaled["plain"], measure.ops["plain"]) * 1e6
    all_aggs = (timed, verify, setup)
    values = {
        "net.client.self_us_per_op": self_us_per_op("net.client"),
        "net.client.reply_wait_us_per_op": per_op(wait),
        "net.client.requests_per_op": _div(counters["frames_sent"], ops),
        "net.client.retries_per_op": _div(counters["retries"], ops),
        "net.client.items_per_batch_frame": _div(
            counters["batched_writes"], counters["batch_frames"]),
        "net.framing.self_us_per_op": self_us_per_op("net.framing"),
        "net.framing.frames_per_op": _div(counters["frames"], ops),
        "net.framing.bytes_per_op": _div(counters["bytes"], ops),
        "net.framing.encode_us_per_frame": mean("net.framing.encode") * 1e6,
        "net.framing.decode_us_per_frame": mean("net.framing.decode") * 1e6,
        "net.framing.send_self_us_per_frame": mean("net.framing.send", "self_s") * 1e6,
        "net.framing.recv_self_us_per_frame": mean("net.framing.recv", "self_s") * 1e6,
        "engine.server.self_us_per_op": self_us_per_op("engine.server"),
        "engine.server.executes_per_op": _div(calls("engine.server.execute"), ops),
        "engine.server.execute_us_per_call": mean("engine.server.execute") * 1e6,
        "engine.server.dedup_replays": counters["dedup_replays"],
        "engine.cache.self_us_per_op": self_us_per_op("engine.cache"),
        "engine.cache.hit_ratio": _div(counters["fresh_hits"], counters["reads"]),
        "engine.cache.still_valid_ratio": _div(counters["revalidated"], counters["validations"]),
        "engine.cache.round_trips_per_read": _div(
            counters["validations"] + counters["fetches"], counters["reads"]),
        "store.self_us_per_op": self_us_per_op("store"),
        "store.recovery_s": mean("store.open", "active_s", setup),
        "store.replayed_records": measure.replayed_records,
        "store.append_us_per_write": _div(append, records) * 1e6,
        "store.fsyncs_per_write": _div(counters["wal_fsyncs"], records),
        "store.fsync_us": _div(sum(measure.fsync_s), len(measure.fsync_s)) * 1e6,
        "store.wal_bytes_per_write": _div(counters["wal_bytes"], records),
        "store.snapshots_per_1k_writes": _div(calls("store.snapshot") * 1000.0, records),
        "store.snapshot_ms": mean("store.snapshot") * 1e3,
        "checkers.self_us_per_op": self_us_per_op("checkers", "core.history"),
        "checkers.late_reads_s": mean("checkers.late_reads", "active_s", *all_aggs),
        "checkers.sc_s": mean("checkers.check_sc", "active_s", *all_aggs),
        "checkers.states": _div(sum(measure.states), len(measure.states)),
        "checkers.verify_s": measure.verify_scaled,
        "core.history.build_s": mean("core.history.build", "active_s", *all_aggs),
        "trace.us_per_op": traced_us,
        "trace.overhead_frac": _div(traced_us, plain_us) - 1.0,
    }
    covered = sum(values[f"{layer}.self_us_per_op"] for layer in (
        "net.client", "net.framing", "engine.server", "engine.cache", "store", "checkers"))
    values["residual.us_per_op"] = traced_us - covered
    return values


def _report(name: str, args, measure, metrics: dict, units: dict) -> None:
    probe = measure.scaler.summary()
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"probe: nominal {probe['nominal_us']:.0f} us; {probe['probes']} readings, "
        f"median {probe['median_us']:.0f} us, min {probe['min_us']:.0f}, "
        f"max {probe['max_us']:.0f}"
    )
    raw = {}
    if not args.trace:
        lat_raw = [x for kind in measure.latency_raw.values() for x in kind]
        n = len(lat_raw)
        raw = {
            "setup_s": (statistics.median(measure.setup_raw), f"n={len(measure.setup_raw)}"),
            "throughput_ops_s": (
                _div(measure.ops["plain"], measure.timed_raw["plain"]),
                f"{measure.ops['plain']} ops in {measure.timed_scaled['plain']:.3f} s "
                f"scaled, {measure.timed_raw['plain']:.3f} s raw",
            ),
            "latency_p50_ms": (_percentile(lat_raw, 0.50) * 1e3, f"whole run; n={n}, "
                               f"blocks of {BLOCK}"),
            "latency_p99_ms": (_percentile(lat_raw, 0.99) * 1e3, f"whole run; n={n}, "
                               f"blocks of {BLOCK}"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "fresh process"),
        }
    for key, value in metrics.items():
        line = f"  {key:36s} {value:14.6g} {units[key]}"
        if key in raw:
            line += f"   (raw {raw[key][0]:.6g}; {raw[key][1]})"
        print(line)
    if not args.trace:
        for kind in sorted(measure.latency):
            scaled, unscaled = measure.latency[kind], measure.latency_raw[kind]
            print(
                f"  {kind + '_p50_ms':36s} {_percentile(scaled, 0.5) * 1e3:14.6g} ms"
                f"   (raw {_percentile(unscaled, 0.5) * 1e3:.6g}; n={len(scaled)})"
            )
            print(
                f"  {kind + '_p99_ms':36s} {_percentile(scaled, 0.99) * 1e3:14.6g} ms"
                f"   (raw {_percentile(unscaled, 0.99) * 1e3:.6g}; n={len(scaled)})"
            )
    for note in measure.notes:
        print(f"  {note}")
    plain = measure.counters["plain"]
    if plain["reads"]:
        print(
            f"  cache: {plain['reads']:.0f} reads, {plain['fresh_hits']:.0f} fresh hits, "
            f"{plain['validations']:.0f} validations ({plain['revalidated']:.0f} still "
            f"valid), {plain['fetches']:.0f} fetches"
        )
    print(
        f"  {'failed_frac':36s} {_div(measure.failed, measure.attempted):14.6g} "
        f"({measure.failed} of {measure.attempted})"
    )
    for why in measure.failures:
        print(f"  FAILED: {why}")


def _dump_spans(name: str, measure) -> None:
    out = os.path.join(ROOT, ".perfbench", f"spans-{name}.jsonl")
    with open(out, "w", encoding="utf-8") as fh:
        for span in measure.tracer.kept:
            fh.write(json.dumps(span.as_dict()) + "\n")
    print(f"spans: {len(measure.tracer.kept)} written to {os.path.relpath(out, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    measure = workloads.Measure(args.seconds, bool(args.trace))
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        workload.run(args.seed, measure, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics, units = per_layer(measure), PER_LAYER
    else:
        metrics, units = end_to_end(measure), END_TO_END
    _report(args.workload, args, measure, metrics, units)
    if args.trace:
        _dump_spans(args.workload, measure)
    correct = measure.failed == 0 and measure.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": measure.attempted,
        "failed": measure.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
