"""Whole-stack Watchmen benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload session48 --seed 17 --seconds 25 --trace 0

``--trace 0`` plays several matches generated from the seed, about
``--seconds`` of timed phase in all, and reports the end-to-end metrics
named in ``BENCHMARK.json``.  ``--trace 1`` runs the seed's own match once
untraced and twice under the layer tracer (``tracer.py``) and reports the
per-layer metrics.  Either way every output check must pass; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Exit status: 0 when every check passed, 1 when one failed,
2 when the program under test cannot be found.

Workloads, seeds and the layer -> end-to-end mapping are described in
``perfbench/README.md`` and ``perfbench/ledger.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: spans of each traced run are written here (inside the checkout)
TRACE_DIR = os.path.join(ROOT, ".perfbench")
#: set-ups per untraced run; the median is ``setup_s``
MIN_SETUPS = 3
#: matches per untraced run, at least
MIN_MATCHES = 2
#: match i of a run with seed n plays seed n + i * MATCH_SEED_STRIDE
MATCH_SEED_STRIDE = 1000


def _median_p95(samples: list[float]) -> tuple[float, float]:
    ordered = sorted(samples)
    rank = max(0, -(-95 * len(ordered) // 100) - 1)  # nearest rank
    return statistics.median(ordered), ordered[rank]


def _timed_setup(workload, seed: int) -> tuple[object, float]:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def _measure(workload, state: object, seed: int):
    gc.collect()
    return workload.measure(state, seed)


def untraced(workload, seed: int, seconds: float) -> tuple[dict, list]:
    """End-to-end metrics over several matches generated from ``seed``.

    One seed's match is one draw of the game, and its cost varies from
    seed to seed (messages sent by about 8 % on session48).  A run
    therefore plays matches ``seed``, ``seed + 1000``, ... and reports
    medians over them.  Another match starts while one more of the last
    one's timed length still fits in ``seconds`` (at least
    :data:`MIN_MATCHES`), so the number of matches does not flip with small
    changes in machine speed.
    """
    setups: list[float] = []
    reps = []
    measured = 0.0
    while len(reps) < MIN_MATCHES or measured + reps[-1].timed_s <= seconds:
        match_seed = seed + MATCH_SEED_STRIDE * len(reps)
        state, setup_s = _timed_setup(workload, match_seed)
        setups.append(setup_s)
        rep = _measure(workload, state, match_seed)
        del state
        reps.append(rep)
        measured += rep.timed_s
        print(f"  match {len(reps)} (seed {match_seed}): set-up {setup_s:.3f} s, "
              f"timed {rep.timed_s:.3f} s", file=sys.stderr)
    while len(setups) < MIN_SETUPS:
        match_seed = seed + MATCH_SEED_STRIDE * len(setups)
        setups.append(_timed_setup(workload, match_seed)[1])
    frame_ms = [sample for rep in reps for sample in rep.frame_ms]
    p50, p95 = _median_p95(frame_ms)
    metrics = {
        "realtime_factor": statistics.median(r.realtime_factor for r in reps),
        "frame_ms.p50": p50,
        "frame_ms.p95": p95,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"  {len(reps)} matches, {len(frame_ms)} frame samples, "
          f"{len(setups)} set-ups", file=sys.stderr)
    return metrics, reps


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracers: list, reps: list, baseline) -> dict[str, float]:
    """Per-layer metrics from traced repetitions (counts from the first)."""
    tracer, rep = tracers[0], reps[0]
    calls = tracer.calls_by_name()
    layer_calls = tracer.layer_calls()
    extra = tracer.extra
    counts = rep.counts
    self_s = {
        layer: statistics.fmean(t.layer_self_s()[layer] for t in tracers)
        for layer in tracer.layers
    }
    sends = calls["DatagramNetwork.send"]
    encodes = (calls["repro.core.node.encoded_size"]
               + calls["repro.core.node.signable_bytes"]
               + calls["repro.core.wire.encode_bytes"])
    on_message = calls["WatchmenNode.on_message"]
    ratings = counts.get("ratings", 0)
    los_lookups = extra.get("los_hits", 0) + extra.get("los_misses", 0)
    player_frames = counts.get("player_frames", 0)
    metrics = {
        "net.events.self_s": self_s["net.events"],
        "net.events.events": extra.get("events", 0),
        "net.transport.send_calls": sends,
        "net.transport.self_s": self_s["net.transport"],
        "net.transport.bytes_sent": extra.get("bytes_sent", 0),
        "net.transport.delivered_share": _share(
            counts.get("delivered", 0), counts.get("messages_sent", 0)),
        "core.wire.encode_calls": encodes,
        "core.wire.decode_calls": calls["repro.core.wire.decode_bytes"],
        "core.wire.self_s": self_s["core.wire"],
        "core.wire.encodes_per_sent": _share(encodes, sends),
        "crypto.signatures.sign_calls": calls["HmacSigner.sign"],
        "crypto.signatures.verify_calls": calls["HmacSigner.verify"],
        "crypto.signatures.verify_failures": extra.get("verify_failures", 0),
        "crypto.signatures.self_s": self_s["crypto.signatures"],
        "core.node.on_message_calls": on_message,
        "core.node.on_frame_calls": calls["WatchmenNode.on_frame"],
        "core.node.self_s": self_s["core.node"],
        "core.node.messages_per_player_frame": _share(sends, player_frames),
        "core.node.rejected_share": _share(counts.get("refused", 0), on_message),
        "core.subscriptions.plan_calls": calls["SubscriptionPlanner.plan"],
        "core.subscriptions.self_s": self_s["core.subscriptions"],
        "game.interest.calls": layer_calls["game.interest"],
        "game.interest.self_s": self_s["game.interest"],
        "game.interest.pairs": extra.get("pairs", 0),
        "game.interest.los_cache_hit_share": _share(extra.get("los_hits", 0), los_lookups),
        "game.gamemap.los_calls": calls["GameMap.line_of_sight"],
        "game.gamemap.self_s": self_s["game.gamemap"],
        "game.gamemap.los_boxes_tested": counts["los_boxes_tested"],
        "game.simulator.self_s": self_s["game.simulator"],
        "game.simulator.frames": extra.get("frames", 0),
        "core.verification.calls": layer_calls["core.verification"],
        "core.verification.self_s": self_s["core.verification"],
        "core.verification.ratings": ratings,
        "core.verification.suspicious_share": _share(counts.get("suspicious", 0), ratings),
        "core.reputation.submit_calls": (calls["ReputationBoard.submit_rating"]
                                         + calls["ReputationBoard.submit_tag"]),
        "core.reputation.self_s": self_s["core.reputation"],
        "core.proxy.calls": layer_calls["core.proxy"],
        "core.proxy.self_s": self_s["core.proxy"],
        "core.membership.calls": layer_calls["core.membership"],
        "core.membership.self_s": self_s["core.membership"],
        "faults.calls": layer_calls["faults"],
        "faults.self_s": self_s["faults"],
        "analysis.self_s": self_s["analysis"],
        "trace.overhead": statistics.fmean(r.realtime_factor for r in reps)
        / baseline.realtime_factor,
        "trace.spans": len(tracer.span_name),
    }
    # Protocol-behaviour figures come from the untraced repetition; they
    # read zero where no session runs.
    for name in ("net.transport.upload_kbps.mean", "net.transport.upload_kbps.max",
                 "net.transport.lost_share", "core.node.update_age_frames.mean"):
        metrics[name] = baseline.behaviour.get(name, 0.0)
    return metrics


def ledger_problems(spec: dict, ledger: dict, workloads: dict) -> list[str]:
    """Names in ``ledger.json`` that BENCHMARK.json or the code do not know."""
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    per_layer = {entry["name"] for entry in spec["per_layer"]}
    declared = {entry["name"] for entry in spec["workloads"]}
    problems = []
    if not set(ledger["workloads"]) == declared == set(workloads):
        problems.append("ledger, BENCHMARK.json and the code list different workloads")
    for row in ledger["moves"]:
        for pattern in row["layer_metrics"]:
            prefix = pattern.rstrip("*")
            if not any(name == pattern or (pattern.endswith("*")
                       and name.startswith(prefix)) for name in per_layer):
                problems.append(f"ledger names unknown layer metric {pattern}")
        for target in row["should_move"]:
            if target["metric"] not in end_to_end | per_layer:
                problems.append(f"ledger names unknown metric {target['metric']}")
            for name in target["workloads"] + row["no_change"]:
                if name not in declared:
                    problems.append(f"ledger names unknown workload {name}")
    problems.extend(f"exact count {name} is not a per-layer metric"
                    for name in ledger["exact_counts"] if name not in per_layer)
    return problems


def traced(workload, seed: int, exact: list[str],
           failures: list[str]) -> tuple[dict, list]:
    """Per-layer metrics: the seed's match once untraced and twice traced."""
    from tracer import Tracer, load_spans, recompute_self_times

    baseline = _measure(workload, workload.setup(seed), seed)
    tracers, reps = [], []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            reps.append(_measure(workload, workload.setup(seed), seed))
        tracers.append(tracer)
        print(f"  traced rep: {len(tracer.span_name)} spans, timed "
              f"{reps[-1].timed_s:.3f} s (untraced {baseline.timed_s:.3f} s)",
              file=sys.stderr)

    for index, rep in enumerate(reps):
        if rep.digest != baseline.digest:
            failures.append(f"traced rep {index + 1} changed the output digest "
                            "(the digest must repeat across runs of one seed)")
        for key, value in baseline.counts.items():
            if rep.counts[key] != value:
                failures.append(f"traced rep {index + 1} changed count {key}: "
                                f"{rep.counts[key]} != {value}")
    first = layer_metrics(tracers, reps, baseline)
    second = layer_metrics(tracers[1:], reps[1:], baseline)
    for name in exact + [k for k in first if k.endswith("_calls")]:
        if first[name] != second[name]:
            failures.append(f"count {name} differs across runs: "
                            f"{first[name]} != {second[name]}")
    if first["net.events.events"] != baseline.counts.get("events", 0):
        failures.append("traced event count differs from the untraced queue's")

    # Self-test: per-layer self times partition the top-level spans, both
    # as accumulated online and as recomputed from the written span records.
    tracer = tracers[0]
    online = tracer.layer_self_s()
    total = sum(online.values())
    if abs(total - tracer.top_level_s) > 1e-6 * max(1.0, total):
        failures.append(f"layer self times sum to {total}, top-level spans "
                        f"cover {tracer.top_level_s}")
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{workload.name}-seed{seed}.spans")
    tracer.write(path)
    header, columns = load_spans(path)
    by_layer, top_level = recompute_self_times(header["name_layer"], columns)
    for layer, seconds in online.items():
        if abs(by_layer.get(layer, 0.0) - seconds) > 1e-6 * max(1.0, total):
            failures.append(f"span file disagrees on {layer} self time")
    if abs(top_level - tracer.top_level_s) > 1e-6 * max(1.0, total):
        failures.append("span file disagrees on the top-level total")
    print(f"  spans written to {os.path.relpath(path, ROOT)}; layer self "
          f"times sum to {total:.4f} s of {tracer.top_level_s:.4f} s top-level",
          file=sys.stderr)
    return first, [baseline] + reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "ledger.json")) as handle:
        ledger = json.load(handle)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"perfbench: {workload.name} seed {args.seed} "
          f"{'traced' if args.trace else 'untraced'}", file=sys.stderr)

    failures = ledger_problems(spec, ledger, WORKLOADS)
    started = time.perf_counter()
    if args.trace:
        metrics, reps = traced(workload, args.seed, ledger["exact_counts"], failures)
        declared = spec["per_layer"]
    else:
        metrics, reps = untraced(workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    for rep in reps:
        failures.extend(rep.failures)
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        failures.append(f"metrics {sorted(set(metrics) ^ set(units))} "
                        f"do not match BENCHMARK.json")

    for name in units:
        if name in metrics:
            print(f"{name:42s} {metrics[name]:>16.6f} {units[name]}")
    print(f"digest {reps[0].digest[:16]}  reps {len(reps)}  "
          f"wall {time.perf_counter() - started:.1f} s")
    for failure in dict.fromkeys(failures):
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(reps),
        "failed": sum(1 for rep in reps if rep.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
