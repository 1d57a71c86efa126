#!/usr/bin/env python3
"""Helios benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> \\
        --seconds <s> --trace <0|1>

Builds the program and the runner from source (into .bench_build, or
$CARGO_TARGET_DIR when set), then runs untraced passes of the workload
(one process each) until --seconds is used up, and at least two. With --trace 1 a traced pass of
the same workload and seed follows, and its spans give the per-layer
numbers. Every metric is printed by name with its unit, the per-round
record is written to .bench_build/records/, and the last line of standard
output is the JSON result. Exits non-zero when a check fails.

Workload definitions (targets, default seeds, the per-layer map) live in
perfbench/workloads.json; the metrics the last line carries are the ones
BENCHMARK.json lists. Unit tests: python3 -m unittest discover -s perfbench
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
from rollup import (fanout_idle_frac, parse_trace, rollup,  # noqa: E402
                    tail_percentile, within)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Measurement must end within this many seconds of the build finishing.
RUN_BUDGET_S = 170
MIN_PASSES = 2


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_runner():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: the program's sources are not next to "
                         "perfbench/ (no CMakeLists.txt or src/)")
    out = build_dir() / "perfbench"
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_runner", "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return out / "perfbench_runner"


def run_pass(runner, workload, seed, target, traced, calibrate, tag,
             deadline):
    scratch = build_dir() / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    out = scratch / f"{workload}-{seed}-{tag}.json"
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--target", repr(target), "--out", str(out),
           "--scratch", str(scratch)]
    if traced:
        cmd.append("--traced")
    if calibrate:
        cmd.append("--calibrate")
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    rec = json.loads(out.read_text())
    out.unlink()
    if traced:
        trace = Path(str(out) + ".trace.json")
        with trace.open() as lines:
            rec["spans"] = parse_trace(lines)
        trace.unlink()
    return rec


# ---- Metric helpers ---------------------------------------------------------

def counter_sum(rec, name):
    """A counter summed over all its label sets."""
    return sum(s["value"] for s in rec["metrics"] if s["name"] == name)


def histogram_mean(rec, name):
    n = sum(s["count"] for s in rec["metrics"] if s["name"] == name)
    total = sum(s["sum"] for s in rec["metrics"] if s["name"] == name)
    return total / n if n else 0.0


def kernel_backend(rec):
    for s in rec["metrics"]:
        if s["name"] == "helios.kernel.backend" and s["value"] == 1:
            return s["labels"].get("backend", "?")
    return "?"


def loop(rec, method):
    for lp in rec["loops"]:
        if lp["method"] == method:
            return lp
    return None


def update_fail_frac(rec):
    attempted = counter_sum(rec, "helios.net.round_participants_total")
    if attempted == 0:
        return 0.0  # no simulated network: every update is aggregated
    delivered = counter_sum(rec, "helios.net.round_delivered_total")
    return (attempted - delivered) / attempted


def wall_to_target(lp):
    k = lp["cycles_to_target"]
    return sum(lp["round_wall_s"][:k]) if k else 0.0


def vtime_to_target(lp):
    """0 when the target was never reached (a failed check)."""
    return lp["vtime_to_target"] or 0.0


def speedup(base, helios):
    vt = vtime_to_target(helios)
    return vtime_to_target(base) / vt if vt else 0.0


# ---- End-to-end metrics (untraced passes) ------------------------------------

def end_to_end(workload, passes):
    first = passes[0]
    helios = [loop(p, "Helios") for p in passes]
    walls = [w for lp in helios for w in lp["round_wall_s"]]
    tail = tail_percentile(walls)
    m = {
        "setup_s": (statistics.median(p["setup"]["total_s"] for p in passes),
                    "s"),
        "round_wall_p50_s": (statistics.median(walls), "s"),
        "round_wall_tail_s": (tail[0] if tail else max(walls), "s"),
        "client_updates_per_s": (statistics.median(
            counter_sum(p, "helios.client.cycles_total") /
            sum(lp["loop_s"] for lp in p["loops"]) for p in passes), "1/s"),
        "wall_to_target_s": (statistics.median(
            wall_to_target(lp) for lp in helios), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "final_accuracy": (helios[0]["final_accuracy"], "fraction"),
        "vtime_to_target_s": (vtime_to_target(helios[0]), "virtual_s"),
        "cycles_to_target": (helios[0]["cycles_to_target"], "count"),
        "update_fail_frac": (update_fail_frac(first), "fraction"),
    }
    if workload == "paper_testbed":
        m["speedup_vs_sync"] = (speedup(loop(first, "Syn. FL"), helios[0]),
                                "x")
        m["speedup_vs_afo"] = (speedup(loop(first, "AFO"), helios[0]), "x")
    if workload == "lossy_longtail":
        m["wire_mb_per_round"] = (
            counter_sum(first, "helios.net.bytes_on_wire_total") / 1e6 /
            len(helios[0]["rounds"]), "MB")
    tail_note = (f"p{tail[1]:.1f} of {tail[2]} rounds" if tail
                 else f"max of {len(walls)} rounds")
    return m, tail_note


# ---- Per-layer metrics (traced pass) -----------------------------------------

def per_layer(traced, untraced_p50):
    lp = loop(traced, "Helios")
    w = lp["trace_windows_us"]
    spans = within(traced["spans"], list(zip(w[::2], w[1::2])))
    rows = rollup(spans)

    def self_s(name):
        return rows.get(name, {}).get("self", 0.0) / 1e6

    def incl_s(name):
        return rows.get(name, {}).get("inclusive", 0.0) / 1e6

    def loop_s(method):
        other = loop(traced, method)
        return other["loop_s"] if other else 0.0

    tiers = lp["tiers"]
    codec_in = counter_sum(traced, "helios.codec.bytes_in_total")
    codec_out = counter_sum(traced, "helios.codec.bytes_out_total")
    frames_sent = counter_sum(traced, "helios.net.frames_sent_total")
    micro = traced["micro"]
    traced_p50 = statistics.median(lp["round_wall_s"])
    saves = lp["checkpoint_save_s"]
    m = {
        "nn.conv2d_fwd_s": (self_s("conv2d.forward"), "s"),
        "nn.conv2d_bwd_s": (self_s("conv2d.backward"), "s"),
        "nn.dense_fwd_s": (self_s("dense.forward"), "s"),
        "nn.dense_bwd_s": (self_s("dense.backward"), "s"),
        "fl.client_train_self_s": (self_s("client.train"), "s"),
        "fl.client_cycle_s": (incl_s("client.run_cycle"), "s"),
        "fl.server_evaluate_s": (incl_s("server.evaluate"), "s"),
        "fl.server_aggregate_s": (incl_s("server.aggregate"), "s"),
        "fl.fanout_idle_frac": (fanout_idle_frac(
            spans, traced["threads"], "helios.cycle", "client.run_cycle"),
            "fraction"),
        "fl.checkpoint_save_s": (statistics.median(saves) if saves else 0.0,
                                 "s"),
        "fl.checkpoint_load_s": (traced["checkpoint_load_s"], "s"),
        "fl.checkpoint_mb": (traced["checkpoint_mb"], "MB"),
        "fl.syncfl_loop_s": (loop_s("Syn. FL"), "s"),
        "fl.afo_loop_s": (loop_s("AFO"), "s"),
        "core.helios_loop_s": (lp["loop_s"], "s"),
        "core.cycle_self_s": (self_s("helios.cycle"), "s"),
        "core.select_submodels_s": (incl_s("helios.select_submodels"), "s"),
        "core.update_contributions_s": (
            incl_s("soft_training.update_contributions"), "s"),
        "core.rotation_s": (incl_s("rotation.record_cycle"), "s"),
        "core.identify_s": (traced["setup"]["identify_s"], "s"),
        "core.assign_target_s": (traced["setup"]["assign_target_s"], "s"),
        "sim.build_fleet_s": (traced["setup"]["build_fleet_s"], "s"),
        "sim.cohort_mean": (histogram_mean(traced, "helios.sim.cohort_size"),
                            "count"),
        "sim.peak_replica_mb": (max(lp["replica_mb"], default=0.0), "MB"),
        "net.frames_sent": (frames_sent, "count"),
        "net.frames_lost": (counter_sum(traced, "helios.net.frames_lost_total"),
                            "count"),
        "net.deadline_missed": (
            counter_sum(traced, "helios.net.deadline_missed_total"), "count"),
        "net.delivered_frac": (1.0 - update_fail_frac(traced), "fraction"),
        "net.retransmit_frac": (
            counter_sum(traced, "helios.net.round_retransmits_total") /
            frames_sent if frames_sent else 0.0, "fraction"),
        "net.frame_encode_us": (micro["frame_encode_us"], "us"),
        "net.frame_decode_us": (micro["frame_decode_us"], "us"),
        "codec.bytes_in_mb": (codec_in / 1e6, "MB"),
        "codec.bytes_out_mb": (codec_out / 1e6, "MB"),
        "codec.ratio": (codec_in / codec_out if codec_out else 1.0, "x"),
        "codec.encode_us": (micro["codec_encode_us"], "us"),
        "codec.decode_us": (micro["codec_decode_us"], "us"),
        "agg.edge_fold_s": (sum(t["edge_fold_s"] for t in tiers), "s"),
        "agg.regional_fold_s": (sum(t["regional_fold_s"] for t in tiers), "s"),
        "agg.root_fold_s": (sum(t["root_fold_s"] for t in tiers), "s"),
        "agg.frames_folded": (sum(t["frames_folded"] for t in tiers), "count"),
        "agg.merge_frame_mb": (traced["merge_frame_mb"], "MB"),
        "obs.trace_overhead_frac": (traced_p50 / untraced_p50 - 1.0,
                                    "fraction"),
    }
    return m, rows


# ---- Checks -----------------------------------------------------------------

def arithmetic(lp):
    """What must not change between runs of the same code and seed."""
    return ([(r["cycle"], r["accuracy"], r["loss"], r["virtual_time"])
             for r in lp["rounds"]], lp["digest"])


def checks(workload, spec, passes, traced):
    out = []
    first = passes[0]
    for lp in first["loops"]:
        out.append((f"{lp['method']} reaches target {spec['target']}",
                    lp["cycles_to_target"] > 0))
    for i, p in enumerate(passes[1:], start=2):
        out.append((f"untraced pass {i} repeats pass 1 exactly",
                    all(arithmetic(a) == arithmetic(b)
                        for a, b in zip(first["loops"], p["loops"]))))
    if traced is not None:
        out.append(("traced pass repeats the untraced arithmetic",
                    all(arithmetic(a) == arithmetic(b)
                        for a, b in zip(first["loops"], traced["loops"]))))
    if workload == "lossy_longtail":
        out.append(("resume from the last checkpoint reproduces the digest",
                    first["resume_digest"] == loop(first, "Helios")["digest"]))
    return out


# ---- Report -----------------------------------------------------------------

def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def write_record(workload, seed, spec, passes, e2e, env, results):
    first = passes[0]
    record = {
        "workload": workload, "seed": seed, "target": spec["target"],
        "environment": env, "checks": results,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "loops": [{
            "method": lp["method"], "digest": lp["digest"],
            "rounds": [dict(r, wall_s=w) for r, w in
                       zip(lp["rounds"], lp["round_wall_s"])],
        } for lp in first["loops"]],
    }
    path = build_dir() / "records" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def run_workload(runner, workload, spec, seed, seconds, trace):
    """Runs and reports one workload; returns (checks, metrics by name)."""
    # At least MIN_PASSES untraced passes, then more while one of the same
    # length still fits in --seconds. The floor keeps the sample count, and
    # with it the tail percentile, the same from run to run.
    t0 = time.monotonic()
    deadline = t0 + RUN_BUDGET_S
    passes = []
    while True:
        p0 = time.monotonic()
        passes.append(run_pass(runner, workload, seed, spec["target"],
                               False, not passes, len(passes), deadline))
        last = time.monotonic() - p0
        if (len(passes) >= MIN_PASSES and
                time.monotonic() - t0 + last > seconds):
            break
    traced = (run_pass(runner, workload, seed, spec["target"], True, False,
                       "traced", deadline) if trace else None)

    e2e, tail_note = end_to_end(workload, passes)
    first = passes[0]
    cal = first["calibration"]
    env = {
        "nproc": first["nproc"], "threads": first["threads"],
        "kernel_backend": kernel_backend(first),
        "build_type": first["build_type"],
        "calibration": {
            "threads": cal["threads"], "spin_1_s": cal["spin_1_s"],
            "spin_n_s": cal["spin_n_s"],
            "effective_cores": cal["threads"] * cal["spin_1_s"] /
            cal["spin_n_s"] if cal["spin_n_s"] else 0.0,
        },
        "untraced_passes": len(passes),
    }
    results = checks(workload, spec, passes, traced)
    record = write_record(workload, seed, spec, passes, e2e, env, results)

    print(f"workload {workload} seed {seed} target {spec['target']}")
    print("environment " + json.dumps(env))
    print(f"end-to-end (untraced, {len(passes)} passes; "
          f"round_wall_tail_s = {tail_note}):")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {fmt(value):>14} {unit}")
    layer = {}
    if traced is not None:
        layer, rows = per_layer(traced, e2e["round_wall_p50_s"][0])
        print("per-layer (traced pass):")
        for name, (value, unit) in layer.items():
            print(f"  {name:<28} {fmt(value):>14} {unit}")
        print("span rollup (Helios loop; count, inclusive s, self s, parent):")
        for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self"]):
            print(f"  {name:<36} {r['count']:>7} {r['inclusive'] / 1e6:>10.4f}"
                  f" {r['self'] / 1e6:>10.4f}  {r['parent'] or '-'}")
    print("checks:")
    for name, ok in results:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    print(f"record {os.path.relpath(record, ROOT)}", flush=True)
    return results, layer if trace else e2e


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload of workloads.json, or 'all'")
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the workload's default_seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    config = json.loads((HERE / "workloads.json").read_text())
    names = (list(config["workloads"]) if args.workload == "all"
             else [args.workload])
    for name in names:
        if name not in config["workloads"]:
            raise SystemExit(f"perfbench: unknown workload {name!r}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in bench["per_layer" if args.trace
                                       else "end_to_end"]]
    runner = build_runner()

    results = []
    metrics = {}
    for name in names:
        spec = config["workloads"][name]
        seed = spec["default_seed"] if args.seed is None else args.seed
        got, source = run_workload(runner, name, spec, seed, args.seconds,
                                   args.trace)
        results += got
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": source[k][0],
                                     "unit": source[k][1]} for k in wanted})
    failed = sum(1 for _, ok in results if not ok)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # On SIGTERM unwind normally, so subprocess.run kills and reaps the
    # runner it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
    except subprocess.TimeoutExpired as e:
        log(f"perfbench: {e}")
        sys.exit(1)
