#!/usr/bin/env python3
"""The repo benchmark: six closed-loop workloads over the real, training
and virtual paths, with a traced per-layer run.

    python3 bench/run.py                     # every workload, end to end
    python3 bench/run.py --traced            # every workload, per layer
    python3 bench/run.py --workload hep_infer --seed 3 --seconds 10 --trace 0

The last form is the contract ``BENCHMARK.json`` names: one workload, one
run, and the result as one JSON object on the last line of stdout. A *run*
is ``ROUNDS`` fresh worker processes (``worker.py``) with BLAS/OpenMP
pinned to one thread; each sets the workload up, does its warm-up
operations (checked against ``bench/golden/``), then times operations for
its share of ``--seconds``. Every timing is rescaled to the reference
machine speed (see ``at_reference_speed``) and throughput is computed from
the *median* operation time over the pooled rounds, so neither one
scheduler stall nor a stretch of host interference on a shared box moves
it; set-up time and peak RSS are the median over rounds.

See ``bench/README.md`` for the metric tables and how to phrase a claim.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: fresh processes per run; each gets ``--seconds / ROUNDS`` to measure
ROUNDS = 2
#: worker environment. One process, one thread: the box has two cores and
#: the forwards are glue-bound, not GEMM-bound. ``NUMPY_MADVISE_HUGEPAGE=0``
#: because with it the kernel compacts memory inside page faults on some
#: operations and not others, which made op times bimodal (+-15 %).
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0",
          "PYTHONHASHSEED": "0"}

#: seconds ``worker.reference_loop`` takes on the undisturbed reference box;
#: only sets the scale (a corrected time equals the raw one there)
REF_S = 3.5e-3

#: per-layer metric <- row key (span self seconds or count), median over
#: the traced operations that have it
MEDIANS = {
    "nn.conv.fwd_s": "nn.conv.fwd",
    "nn.conv.bwd_s": "nn.conv.bwd",
    "nn.deconv.fwd_s": "nn.deconv.fwd",
    "nn.activations.fwd_s": "nn.activations.fwd",
    "nn.activations.bwd_s": "nn.activations.bwd",
    "nn.pooling.fwd_s": "nn.pooling.fwd",
    "nn.pooling.bwd_s": "nn.pooling.bwd",
    "nn.dense.fwd_s": "nn.dense.fwd",
    "nn.dense.bwd_s": "nn.dense.bwd",
    "nn.losses.loss_s": "nn.losses.loss",
    "optim.adam.step_s": "optim.adam.step",
    "train.loop.self_s": "train.loop",
    "distributed.param_server.push_pull_s": "distributed.param_server",
    "distributed.hybrid.self_s": "distributed.hybrid",
    "serve.batching.assemble_s": "serve.batching",
    "serve.arrivals.gen_s.plain": "serve.arrivals.gen.plain",
    "serve.arrivals.gen_s.cached": "serve.arrivals.gen.cached",
    "serve.arrivals.gen_s.multi": "serve.arrivals.gen.multi",
    "serve.fast_core.flat.run_s": "serve.fast_core.flat.run",
    "serve.fast_core.cached.run_s": "serve.fast_core.cached.run",
    "serve.fast_core.multi.run_s": "serve.fast_core.multi.run",
    "serve.slo_sim.edf.arrivals_s": "serve.slo_sim.edf.arrivals",
    "serve.slo_sim.edf.drive_s": "serve.slo_sim.edf.drive",
    "serve.slo_sim.edf.drain_s": "serve.slo_sim.edf.drain",
    "serve.slo_sim.edf.collect_s": "serve.slo_sim.edf.collect",
    "serve.router.submit_s": "serve.router.submit_s",
    "serve.router.sync_s": "serve.router.sync_s",
    "serve.autoscale.run_s": "serve.autoscale.run",
}
#: exact per seed (virtual-time results and schedule counts): the value of
#: the first traced operation that has it; any change is a behaviour change
EXACT = ("distributed.param_server.staleness_mean",
         "serve.autoscale.scale_events", "serve.autoscale.epochs",
         "serve.cache.hit_rate", "serve.router.shed_share",
         "serve.batching.mean_batch", "serve.metrics.p99_ms",
         "serve.metrics.attainment")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one run ------------------------------------------------------------------

def run_round(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool, regen: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if regen:
        cmd.append("--regen-golden")
    proc = subprocess.run(cmd, env={**os.environ, **PINNED},
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench: worker for {workload!r} exited with "
                 f"{proc.returncode}; no result")
    return at_reference_speed(json.loads(proc.stdout.splitlines()[-1]))


def at_reference_speed(round_: dict) -> dict:
    """Rescale every timing of one round to the reference machine speed.

    The reference VM's host flips, every few seconds, between two speeds
    ~28 % apart for interpreter-bound code (~13 % for array code), and how
    much of a run falls into which is luck: raw medians of the same commit
    spread 5-18 % run to run and shift by as much between two sets of
    runs, which no bound a regression check could use survives. So the
    worker times a fixed pure-Python loop right before and after every
    operation (and around the set-up), and a time measured while that
    loop took ``ref_s`` is multiplied by ``(REF_S / ref_s) ** e``, with
    ``e`` the workload's fitted ``interference`` exponent. Measured on the
    reference box this brings the run-to-run spread to 2-5 %. The raw
    seconds stay in the result (``raw_*``) and are printed as diagnostics.
    """
    e = round_["interference"]
    for op in round_["ops"]:
        scale = (REF_S / op["ref_s"]) ** e
        op["raw_wall_s"] = op["wall_s"]
        for key in ("wall_s", "cpu_s"):
            op[key] *= scale
        if "row" in op:
            for key in op["row"]:
                if key not in EXACT:
                    op["row"][key] *= scale
    scale = (REF_S / round_["setup_ref_s"]) ** e
    round_["raw_setup_s"] = round_["setup_s"]
    round_["setup_s"] *= scale
    round_["stages"] = {k: v * scale for k, v in round_["stages"].items()}
    return round_


def _by_kind(rounds: List[dict], traced: bool, field: str) -> Dict[str, list]:
    out: Dict[str, list] = {kind: [] for kind in rounds[0]["items"]}
    for r in rounds:
        for op in r["ops"]:
            if not op["warmup"] and op["traced"] == traced:
                out[op["kind"]].append(op[field])
    return out


def _op_seconds(samples: Dict[str, list]) -> float:
    """Seconds for one op of every kind: the sum of per-kind medians."""
    return sum(statistics.median(v) for v in samples.values())


def end_to_end(rounds: List[dict]) -> Dict[str, float]:
    """``items_per_s = sum(items per kind) / sum(median op seconds per
    kind)``, one term per kind of operation the workload cycles."""
    items = sum(rounds[0]["items"].values())
    return {
        "items_per_s": items / _op_seconds(
            _by_kind(rounds, False, "wall_s")),
        "cpu_ms_per_item": 1e3 * _op_seconds(
            _by_kind(rounds, False, "cpu_s")) / items,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }


def per_layer(rounds: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of a traced run; a layer the workload never enters
    reads 0 (which is what "predicted flat" looks like)."""
    rows = [op["row"] for r in rounds for op in r["ops"] if op["traced"]]
    first = rounds[0]
    static, items = first["static"], first["items"]

    def med(key: str) -> float:
        values = [row[key] for row in rows if key in row]
        return statistics.median(values) if values else 0.0

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds else 0.0

    m = {metric: med(key) for metric, key in MEDIANS.items()}
    for metric in EXACT:
        m[metric] = next((row[metric] for row in rows if metric in row), 0.0)
    # computed work set against measured time
    for kind in ("conv", "deconv"):
        m[f"nn.{kind}.gflops_per_s"] = rate(
            static.get(f"nn.{kind}.flops", 0) / 1e9, m[f"nn.{kind}.fwd_s"])
    m["nn.conv.bytes_computed"] = static.get("nn.conv.bytes", 0)
    # array engine: no profiler can look inside without forcing the event
    # loop, so drive+collect is the run minus separately timed arrivals
    for kind, loop in (("plain", "flat"), ("cached", "cached"),
                       ("multi", "multi")):
        run_s = m[f"serve.fast_core.{loop}.run_s"]
        m[f"serve.fast_core.{loop}.drive_collect_s"] = max(
            0.0, run_s - m[f"serve.arrivals.gen_s.{kind}"])
        m[f"serve.fast_core.{loop}.req_per_s"] = rate(
            items.get(kind, 0), run_s)
    m["serve.autoscale.us_per_req"] = 1e6 * rate(
        m["serve.autoscale.run_s"], items.get("autoscale", 0))
    # set-up stages and memory, median over rounds
    for metric, stage in (("serve.registry.load_s", "serve.registry.load"),
                          ("models.build_s", "models.build"),
                          ("data.gen_s", "data.gen")):
        m[metric] = statistics.median(
            r["stages"].get(stage, 0.0) for r in rounds)
    grown = statistics.median(
        r["peak_rss_mb"] - r["rss_setup_mb"] for r in rounds)
    for metric in ("nn.workspace_mb", "serve.fast_core.peak_mb"):
        m[metric] = grown if first["memory_metric"] == metric else 0.0
    # the tracing itself: paired untraced/traced cycles of the same rounds
    traced = _by_kind(rounds, True, "wall_s")
    m["bench.trace_overhead"] = (
        _op_seconds(traced)
        / _op_seconds(_by_kind(rounds, False, "wall_s")))
    roots = first["roots"]
    m["bench.trace_coverage"] = 1.0 - (
        sum(med(root) for root in roots.values())
        / sum(med(root + ".total") for root in roots.values()))
    return m


def diagnostics(rounds: List[dict]) -> List[str]:
    """Per-op percentiles: printed, not gated (at ~1 s per op the tail
    does not repeat within a tenth)."""
    items = sum(rounds[0]["items"].values())
    raw = _by_kind(rounds, False, "raw_wall_s")
    refs = [op["ref_s"] for r in rounds for op in r["ops"]]
    lines = [f"raw_items_per_s = {items / _op_seconds(raw):.6g} (not "
             f"rescaled; reference loop took {1e3 * min(refs):.2f}-"
             f"{1e3 * max(refs):.2f} ms, {1e3 * REF_S:.2f} nominal)",
             "raw_setup_s = " + ", ".join(
                 f"{r['raw_setup_s']:.3f}" for r in rounds)]
    for kind, walls in _by_kind(rounds, False, "wall_s").items():
        walls.sort()
        n = len(walls)
        line = (f"op_p50_ms[{kind}] = "
                f"{1e3 * statistics.median(walls):.1f} ms (n={n})")
        # the highest percentile with at least ten samples beyond it
        q = 1.0 - 10.0 / n
        if q > 0.5:
            line += (f"; op_tail_ms[{kind}] = {1e3 * walls[n - 11]:.1f} ms "
                     f"(q={q:.3f})")
        else:
            line += f"; op_tail_ms[{kind}]: fewer than 20 samples"
        lines.append(line)
    return lines


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, regen: bool = False) -> dict:
    """One run of one workload: the contract's result plus provenance."""
    t0 = time.perf_counter()
    n_rounds = 1 if smoke else ROUNDS
    rounds = [run_round(workload, seed, seconds / n_rounds, trace, smoke,
                        regen) for _ in range(n_rounds)]
    values = per_layer(rounds) if trace else end_to_end(rounds)
    declared = spec()["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        sys.exit("bench: BENCHMARK.json and bench/run.py disagree on: "
                 + ", ".join(sorted({m["name"] for m in declared}
                                    ^ set(values))))
    ops = [op for r in rounds for op in r["ops"]]
    failures = [f"round {i} op {op['index']} ({op['kind']}): {p}"
                for i, r in enumerate(rounds) for op in r["ops"]
                for p in op["problems"]]
    timed = _by_kind(rounds, False, "wall_s")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["problems"]),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
        "failures": failures,
        "diagnostics": diagnostics(rounds),
        "samples": {"item": rounds[0]["item"],
                    "items_per_op": rounds[0]["items"],
                    "timed_ops": {k: len(v) for k, v in timed.items()},
                    "interference": rounds[0]["interference"],
                    # raw material for refitting the interference exponent
                    "timings": [
                        {"raw_setup_s": r["raw_setup_s"],
                         "setup_ref_s": r["setup_ref_s"],
                         "ops": [{k: op[k] for k in (
                             "kind", "traced", "raw_wall_s", "ref_s")}
                             for op in r["ops"] if not op["warmup"]]}
                        for r in rounds],
                    "traced_ops": {k: len(v) for k, v in _by_kind(
                        rounds, True, "wall_s").items()},
                    "rounds": n_rounds, "mode": rounds[0]["mode"]},
        "versions": rounds[0]["versions"],
        "wall_s": time.perf_counter() - t0,
    }


def show(result: dict) -> None:
    s = result["samples"]
    counts = ", ".join(f"{n} {kind}" for kind, n in s["timed_ops"].items())
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  [{s['rounds']} rounds, one thread; "
          f"untraced timed ops: {counts}; item = one of {s['item']}]")
    zero = [name for name, m in result["metrics"].items() if not m["value"]]
    for name, m in result["metrics"].items():
        if name not in zero:
            print(f"  {name:<42s} {m['value']:>16.6g} {m['unit']}")
    if zero:
        print(f"  ({len(zero)} metrics of layers this workload never "
              f"enters read 0)")
    for line in result["diagnostics"]:
        print("  " + line)
    print(f"  failed_share = {result['failed']}/{result['attempted']} ops "
          f"(warm-ups against goldens, timed ops against identities); "
          f"{result['wall_s']:.1f} s wall")
    for line in result["failures"]:
        print("  FAILED " + line)


# -- the whole suite ----------------------------------------------------------

def provenance(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"       # the driver's checkout is not a repository
    return {"git_sha": sha,
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"),
            "seed": args.seed, "repeat": args.repeat,
            "seconds": args.seconds, "rounds_per_run": ROUNDS,
            "nproc": os.cpu_count(), "threads": 1, "pinned_env": PINNED}


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", help="run only this workload and end "
                    "with the one-line JSON result")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring window of a run "
                    "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="same as --trace 1")
    ap.add_argument("--smoke", action="store_true",
                    help="2 ops per kind at reduced sizes")
    ap.add_argument("--regen-golden", action="store_true",
                    help="rewrite bench/golden/ from this run's warm-ups")
    ap.add_argument("--repeat", type=int, default=1,
                    help="suite mode: runs per workload, seeds seed..seed+N-1")
    ap.add_argument("--out", help="suite mode: results file "
                    "(default bench/out/results[-traced].json)")
    args = ap.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("bench: the program under test (src/repro) is not here")
    declared = spec()
    names = [w["name"] for w in declared["workloads"]]
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    trace = 1 if args.traced else args.trace

    if args.workload:
        if args.workload not in names:
            sys.exit(f"bench: unknown workload {args.workload!r}; "
                     f"have {names}")
        result = measure(args.workload, args.seed, args.seconds, trace,
                         args.smoke, args.regen_golden)
        show(result)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return

    t0 = time.perf_counter()
    runs = []
    for name in names:
        for k in range(args.repeat):
            runs.append(measure(name, args.seed + k, args.seconds, trace,
                                args.smoke, args.regen_golden))
            show(runs[-1])
    total = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / (
        "results-traced.json" if trace else "results.json")
    out.write_text(json.dumps({"provenance": {**provenance(args),
                                              "total_wall_s": total,
                                              "versions": runs[0]["versions"]},
                               "runs": runs}, indent=1) + "\n")
    failed = sum(r["failed"] for r in runs)
    print(f"{len(runs)} runs in {total:.0f} s, {failed} failed ops; "
          f"results in {out}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
