"""One benchmark round: a fresh process that sets one workload up, warms
it up, then runs timed operations and prints one JSON object.

``run.py`` starts this file as a subprocess (threads pinned through the
environment) — set-up time and peak RSS are properties of a process, so
each round gets its own. Nothing here aggregates: the result carries every
operation's wall and CPU seconds and ``run.py`` pools the rounds.
"""

import time

T0 = time.perf_counter()   # before the heavy imports: they are set-up too


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of three):
    the yardstick of host interference. It brackets every operation and
    the set-up; ``run.py`` rescales their times by it."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden"


def rss_mb() -> float:
    """Current resident set of this process, MiB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):    # older numpy: no dict mode
        return "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring window of this round")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes, two timed ops per kind, no window")
    ap.add_argument("--regen-golden", action="store_true")
    args = ap.parse_args()

    ref_start = reference_loop()
    sys.path.insert(0, str(BENCH.parent / "src"))
    import numpy as np
    import workloads as wl
    from repro.utils.timers import Timer
    from tracing import Tracer

    stages = Timer()
    stages.add("import", time.perf_counter() - T0)
    mode = "smoke" if args.smoke else "full"
    golden_path = GOLDEN / f"{args.workload}.json"
    golden = (json.loads(golden_path.read_text())
              if golden_path.exists() else {})
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="registry-", dir=OUT)
    try:
        w = wl.WORKLOADS[args.workload](args.seed, args.smoke, stages,
                                        workdir)
        kinds = w.kinds
        rss_setup = rss_mb()
        ref_built = reference_loop()
        tracer = Tracer()
        ops = []

        def run(index, kind, j, seed, traced, warmup):
            """One operation, then (untimed) its record and checks."""
            ref = reference_loop()
            c0 = time.process_time()
            t0 = time.perf_counter()
            if traced:
                tracer.op = index
                raw = w.traced_op(kind, j, seed, tracer)
            else:
                raw = w.op(kind, j, seed)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            ref = (ref + reference_loop()) / 2
            rec = w.record(kind, raw)
            problems = w.check(kind, seed, raw, rec)
            ops.append({"index": index, "kind": kind, "warmup": warmup,
                        "traced": traced, "wall_s": wall, "cpu_s": cpu,
                        "ref_s": ref, "problems": problems})
            return rec

        # Warm-up: every kind once, two ops at least, on the golden
        # seed's inputs — the outputs are compared with bench/golden/.
        n_warm = max(2, len(kinds))
        warm = []    # (op, position within its kind, record)
        with stages.section("warmup"):
            for i in range(n_warm):
                kind, j = kinds[i % len(kinds)], i // len(kinds)
                rec = run(i - n_warm, kind, j, wl.GOLDEN_SEED, False, True)
                warm.append((ops[-1], j, rec))
        if args.regen_golden:
            golden[mode] = {}
            for op, j, rec in warm:
                golden[mode].setdefault(op["kind"], []).append(rec)
            GOLDEN.mkdir(exist_ok=True)
            golden_path.write_text(json.dumps(golden, indent=1) + "\n")
        for op, j, rec in warm:
            want = golden.get(mode, {}).get(op["kind"], [])
            if j >= len(want):
                op["problems"].append(
                    f"no golden for {args.workload}/{mode}/{op['kind']}"
                    f"[{j}]; run bench/run.py --regen-golden")
            else:
                op["problems"] += [
                    f"golden mismatch, {d}"
                    for d in wl.differences(rec, want[j], w.tol)]
        setup_s = time.perf_counter() - T0
        setup_ref = (ref_start + ref_built + reference_loop()) / 3

        # Timed operations, cycling the kinds. With tracing on, whole
        # cycles alternate untraced/traced, so the tracing overhead is a
        # paired comparison inside one process.
        last = {kind: 0.0 for kind in kinds}
        cycles = 2 if args.trace else 1
        t_loop = time.perf_counter()
        i = 0
        while True:
            kind, cycle = kinds[i % len(kinds)], i // len(kinds)
            if args.smoke:
                if cycle >= 2:
                    break
            elif cycle >= cycles and (time.perf_counter() - t_loop
                                      + last[kind] > args.seconds):
                break
            traced = bool(args.trace) and cycle % 2 == 1
            run(i, kind, cycle, args.seed, traced, False)
            last[kind] = ops[-1]["wall_s"]
            i += 1

        rows = tracer.per_op()
        for op in ops:
            if op["traced"]:
                op["row"] = rows[op["index"]]
                op["wall_s"] = op["row"][w.root(op["kind"]) + ".total"]
        if args.trace:
            tracer.write_chrome(OUT / f"trace-{args.workload}.json")
        result = {
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "mode": mode,
            "setup_s": setup_s, "setup_ref_s": setup_ref, "stages": stages.as_dict(),
            "rss_setup_mb": rss_setup,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "item": w.item, "interference": w.interference,
            "memory_metric": w.memory_metric,
            "items": {kind: w.items(kind) for kind in kinds},
            "roots": {kind: w.root(kind) for kind in kinds},
            "static": w.static(), "ops": ops,
            "versions": {"python": platform.python_version(),
                         "numpy": np.__version__,
                         "blas": blas_version(np)},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
