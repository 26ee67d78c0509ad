"""Smoke test of the benchmark itself (not part of tier-1):

    python3 -m pytest bench/test_bench.py -q

Runs every workload in ``--smoke`` mode (2 ops per kind at reduced sizes,
well under a minute in total), with and without tracing, through the very
command ``BENCHMARK.json`` names, and checks the result against the
contract: every declared metric emitted under its declared unit, names and
counts within the limits, no failed operation.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def smoke():
    """{(workload, trace): result object of the last stdout line}."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--smoke", "--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = json.loads(
                proc.stdout.splitlines()[-1])
    return results


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert len(SPEC["command"]) <= 32
    assert not any(part.startswith("/") or ".." in part
                   for part in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    names = [x["name"] for x in SPEC["workloads"] + metrics]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_every_declared_metric_is_emitted(smoke):
    for (workload, trace), result in smoke.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, (workload, trace)
        assert result["failed"] == 0 and result["attempted"] >= 1
        declared = SPEC["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if not trace:      # end-to-end metrics are never 0
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_is_entered_by_some_workload(smoke):
    """A per-layer metric no workload ever moves would be dead weight."""
    entered = {name for (_, trace), result in smoke.items() if trace
               for name, m in result["metrics"].items() if m["value"]}
    # shed_share is legitimately 0 at smoke sizes (nothing overloads)
    missing = {m["name"] for m in SPEC["per_layer"]} - entered
    assert missing <= {"serve.router.shed_share"}, missing


def test_layers_stay_on_their_own_workloads(smoke):
    """The bypass predictions: no deconv on the HEP net, no nn layer in a
    simulator run, no fast_core in the event-loop workload."""
    def value(workload, metric):
        return smoke[workload, 1]["metrics"][metric]["value"]

    assert value("hep_infer", "nn.deconv.fwd_s") == 0
    assert value("climate_infer", "nn.deconv.fwd_s") > 0
    assert value("hep_infer", "nn.conv.bwd_s") == 0
    assert value("hep_train", "nn.conv.bwd_s") > 0
    assert value("hybrid_train", "optim.adam.step_s") == 0
    for sim in ("sim_array", "sim_event"):
        assert value(sim, "nn.conv.fwd_s") == 0
    assert value("sim_event", "serve.fast_core.flat.run_s") == 0
    assert value("sim_array", "serve.router.submit_s") == 0
    for workload in ("hep_infer", "climate_infer", "hep_train"):
        assert value(workload, "bench.trace_coverage") >= 0.9


def test_traced_run_writes_a_chrome_trace(smoke):
    for workload in WORKLOADS:
        trace = json.loads(
            (BENCH / "out" / f"trace-{workload}.json").read_text())
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"op", "self_us", "parent"} <= set(events[0]["args"])
        # self time = span minus children: never exceeds the span
        assert all(e["args"]["self_us"] <= e["dur"] + 1e-6 for e in events)


def test_golden_differences():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import differences

    want = {"logits": [[1.0, -2.0]], "digest": "ab", "n": 3}
    assert differences({"logits": [[1.00005, -2.0]], "digest": "ab",
                        "n": 3}, want, 1e-4) == []
    assert len(differences({"logits": [[1.01, -2.0]], "digest": "cd",
                            "n": 4}, want, 1e-4)) == 3
    assert differences({"logits": [[1.0]], "digest": "ab", "n": 3},
                       want, 1e-4) != []
    # exact mode (the simulator records): no float slack at all
    assert differences({"x": 1.0 + 1e-12}, {"x": 1.0}, 0.0) != []


def _results(path, items_per_s, failed=0):
    runs = [{"workload": "hep_infer", "trace": 0, "seed": i,
             "attempted": 10, "failed": failed,
             "metrics": {"items_per_s": {"value": v, "unit": "items/s"}}}
            for i, v in enumerate(items_per_s)]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path):
    def compare(b_values, **kw):
        a = _results(tmp_path / "a.json", [2.00, 2.01, 2.02, 2.03])
        b = _results(tmp_path / "b.json", b_values, **kw)
        return subprocess.run(
            [sys.executable, str(BENCH / "compare.py"), a, b],
            stdout=subprocess.PIPE, text=True)

    bound = {m["name"]: m for m in SPEC["end_to_end"]}["items_per_s"]["bound"]
    same = compare([2.01, 2.00, 2.03, 2.02])
    assert same.returncode == 0 and f" ok (bound {bound:.0%})" in same.stdout
    assert "base A" in same.stdout
    slower = compare([v * (1 - bound - 0.05) for v in (2.0, 2.01, 2.02, 2.03)])
    assert slower.returncode == 1 and "regressed" in slower.stdout
    noisy = compare([1.5, 1.9, 2.1, 2.6])
    assert noisy.returncode == 0 and "unresolved" in noisy.stdout
    broken = compare([2.01, 2.00, 2.03, 2.02], failed=1)
    assert broken.returncode == 1 and "failed_share" in broken.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths`` there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "hep_infer", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
