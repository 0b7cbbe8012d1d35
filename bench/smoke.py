"""Smoke test of the benchmark itself, at tiny sizes: ``python3 bench/smoke.py``.

Checks that every workload, untraced and traced, prints every metric that
BENCHMARK.json names with its unit; that corrupting one letter of a result,
or the reported error or bound, makes the independent check fail; that a
missing trace target reads as unmeasured (None), not zero; and that the
benchmark fails without printing a result when the package is absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stdout)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: metrics {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{workload}: {name} = {m['value']}"
                if key == "end_to_end":
                    assert m["value"] > 0, f"{workload}: {name} = {m['value']}"
            print(f"ok  {workload} trace {trace}: {len(got)} metrics with units")


def check_corruption() -> None:
    from twolevel import compiler, config, sk

    gate_set = config.default_gate_set()
    net = sk.build_net(gate_set, workloads.TINY_NET_LEN)
    wl = workloads.get_workload("small_loose", tiny=True)
    for pure in (False, True):
        u = workloads.make_inputs(0, "small_loose", wl)[0]
        run = compiler.compile_pure if pure else compiler.compile
        obj = run(u, 0.1, gate_set, net).to_json()
        assert check.check_result(u, obj, 0.1, pure)[1] == "", "intact result must pass"

        bad = copy.deepcopy(obj)
        k = len(bad["word"]) // 2
        bad["word"][k]["label"] = "ry" if bad["word"][k]["label"] == "rx" else "rx"
        assert check.check_result(u, bad, 0.1, pure)[1], "swapped letter must fail"

        bad = copy.deepcopy(obj)
        bad["word"][k]["inv"] = not bad["word"][k]["inv"]
        assert check.check_result(u, bad, 0.1, pure)[1], "inverted letter must fail"

        bad = copy.deepcopy(obj)
        bad["achieved_error"] = 0.0
        assert check.check_result(u, bad, 0.1, pure)[1], "wrong reported error must fail"

        bad = copy.deepcopy(obj)
        bad["certified_bound"] = 0.2
        assert check.check_result(u, bad, 0.1, pure)[1], "bound above eps must fail"
    print("ok  corrupted results fail the independent check")


def check_unmeasured() -> None:
    from twolevel import compiler

    saved = compiler.lift_word
    del compiler.lift_word
    try:
        tracer = spans.Tracer()
        tracer.install({"compiler", "sk"})
        tracer.uninstall()
    finally:
        compiler.lift_word = saved
    assert tracer.unmeasured == {"compiler.lift"}, tracer.unmeasured
    empty = spans.summarize([])
    extra = {"bound_use": 1.0, "achieved_over_bound": 1.0, "result_bytes": 1.0, "overhead_pct": 1.0}
    layers = spans.layer_metrics(empty, empty, tracer.unmeasured, extra)
    assert layers["compiler.lift_s"]["value"] is None, layers["compiler.lift_s"]
    assert layers["sk.nearest_s"]["value"] == 0.0, layers["sk.nearest_s"]
    print("ok  a missing trace target reads as unmeasured")


def check_bare_dir() -> None:
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = run_bench("small_loose", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "must fail without the package source"
    assert '"metrics"' not in proc.stdout, "must not print a result without the package source"
    print("ok  fails without printing a result when the package is absent")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_corruption()
    check_unmeasured()
    check_bare_dir()
    check_metrics(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
