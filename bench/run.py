"""Certified-compile benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from a source checkout (``src/twolevel`` beside this directory); the
package is imported from source, nothing is installed.  Every output is
checked independently (``check.py``).  With ``--trace 0`` the last line of
stdout carries the end-to-end metrics, with ``--trace 1`` the per-layer
ones from a traced run.  The lines before it give every metric with its
unit, the environment and the inputs; a full record goes to
``bench/.work/results/``.  See ``bench/README.md`` for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

#: Set-up samples for a library workload: this many set-up-only processes
#: plus the workload process itself; set-up time is their median.
SETUP_ONLY_SAMPLES = 4
#: Time of ``workloads.probe`` on the machine the benchmark was tuned on, in
#: its fast spells.  Times are reported at this machine speed.
REFERENCE_PROBE_S = 1.75e-3
#: Probes slower than this many times the run's median probe are stalls,
#: left out of the mean probe time.
STALL_FACTOR = 2.0
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
RUN_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twolevel").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    # One thread per workload process, and never the user's net cache.
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["TWOLEVEL_CACHE_DIR"] = str(WORK / "cache-unused")
    return env


def environment(digest: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "blas_threads": {v: "1" for v in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_digest": digest,
    }


def spawn_until_ready(cmd: list[str], env: dict, deadline: float):
    """Start ``cmd``; returns (process, seconds from spawn to its ``ready`` line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"{cmd[2]} process ended before set-up finished (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> None:
    """Wait for ``proc``; past the deadline, kill it with any children it started."""
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("workload process timed out") from None


def ensure_net(env: dict, net_len: int, digest: str, deadline: float) -> Path:
    """Net file for this source tree, built once per checkout outside any timing."""
    net_dir = WORK / "net"
    path = net_dir / f"net-L{net_len}-{digest}.npz"
    if path.exists():
        return path
    net_dir.mkdir(parents=True, exist_ok=True)
    for stale in net_dir.glob(f"net-L{net_len}-*.npz"):
        stale.unlink()
    tmp = net_dir / f"tmp-{os.getpid()}.npz"
    proc = subprocess.Popen([sys.executable, str(Path(workloads.__file__)), "build-net",
                             "--net", str(tmp), "--net-len", str(net_len)], env=env,
                            start_new_session=True)
    finish(proc, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"net build failed (exit {proc.returncode})")
    os.replace(tmp, path)
    return path


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with >= 10 samples beyond it, never below the median.

    With fewer than 2 * 10 + 1 samples no such percentile lies above the
    median, and the maximum is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 2 * TAIL_BEYOND + 1:
        k = n - TAIL_BEYOND - 1
        return xs[k], f"p{100.0 * (k + 1) / n:.2f}, {TAIL_BEYOND} of {n} samples beyond it"
    return xs[-1], f"max of {n} samples (fewer than {2 * TAIL_BEYOND + 1})"


def end_to_end(record: dict, setup: list[float]) -> tuple[dict, dict]:
    """(metrics, notes) from a workload record.

    The loop cycles through the input pool; an input's latency is the mean
    of its requests.  Throughput and percentiles are over those per-input
    times.  Every time, set-up included, is then scaled by
    REFERENCE_PROBE_S over the mean time of the reference probe in this
    run.  Request and probe times both grow with the share of the run the
    machine spends in its slow spells, so the ratio takes most of them out
    (see README.md).  A stall of a few ms makes a 2 ms probe several times
    slower, so a handful of stalls would drive the mean of a few hundred
    probes; probes slower than STALL_FACTOR times the median are left out.
    """
    samples = record["samples"]
    cut = STALL_FACTOR * statistics.median(record["probes"])
    kept = [p for p in record["probes"] if p <= cut]
    speed = REFERENCE_PROBE_S / statistics.fmean(kept)
    per_input = [statistics.fmean(s) * speed for s in samples]
    tail_s, tail_note = tail(per_input)
    letters = record["letters"]
    metrics = {
        "throughput_per_s": (len(per_input) / sum(per_input), "1/s"),
        "latency_p50_s": (statistics.median(per_input), "s"),
        "latency_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setup) * speed, "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "letters_per_unitary": (
            sum(letters) / len(letters) if None not in letters else None, "letters"),
    }
    passes = (f"mean of {min(map(len, samples))}-{max(map(len, samples))} requests"
              f" for each of {len(samples)} inputs, times {speed:.4f} for machine speed"
              f" from {len(kept)} of {len(record['probes'])} probes")
    raw = [statistics.fmean(s) for s in samples]
    notes = {
        "throughput_per_s": f"{passes}; unscaled {len(raw) / sum(raw):.6g}/s",
        "latency_p50_s": f"median over inputs, {passes}; unscaled {statistics.median(raw):.6g} s",
        "latency_tail_s": tail_note,
        "setup_s": f"median of {len(setup)}, unscaled: " + " ".join(f"{s:.4f}" for s in setup),
        "letters_per_unitary": f"mean over the {len(letters)} inputs of the pool",
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and net, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (SRC / "twolevel" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'twolevel'}", file=sys.stderr)
        return 2

    wl = workloads.get_workload(args.workload, args.tiny)
    net_len = workloads.TINY_NET_LEN if args.tiny else workloads.NET_LEN
    digest = source_digest()
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)
    script = str(Path(workloads.__file__))
    out_file = WORK / f"record-{os.getpid()}.json"
    cmd = [sys.executable, script, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(WORK),
           "--out", str(out_file)] + (["--tiny"] if args.tiny else [])

    setup: list[float] = []
    if wl.kind == "library":
        net = ensure_net(env, net_len, digest, deadline)
        cmd += ["--net", str(net)]
        for _ in range(0 if args.trace else SETUP_ONLY_SAMPLES):
            proc, ready = spawn_until_ready([sys.executable, script, "setup", "--net", str(net)],
                                            env, deadline)
            finish(proc, deadline)
            setup.append(ready)
    proc, ready = spawn_until_ready(cmd, env, deadline)
    finish(proc, deadline)
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(out_file.read_text())
    out_file.unlink()
    setup = record["cold_s"] if wl.kind == "cli" else setup + [ready]

    inputs = {"workload": args.workload, "kind": wl.kind, "dim": wl.dim, "eps": wl.eps,
              "pure": wl.pure, "pool": wl.pool, "net_len": net_len, "sk_depth": workloads.SK_DEPTH,
              "seed": args.seed, "input_seed": [args.seed, sorted(workloads.WORKLOADS).index(args.workload)],
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}
    env_info = {**environment(digest), **record["versions"]}
    if args.trace:
        metrics, notes = record["layers"], {}
        for name in record["unmeasured"]:
            print(f"warning: layer {name} is unmeasured; its metrics read null", file=sys.stderr)
    else:
        metrics, notes = end_to_end(record, setup)
    attempted, failed = record["attempted"], record["failed"]
    correct = failed == 0

    print(f"workload {args.workload}")
    print("inputs " + json.dumps(inputs))
    print("environment " + json.dumps(env_info))
    for name, m in metrics.items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {value:>14s} {m['unit']}{note}")
    print(f"  {'fail_rate':30s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} failed)")
    for problem in record["problems"]:
        print(f"  failure: {problem}")

    full = {"inputs": inputs, "environment": env_info, "metrics": metrics, "notes": notes,
            "attempted": attempted, "failed": failed, "problems": record["problems"],
            "samples": record.get("samples"), "probes": record["probes"], "time": time.time()}
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
