"""Workload definitions and the workload process that runs one of them.

``run.py`` starts this file as a child process (``python3 bench/workloads.py
MODE ...``) with ``src`` on ``PYTHONPATH``; the modes are

* ``build-net``: build and save the epsilon net the library workloads load;
* ``setup``: import the package and load the net, print ``ready``, exit;
* ``run``: set up as above, print ``ready``, run the closed loop, write a
  JSON record to ``--out``.

Each workload is one caller in a closed loop: the next request starts when
the previous one has finished and its output has been checked.  Inputs are
Haar unitaries drawn from the seed; the package sees only the matrices.
Only the requests are timed; the independent check runs between them.
Workloads are described in README.md and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: Word-length bound of the net every workload uses (91,128 entries).  Length
#: 14 is excluded: its build needs several GB of memory.
NET_LEN = 12
SK_DEPTH = 5
#: Smaller net for ``--tiny`` runs (the smoke test).
TINY_NET_LEN = 8

#: Cold CLI invocations per run; their median wall time is cli_cache's set-up.
COLD_SAMPLES = 3
#: One run of the reference probe per this much timed work.
PROBE_EVERY_S = 0.1
#: Most probes run back to back after one long request.
PROBE_BURST = 20
#: Stop starting passes after this much wall time, whatever ``--seconds`` says.
WALL_CAP_S = 120.0


@dataclass(frozen=True)
class Workload:
    kind: str  # "library" or "cli"
    dim: int
    eps: float
    pure: bool
    pool: int  # distinct inputs, each requested at least once per run


#: Pool sizes keep the seed-to-seed spread of per-pool means small.
WORKLOADS = {
    "small_loose": Workload("library", 3, 0.1, False, 512),
    "wide_loose": Workload("library", 16, 0.1, False, 8),
    "pure_tight": Workload("library", 4, 1e-3, True, 32),
    "cli_cache": Workload("cli", 8, 0.1, False, 8),
}

#: Same loops at sizes that finish in seconds, for the smoke test.
TINY = {
    "small_loose": dict(dim=2, pool=4),
    "wide_loose": dict(dim=4, pool=2),
    "pure_tight": dict(dim=3, eps=1e-2, pool=2),
    "cli_cache": dict(dim=3, pool=2),
}


def get_workload(name: str, tiny: bool) -> Workload:
    wl = WORKLOADS[name]
    if tiny:
        wl = Workload(**{**wl.__dict__, **TINY[name]})
    return wl


def make_inputs(seed: int, name: str, wl: Workload):
    """The workload's input pool: Haar-random U(dim) from (seed, workload)."""
    import numpy as np

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    pool = []
    for _ in range(wl.pool):
        z = (rng.standard_normal((wl.dim, wl.dim))
             + 1.0j * rng.standard_normal((wl.dim, wl.dim))) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        pool.append(q * (d / np.abs(d))[None, :])
    return pool


def matrix_json(u) -> dict:
    return {"dim": int(u.shape[0]),
            "entries": [[float(z.real), float(z.imag)] for z in u.reshape(-1)]}


def probe() -> float:
    """Seconds taken by a fixed piece of reference work (about 2 ms).

    The work mixes interpreter bytecode and small numpy calls, as the
    compiler does, and uses nothing of the package, so it measures how
    fast the machine runs this process at the time.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for k in range(20000):
        acc += k * k
    m = np.eye(2, dtype=np.complex128)
    for _ in range(400):
        m = m @ m.conj().T
    np.linalg.svd(np.ones((8, 8)))
    return time.perf_counter() - t0


class Loop:
    """Closed-loop bookkeeping shared by the library and CLI workloads."""

    def __init__(self, wl: Workload):
        from check import check_result

        self.wl = wl
        self.check_result = check_result
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.letters: dict[int, int] = {}
        self.bound_use: dict[int, float] = {}
        self.achieved_over_bound: dict[int, float] = {}
        self.probes: list[float] = []

    def fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(f"input {i}: {problem}")

    def record(self, i: int, u, obj) -> float | None:
        """Check one output; returns the independent error, or None if it failed."""
        err, problem = self.check_result(u, obj, self.wl.eps, self.wl.pure)
        if not problem and self.letters.setdefault(i, obj["word_length"]) != obj["word_length"]:
            problem = f"word length {obj['word_length']} != {self.letters[i]} on an earlier pass"
        if problem:
            self.fail(i, problem)
            return None
        certified = float(obj["certified_bound"])
        self.bound_use[i] = certified / self.wl.eps
        self.achieved_over_bound[i] = float(obj["achieved_error"]) / certified if certified else 0.0
        return err

    def passes(self, pool, budget: float, request, t_start: float, paired: bool = False):
        """Cycle through ``pool`` until ``budget`` seconds of requests are timed.

        Every input is requested at least once.  ``request(i, u, traced)``
        runs and times one request, checks its output and returns its
        latency.  Between requests, ``probe`` is timed once per
        PROBE_EVERY_S of timed work since the last probe, so the probes
        sample the machine's speed evenly over the timed work, long
        requests included.  Returns the latencies per input,
        untraced.  With ``paired``, each turn requests the input twice, once
        traced and once not, in alternating order, and the traced latencies
        per input are returned as well.
        """
        modes = (False, True) if paired else (False,)
        samples = {mode: [[] for _ in pool] for mode in modes}
        timed, made, since_probe = 0.0, 0, PROBE_EVERY_S
        while made < len(pool) or (timed < budget and time.monotonic() - t_start < WALL_CAP_S):
            if since_probe >= PROBE_EVERY_S:
                for _ in range(min(int(since_probe / PROBE_EVERY_S), PROBE_BURST)):
                    self.probes.append(probe())
                since_probe = 0.0
            i = made % len(pool)
            for traced in modes if made % 2 == 0 else modes[::-1]:
                self.attempted += 1
                dt = request(i, pool[i], traced)
                samples[traced][i].append(dt)
                timed += dt
                since_probe += dt
            made += 1
        self.probes.append(probe())
        return (samples[False], samples[True]) if paired else samples[False]

    def record_json(self) -> dict:
        def mean(d):
            return sum(d.values()) / len(d) if d else 0.0

        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "letters": [self.letters.get(i) for i in range(self.wl.pool)],
            "bound_use": mean(self.bound_use),
            "achieved_over_bound": mean(self.achieved_over_bound),
            "probes": self.probes,
        }


def _overhead_pct(untraced: list[list[float]], traced: list[list[float]]) -> float:
    """Extra time of the traced requests over the untraced ones of the same inputs."""
    return 100.0 * (sum(map(sum, traced)) / sum(map(sum, untraced)) - 1.0)


def run_library(args, wl: Workload, t_start: float) -> dict:
    from twolevel import compiler, config, sk

    from spans import Tracer, layer_metrics, summarize

    tracer = Tracer()
    if args.trace:
        tracer.install({"compiler", "sk"})
        tracer.request = "setup"
    net = sk.BasicNet.load(args.net)
    gate_set = config.default_gate_set()
    tracer.uninstall()
    print("ready", flush=True)

    pool = make_inputs(args.seed, args.workload, wl)
    fn_name = "compile_pure" if wl.pure else "compile"
    loop = Loop(wl)

    def request(i, u, traced):
        if traced:
            tracer.install({"compiler", "sk"})
            tracer.request = loop.attempted
        t0 = time.perf_counter()
        try:
            result = getattr(compiler, fn_name)(u, wl.eps, gate_set, net, depth=SK_DEPTH)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failed compile counts against fail_rate
            dt = time.perf_counter() - t0
            loop.fail(i, f"{type(exc).__name__}: {exc}")
            return dt
        finally:
            tracer.uninstall()
        loop.record(i, u, result.to_json())
        return dt

    out = {"versions": versions()}
    if not args.trace:
        out["samples"] = loop.passes(pool, args.seconds, request, t_start)
    else:
        untraced, traced = loop.passes(pool, args.seconds, request, t_start, paired=True)
        rec = loop.record_json()
        extra = {"bound_use": rec["bound_use"], "achieved_over_bound": rec["achieved_over_bound"],
                 "result_bytes": 0.0, "overhead_pct": _overhead_pct(untraced, traced)}
        timed = summarize(tracer.spans, keep=lambda r: isinstance(r, int))
        out["layers"] = layer_metrics(timed, summarize(tracer.spans), tracer.unmeasured, extra)
        out["unmeasured"] = sorted(tracer.unmeasured)
        write_spans(args, tracer.dump())
    out.update(loop.record_json())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_cli(args, wl: Workload, t_start: float) -> dict:
    """One request is a ``twolevel compile`` process; ``twolevel verify`` checks its output.

    The first output for each input is verified by a ``twolevel verify``
    process; later outputs for the same input must be byte-identical to it.
    Verification and the independent check run outside the timed region.
    """
    from spans import layer_metrics, summarize

    net_len = TINY_NET_LEN if args.tiny else NET_LEN
    root = Path(args.work) / "cli"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    pool = make_inputs(args.seed, args.workload, wl)
    for i, u in enumerate(pool):
        (root / f"u{i}.json").write_text(json.dumps(matrix_json(u)))
    loop = Loop(wl)
    env = dict(os.environ)
    spans: list = []
    unmeasured: set = set()
    result_bytes: list[int] = []
    first_output: dict[int, bytes] = {}
    span_file = root / "spans.json"
    result_file = root / "result.json"

    def request(i, cache, traced, request_id):
        env["TWOLEVEL_CACHE_DIR"] = str(cache)
        cmd = [sys.executable]
        cmd += [str(BENCH_DIR / "cli_launcher.py"), str(span_file)] if traced else ["-m", "twolevel.cli"]
        cmd += ["compile", str(root / f"u{i}.json"), "--epsilon", repr(wl.eps),
                "--net-max-len", str(net_len), "--sk-depth", str(SK_DEPTH)]
        t0 = time.perf_counter()
        comp = subprocess.run(cmd, env=env, capture_output=True, timeout=90)
        dt = time.perf_counter() - t0

        if traced:
            dump = json.loads(span_file.read_text())
            base = len(spans)
            spans.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, request_id, s[5]]
                         for s in dump["spans"])
            unmeasured.update(dump["unmeasured"])
        result_bytes.append(len(comp.stdout))
        if comp.returncode != 0:
            loop.fail(i, f"compile exit {comp.returncode}: {comp.stderr.decode()[-300:]}")
            return dt
        if i in first_output:
            if comp.stdout != first_output[i]:
                loop.fail(i, "compile output differs from the first output for this input")
            return dt
        try:
            obj = json.loads(comp.stdout)
        except ValueError as exc:
            loop.fail(i, f"compile stdout is not JSON: {exc}")
            return dt
        err = loop.record(i, pool[i], obj)
        if err is None:
            return dt
        first_output[i] = comp.stdout
        result_file.write_bytes(comp.stdout)
        ver = subprocess.run([sys.executable, "-m", "twolevel.cli", "verify",
                              str(root / f"u{i}.json"), str(result_file)],
                             env=env, capture_output=True, timeout=90)
        try:
            reported = json.loads(ver.stdout)["achieved_error"] if ver.returncode == 0 else None
        except (ValueError, KeyError):
            reported = None
        if reported is None or not abs(reported - err) <= 1e-8:
            loop.fail(i, f"verify exit {ver.returncode} reported {reported}, independent {err}")
        return dt

    # Set-up: the first compile on a fresh cache builds and writes the net.
    cold = []
    for k in range(1 if args.trace else COLD_SAMPLES):
        cache = root / f"cache{k}"
        loop.attempted += 1
        cold.append(request(k % wl.pool, cache, args.trace, "setup"))
    print("ready", flush=True)
    result_bytes.clear()

    out = {"versions": versions(), "cold_s": cold}

    def warm(i, u, traced):
        return request(i, cache, traced, loop.attempted if traced else None)

    if not args.trace:
        out["samples"] = loop.passes(pool, args.seconds, warm, t_start)
    else:
        untraced, traced = loop.passes(pool, args.seconds, warm, t_start, paired=True)
        rec = loop.record_json()
        extra = {"bound_use": rec["bound_use"], "achieved_over_bound": rec["achieved_over_bound"],
                 "result_bytes": sum(result_bytes) / len(result_bytes),
                 "overhead_pct": _overhead_pct(untraced, traced)}
        timed = summarize(spans, keep=lambda r: isinstance(r, int))
        out["layers"] = layer_metrics(timed, summarize(spans), unmeasured, extra)
        out["unmeasured"] = sorted(unmeasured)
        write_spans(args, {"spans": spans, "unmeasured": sorted(unmeasured)})
    out.update(loop.record_json())
    # Peak over every CLI child, cold net builds included.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    shutil.rmtree(root, ignore_errors=True)
    return out


def versions() -> dict:
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def write_spans(args, dump: dict) -> None:
    path = Path(args.work) / "traces" / f"{args.workload}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dump))


def main(argv=None) -> int:
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("build-net", "setup", "run"))
    parser.add_argument("--net", help="net file (.npz) to build or load")
    parser.add_argument("--net-len", type=int, default=NET_LEN)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", help="scratch directory owned by the benchmark")
    parser.add_argument("--out", help="where the run mode writes its JSON record")
    args = parser.parse_args(argv)

    if args.mode == "build-net":
        from twolevel import config, sk

        sk.build_net(config.default_gate_set(), args.net_len).save(args.net)
        return 0
    if args.mode == "setup":
        from twolevel import config, sk  # noqa: F401  (import is part of set-up)

        sk.BasicNet.load(args.net)
        print("ready", flush=True)
        return 0
    wl = get_workload(args.workload, args.tiny)
    run = run_cli if wl.kind == "cli" else run_library
    record = run(args, wl, t_start)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
