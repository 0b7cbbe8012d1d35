"""In-memory span tracer installed from outside the package under test.

``Tracer.install`` replaces module attributes that the compile pipeline
resolves at call time with timing wrappers, so no file of the package
changes.  A wrapped attribute that no longer exists is reported as
unmeasured (with a warning) instead of aborting the run; every metric
that depends on it then reads ``None``, never zero.

Spans are tuples ``(name, start, end, parent, request, count)``; ``parent``
is the index of the enclosing span (-1 at the top) and ``count`` a size the
layer produced (letters, factors, net entries).
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: (span name, module, owner path inside the module, attribute, count of the call).
#: The count gets (args, result).
LAYERS = [
    ("compile", "compiler", "", "compile", None),
    ("compile", "compiler", "", "compile_pure", None),
    ("givens.factor", "compiler", "", "factor", lambda a, r: len(r.factors)),
    ("compiler.specialize", "compiler", "", "_specialize_blocks", None),
    ("compiler.sk_blocks", "compiler", "", "_sk_blocks", lambda a, r: len(a[0])),
    ("sk.approx", "compiler", "", "sk_approximate_with_error", lambda a, r: len(r[0])),
    ("compiler.lift", "compiler", "", "lift_word", None),
    ("compiler.verify", "compiler", "", "verify", lambda a, r: len(a[1].word)),
    ("diagonal.synth", "compiler", "", "synth_special_diagonal", None),
    ("sk.nearest", "sk", "BasicNet", "nearest", None),
    ("sk.commutator", "sk", "", "_balanced_pair", None),
    ("sk.recheck", "sk", "", "evaluate_word", None),
    ("sk.build_net", "sk", "", "build_net", lambda a, r: len(r)),
    ("sk.net_save", "sk", "BasicNet", "save", None),
    ("sk.net_load", "sk", "BasicNet", "load", lambda a, r: len(r)),
    ("cli.emit", "cli", "", "_emit", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self.unmeasured: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []
        self._missing: set[str] = set()

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself around a call it makes."""
        sid = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, 0)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float, count: int) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.request, count)

    def _wrap(self, fn, name: str, count):
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open()
            t0 = time.perf_counter()
            n = 0
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, out)
                return out
            finally:
                tracer._close(sid, name, t0, n)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: set[str]) -> None:
        """Wrap every layer of ``LAYERS`` that lives in one of ``modules``."""
        import importlib

        wanted, installed = set(), set()
        for name, mod, owner_path, attr, count in LAYERS:
            if mod not in modules:
                continue
            wanted.add(name)
            where = f"twolevel.{mod}.{owner_path + '.' if owner_path else ''}{attr}"
            try:
                owner = importlib.import_module(f"twolevel.{mod}")
                if owner_path:
                    owner = getattr(owner, owner_path)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                if where not in self._missing:
                    self._missing.add(where)
                    print(f"warning: trace: {where} not found", file=sys.stderr)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, count))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, count))
            else:
                new = self._wrap(raw, name, count)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            installed.add(name)
        # A layer wrapped under several attributes (compile, compile_pure) is
        # measured if any of them exists.
        for name in sorted(wanted - installed - self.unmeasured):
            print(f"warning: trace: layer {name} is unmeasured", file=sys.stderr)
        self.unmeasured |= wanted - installed

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def dump(self) -> dict:
        return {"spans": [list(s) for s in self.spans], "unmeasured": sorted(self.unmeasured)}


def summarize(spans, keep=lambda request: True) -> dict:
    """Aggregate raw spans (list order = id order) into per-name totals.

    Only spans whose request id passes ``keep`` are counted.  Returns
    ``{"calls", "total", "self", "items"}`` dicts keyed by span name, plus
    ``"cover"``: the summed self time of every span below a ``compile``
    span (itself included) over the summed ``compile`` durations, which is 1
    when child spans account for the whole compile span.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s is not None and s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls, total, self_t, items = (defaultdict(int), defaultdict(float),
                                   defaultdict(float), defaultdict(int))
    compile_root = [-1] * len(spans)
    cover_self = 0.0
    compile_total = 0.0
    for i, s in enumerate(spans):
        if s is None or not keep(s[4]):
            continue
        name, t0, t1, parent = s[0], s[1], s[2], s[3]
        dur = t1 - t0
        calls[name] += 1
        total[name] += dur
        self_t[name] += dur - child[i]
        items[name] += s[5]
        if name == "compile":
            compile_root[i] = i
            compile_total += dur
        elif parent >= 0:
            compile_root[i] = compile_root[parent]
        if compile_root[i] >= 0:
            cover_self += dur - child[i]
    return {
        "calls": calls, "total": total, "self": self_t, "items": items,
        "cover": cover_self / compile_total if compile_total else None,
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


#: Per-layer metrics: (name, unit, layers it reads, value).  ``t`` summarizes
#: the timed requests, ``a`` every span of the run (set-up included), ``n`` is
#: the number of timed compile spans and ``x`` holds values measured outside
#: the spans.  Times and counts are per compiled unitary; a layer the
#: workload never enters reads 0, a layer that could not be wrapped None.
LAYER_METRICS = [
    ("compiler.compile_s", "s", ["compile"], lambda t, a, n, x: _ratio(t["total"]["compile"], n)),
    ("compiler.self_s", "s", ["compile"], lambda t, a, n, x: _ratio(t["self"]["compile"], n)),
    ("givens.factor_s", "s", ["givens.factor"],
     lambda t, a, n, x: _ratio(t["total"]["givens.factor"], n)),
    ("givens.factors", "count", ["givens.factor"],
     lambda t, a, n, x: _ratio(t["items"]["givens.factor"], n)),
    ("compiler.specialize_s", "s", ["compiler.specialize"],
     lambda t, a, n, x: _ratio(t["total"]["compiler.specialize"], n)),
    ("compiler.sk_blocks_self_s", "s", ["compiler.sk_blocks"],
     lambda t, a, n, x: _ratio(t["self"]["compiler.sk_blocks"], n)),
    ("compiler.blocks_skipped", "count", ["compiler.sk_blocks", "sk.approx"],
     lambda t, a, n, x: _ratio(t["items"]["compiler.sk_blocks"] - t["calls"]["sk.approx"], n)),
    ("sk.approx_s", "s", ["sk.approx"], lambda t, a, n, x: _ratio(t["total"]["sk.approx"], n)),
    ("sk.approx_calls", "count", ["sk.approx"],
     lambda t, a, n, x: _ratio(t["calls"]["sk.approx"], n)),
    ("sk.recursion_self_s", "s", ["sk.approx"],
     lambda t, a, n, x: _ratio(t["self"]["sk.approx"], n)),
    ("sk.lookups_per_block", "count", ["sk.approx", "sk.nearest"],
     lambda t, a, n, x: _ratio(t["calls"]["sk.nearest"], t["calls"]["sk.approx"])),
    ("sk.letters_per_block", "letters", ["sk.approx"],
     lambda t, a, n, x: _ratio(t["items"]["sk.approx"], t["calls"]["sk.approx"])),
    ("sk.nearest_s", "s", ["sk.nearest"], lambda t, a, n, x: _ratio(t["total"]["sk.nearest"], n)),
    ("sk.nearest_calls", "count", ["sk.nearest"],
     lambda t, a, n, x: _ratio(t["calls"]["sk.nearest"], n)),
    ("sk.nearest_us", "us", ["sk.nearest"],
     lambda t, a, n, x: 1e6 * _ratio(t["total"]["sk.nearest"], t["calls"]["sk.nearest"])),
    ("sk.commutator_s", "s", ["sk.commutator"],
     lambda t, a, n, x: _ratio(t["total"]["sk.commutator"], n)),
    ("sk.commutator_calls", "count", ["sk.commutator"],
     lambda t, a, n, x: _ratio(t["calls"]["sk.commutator"], n)),
    ("sk.recheck_s", "s", ["sk.recheck"], lambda t, a, n, x: _ratio(t["total"]["sk.recheck"], n)),
    ("compiler.lift_s", "s", ["compiler.lift"],
     lambda t, a, n, x: _ratio(t["total"]["compiler.lift"], n)),
    ("compiler.verify_s", "s", ["compiler.verify"],
     lambda t, a, n, x: _ratio(t["total"]["compiler.verify"], n)),
    ("compiler.verify_letters_per_s", "letters/s", ["compiler.verify"],
     lambda t, a, n, x: _ratio(t["items"]["compiler.verify"], t["total"]["compiler.verify"])),
    ("diagonal.synth_s", "s", ["diagonal.synth"],
     lambda t, a, n, x: _ratio(t["total"]["diagonal.synth"], n)),
    ("compiler.bound_use", "ratio", [], lambda t, a, n, x: x["bound_use"]),
    ("compiler.achieved_over_bound", "ratio", [], lambda t, a, n, x: x["achieved_over_bound"]),
    ("sk.build_net_s", "s", ["sk.build_net"],
     lambda t, a, n, x: _ratio(a["total"]["sk.build_net"], a["calls"]["sk.build_net"])),
    ("sk.net_save_s", "s", ["sk.net_save"],
     lambda t, a, n, x: _ratio(a["total"]["sk.net_save"], a["calls"]["sk.net_save"])),
    ("sk.net_load_s", "s", ["sk.net_load"],
     lambda t, a, n, x: _ratio(a["total"]["sk.net_load"], a["calls"]["sk.net_load"])),
    ("sk.net_entries", "count", ["sk.net_load", "sk.build_net"],
     lambda t, a, n, x: _ratio(a["items"]["sk.net_load"] + a["items"]["sk.build_net"],
                               a["calls"]["sk.net_load"] + a["calls"]["sk.build_net"])),
    ("cli.import_s", "s", [], lambda t, a, n, x: _ratio(t["total"]["cli.import"], n)),
    ("cli.emit_s", "s", ["cli.emit"], lambda t, a, n, x: _ratio(t["total"]["cli.emit"], n)),
    ("cli.result_bytes", "bytes", [], lambda t, a, n, x: x["result_bytes"]),
    ("cli.cache_hit_ratio", "ratio", ["sk.build_net"],
     lambda t, a, n, x: _ratio(t["calls"]["cli.main"] - t["calls"]["sk.build_net"],
                               t["calls"]["cli.main"])),
    ("trace.overhead_pct", "%", [], lambda t, a, n, x: x["overhead_pct"]),
    ("trace.self_cover", "ratio", ["compile"], lambda t, a, n, x: t["cover"]),
]


def layer_metrics(timed: dict, whole: dict, unmeasured, extra: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every entry of LAYER_METRICS."""
    out = {}
    for name, unit, needs, fn in LAYER_METRICS:
        value = None if set(needs) & set(unmeasured) else fn(timed, whole, timed["calls"]["compile"], extra)
        out[name] = {"value": value, "unit": unit}
    return out
