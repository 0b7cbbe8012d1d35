"""Command-line surface: factor, compile, strata, minlog, diag, verify.

Data goes to stdout as JSON (or an aligned table with --format table);
diagnostics go to stderr.  Exit codes: 2 parse failure, 3 non-unitary
input, 4 accuracy not reached, 5 bad strata dimension, 6 determinant not
one under --special, 7 non-diagonal input to diag.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import compiler, config, core, diagonal, givens, sk, strata, su2
from .errors import (
    AccuracyNotReached,
    InvalidInput,
    NoFaithfulStrata,
    NotSpecial,
    NotUnitary,
    TwoLevelError,
)

EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_ACCURACY = 4
EXIT_BAD_DIM = 5
EXIT_NOT_SPECIAL = 6
EXIT_NOT_DIAGONAL = 7


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_PARSE, f"cannot parse {path}: {exc}")


def _load_matrix(path: str) -> np.ndarray:
    try:
        return core.matrix_from_json(_load_json(path))
    except InvalidInput as exc:
        _fail(EXIT_PARSE, f"{path}: {exc}")


def _load_gate_set(path: str | None) -> sk.GateSet:
    if path is None:
        return config.default_gate_set()
    try:
        return sk.GateSet.from_json(_load_json(path))
    except InvalidInput as exc:
        _fail(EXIT_PARSE, f"{path}: {exc}")


def _emit(obj) -> None:
    print(json.dumps(obj))


def _net_for(gate_set: sk.GateSet, max_len: int) -> sk.BasicNet:
    """Build or load the cached net for (gate set, max_len, DEDUP_TOL, NET_FORMAT)."""
    canon = (json.dumps(gate_set.to_json(), sort_keys=True)
             + f"|{max_len}|{sk.DEDUP_TOL!r}|{sk.BasicNet.NET_FORMAT}")
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    cache = config.cache_dir()
    path = cache / f"net_{digest}.npz"
    if path.exists():
        try:
            return sk.BasicNet.load(path)
        except Exception as exc:  # stale or corrupt cache: rebuild
            print(f"warning: ignoring bad net cache {path}: {exc}", file=sys.stderr)
    net = sk.build_net(gate_set, max_len)
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".npz")
        os.close(fd)
        try:
            net.save(tmp)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"warning: could not cache net: {exc}", file=sys.stderr)
    return net


def cmd_factor(args) -> None:
    u = _load_matrix(args.matrix)
    try:
        fact = givens.factor(u, tol=args.tol)
    except NotUnitary as exc:
        _fail(EXIT_NOT_UNITARY, str(exc))
    err = core.operator_norm(u - givens.reconstruct(fact))
    if args.format == "table":
        print(f"dim {fact.n_dim}  factors {len(fact.factors)}")
        for f in fact.factors:
            print(f"  ({f.p},{f.q})  block {f.block[0, 0]:.6f} {f.block[0, 1]:.6f} / "
                  f"{f.block[1, 0]:.6f} {f.block[1, 1]:.6f}")
        print(f"diagonal {' '.join(f'{z:.6f}' for z in fact.diagonal)}")
    else:
        _emit(fact.to_json())
    print(f"reconstruction error: {err:.6e}", file=sys.stderr)


def cmd_compile(args) -> None:
    u = _load_matrix(args.matrix)
    gate_set = _load_gate_set(args.gate_set)
    if not (0.0 < args.epsilon < 1.0):
        _fail(EXIT_PARSE, f"--epsilon must lie in (0, 1), got {args.epsilon}")
    net = _net_for(gate_set, args.net_max_len)
    run = compiler.compile_pure if args.pure else compiler.compile
    try:
        result = run(u, args.epsilon, gate_set, net, depth=args.sk_depth)
    except NotUnitary as exc:
        _fail(EXIT_NOT_UNITARY, str(exc))
    except AccuracyNotReached as exc:
        _fail(EXIT_ACCURACY, str(exc))  # the message names every missed block
    if args.format == "table":
        print(f"dim {result.dim}  blocks {result.block_count}  word length {result.word_length}")
        print(f"requested eps   {result.requested_eps:.6e}")
        print(f"certified bound {result.certified_bound:.6e}")
        print(f"achieved error  {result.achieved_error:.6e}")
        print(f"global phase    {result.global_phase!r}")
    else:
        _emit(result.to_json())


def cmd_strata(args) -> None:
    if args.dim < 2:
        _fail(EXIT_BAD_DIM, f"--dim must be >= 2, got {args.dim}")
    try:
        if args.all:
            infos = [strata.stratum_info(f, args.dim) for f in strata.enumerate_families(args.dim)]
            infos.sort(key=lambda s: (-s.orbit_dim, s.family.parts()))
        else:
            infos = strata.enumerate_strata(args.dim)
    except NoFaithfulStrata as exc:
        _fail(EXIT_BAD_DIM, str(exc))
    if args.format == "table":
        rows = [
            (
                " ".join(f"{d}:{m}" for d, m in s.family.mults),
                "yes" if s.faithful else "no",
                " x ".join(f"U({m})" for m in s.stabilizer_factors),
                str(s.orbit_dim),
            )
            for s in infos
        ]
        widths = [max(len(r[i]) for r in rows + [("family", "faithful", "stabilizer", "dim")])
                  for i in range(4)]
        header = ("family", "faithful", "stabilizer", "dim")
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    else:
        _emit([s.to_json() for s in infos])


def cmd_minlog(args) -> None:
    v = _load_matrix(args.matrix)
    try:
        res = (su2.minlog_su2 if args.special else su2.minlog_u2)(v, args.tol)
    except NotUnitary as exc:
        _fail(EXIT_NOT_UNITARY, str(exc))
    except NotSpecial as exc:
        _fail(EXIT_NOT_SPECIAL, str(exc))
    energy = 0.5 * res.hs_norm**2
    if args.format == "table":
        print(f"hs_norm {res.hs_norm!r}")
        print(f"energy  {energy!r}")
        print(f"unique  {res.unique}")
    else:
        _emit({
            "generator": core.matrix_to_json(res.generator),
            "hs_norm": res.hs_norm,
            "energy": energy,
            "unique": res.unique,
        })


def cmd_diag(args) -> None:
    u = _load_matrix(args.matrix)
    try:
        d = diagonal.DiagonalUnitary.from_matrix(u, tol=args.tol)
    except InvalidInput as exc:
        _fail(EXIT_NOT_DIAGONAL, str(exc))
    prog = diagonal.synth_full_diagonal(d)
    err = core.operator_norm(d.matrix() - prog.evaluate(d.dim))
    if args.format == "table":
        print(f"global_phase {prog.global_phase!r}")
        for j, t in prog.rotations:
            print(f"  gamma(1,{j})  t {t!r}")
    else:
        _emit(prog.to_json())
    print(f"reconstruction error: {err:.6e}", file=sys.stderr)


def cmd_verify(args) -> None:
    u = _load_matrix(args.matrix)
    gate_set = _load_gate_set(args.gate_set)
    try:
        result = compiler.CompilationResult.from_json(_load_json(args.result))
    except InvalidInput as exc:
        _fail(EXIT_PARSE, f"{args.result}: {exc}")
    err = compiler.verify(u, result, gate_set)
    if args.format == "table":
        print(f"achieved error {err:.6e}")
    else:
        _emit({"achieved_error": err})


_OPTION_DEFAULTS = {
    "tol": None,
    "gate_set": None,
    "net_max_len": config.DEFAULT_NET_MAX_LEN,
    "sk_depth": sk.DEFAULT_SK_DEPTH,
    "format": "json",
}

_OPTION_TYPES = {"tol": float, "gate_set": str, "net_max_len": int, "sk_depth": int,
                 "format": str}


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then the built-in defaults.

    Options parse with a None sentinel so precedence is explicit flag,
    then config file, then default.
    """
    cfg = {}
    if args.config:
        cfg = _load_json(args.config)
        if not isinstance(cfg, dict):
            _fail(EXIT_PARSE, f"{args.config}: config must be a JSON object")
    for name, fallback in _OPTION_DEFAULTS.items():
        if not hasattr(args, name):
            continue
        if getattr(args, name) is None:
            value = cfg.get(name, fallback)
            if value is not None:
                try:
                    value = _OPTION_TYPES[name](value)
                except (TypeError, ValueError):
                    _fail(EXIT_PARSE, f"config key {name!r} has invalid value {value!r}")
            setattr(args, name, value)
    if getattr(args, "format", "json") not in ("json", "table"):
        _fail(EXIT_PARSE, f"format must be 'json' or 'table', got {args.format!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twolevel",
        description="Two-level factorization, finite-alphabet compilation, and embedding strata.",
    )
    parser.add_argument("--config", help="JSON config file; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "table"), default=None)

    def common_tol(p):
        common(p)
        p.add_argument("--tol", type=float, default=None, help="tolerance override")

    p = sub.add_parser("factor", help="Givens-factor a unitary matrix file")
    p.add_argument("matrix")
    common_tol(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("compile", help="compile a unitary over a finite gate set")
    p.add_argument("matrix")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--gate-set", dest="gate_set", default=None)
    p.add_argument("--pure", action="store_true",
                   help="absorb the diagonal into the word up to a global phase")
    p.add_argument("--net-max-len", dest="net_max_len", type=int, default=None)
    p.add_argument("--sk-depth", dest="sk_depth", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("strata", help="enumerate embedding strata at a dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--all", action="store_true", help="include non-faithful families")
    common(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("minlog", help="minimal logarithm and geodesic energy of a 2x2 unitary")
    p.add_argument("matrix")
    p.add_argument("--special", action="store_true", help="use the SU(2) logarithm")
    common_tol(p)
    p.set_defaults(func=cmd_minlog)

    p = sub.add_parser("diag", help="synthesize a diagonal unitary from phase rotations")
    p.add_argument("matrix")
    common_tol(p)
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("verify", help="recompute the achieved error of a compilation result")
    p.add_argument("matrix")
    p.add_argument("result")
    p.add_argument("--gate-set", dest="gate_set", default=None)
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_options(args)
    try:
        args.func(args)
    except TwoLevelError as exc:
        _fail(EXIT_PARSE, str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
