"""Command-line surface: factor, compile, strata, minlog, diag, verify.

Data goes to stdout as JSON (or an aligned table with --format table);
diagnostics go to stderr.  Exit codes: 2 an unreadable or malformed file
or any other rejected input, 3 non-unitary input, 4 accuracy not reached,
5 strata dimension outside [2, strata.STRATA_MAX_DIM], 6 determinant not one
under --special, 7 non-diagonal input to diag.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import compiler, config, core, diagonal, givens, sk, strata, su2
from .errors import AccuracyNotReached, InvalidInput, NotSpecial, NotUnitary, TwoLevelError

EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_ACCURACY = 4
EXIT_BAD_DIM = 5
EXIT_NOT_SPECIAL = 6
EXIT_NOT_DIAGONAL = 7

#: The exit code of each library error a command lets through; any other
#: TwoLevelError exits EXIT_PARSE.
_EXIT_CODES = {NotUnitary: EXIT_NOT_UNITARY, AccuracyNotReached: EXIT_ACCURACY,
               NotSpecial: EXIT_NOT_SPECIAL}


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _read(path: str, parse):
    """Parse the JSON file at ``path`` with ``parse``; exit 2 naming the file if either fails.

    The one place the CLI opens a file.  It reads bytes, so ``json`` detects
    the encoding (UTF-8, -16 or -32) and bytes that do not decode fail here.
    """
    try:
        with open(path, "rb") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, RecursionError, TwoLevelError) as exc:
        _fail(EXIT_PARSE, f"cannot read {path}: {exc}")


def _load_gate_set(path: str | None) -> sk.GateSet:
    return config.default_gate_set() if path is None else _read(path, sk.GateSet.from_json)


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_factor(args) -> None:
    u = _read(args.matrix, core.matrix_from_json)
    fact = givens.factor(u, tol=args.tol)
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
    u = _read(args.matrix, core.matrix_from_json)
    gate_set = _load_gate_set(args.gate_set)
    if not (0.0 < args.epsilon < 1.0):
        _fail(EXIT_PARSE, f"--epsilon must lie in (0, 1), got {args.epsilon}")
    if args.sk_depth < 0:
        _fail(EXIT_PARSE, f"--sk-depth must be >= 0, got {args.sk_depth}")
    net = config.cached_net(gate_set, args.net_max_len)
    run = compiler.compile_pure if args.pure else compiler.compile
    result = run(u, args.epsilon, gate_set, net, depth=args.sk_depth)
    if args.format == "table":
        print(f"dim {result.dim}  blocks {result.block_count}  word length {result.word_length}")
        print(f"requested eps   {result.requested_eps:.6e}")
        print(f"certified bound {result.certified_bound:.6e}")
        print(f"achieved error  {result.achieved_error:.6e}")
        print(f"global phase    {result.global_phase!r}")
    else:
        _emit(result.to_json())


def cmd_strata(args) -> None:
    if not 2 <= args.dim <= strata.STRATA_MAX_DIM:
        _fail(EXIT_BAD_DIM, f"--dim must lie in [2, {strata.STRATA_MAX_DIM}], got {args.dim}")
    if args.all:
        infos = strata.sort_strata(strata.stratum_info(f, args.dim)
                                   for f in strata.enumerate_families(args.dim))
    else:
        infos = strata.enumerate_strata(args.dim)
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
    v = _read(args.matrix, core.matrix_from_json)
    res = (su2.minlog_su2 if args.special else su2.minlog_u2)(v, args.tol)
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
    u = _read(args.matrix, core.matrix_from_json)
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
    u = _read(args.matrix, core.matrix_from_json)
    gate_set = _load_gate_set(args.gate_set)
    result = _read(args.result, compiler.CompilationResult.from_json)
    err = compiler.verify(u, result, gate_set)
    if args.format == "table":
        print(f"achieved error {err:.6e}")
    else:
        _emit({"achieved_error": err})


#: Each option a config file may set: (built-in default, JSON type).
_OPTIONS = {
    "tol": (None, float),
    "gate_set": (None, str),
    "net_max_len": (config.DEFAULT_NET_MAX_LEN, int),
    "sk_depth": (sk.DEFAULT_SK_DEPTH, int),
    "format": ("json", str),
}


def _parse_config(obj) -> dict:
    if not isinstance(obj, dict):
        raise InvalidInput("config must be a JSON object")
    unknown = sorted(obj.keys() - _OPTIONS.keys())
    if unknown:
        raise InvalidInput(f"unknown config keys {unknown}; known: {sorted(_OPTIONS)}")
    cfg = {name: core.check_json_type(value, _OPTIONS[name][1], f"config key {name!r}")
           for name, value in obj.items()}
    if cfg.get("format", "json") not in ("json", "table"):
        raise InvalidInput(f"format must be 'json' or 'table', got {cfg['format']!r}")
    return cfg


def _resolve_options(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then the built-in defaults.

    Options parse with a None sentinel so precedence is explicit flag,
    then config file, then default.
    """
    cfg = _read(args.config, _parse_config) if args.config else {}
    for name, (default, _) in _OPTIONS.items():
        if hasattr(args, name) and getattr(args, name) is None:
            setattr(args, name, cfg.get(name, default))
    if getattr(args, "tol", None) is not None:
        core.scaled_tol(1, args.tol)  # a bad tolerance exits 2 before any command reads it


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
    try:
        _resolve_options(args)
        args.func(args)
    except TwoLevelError as exc:
        _fail(_EXIT_CODES.get(type(exc), EXIT_PARSE), str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
