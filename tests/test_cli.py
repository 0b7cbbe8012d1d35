import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twolevel
from twolevel import cli, compiler, core, sk
from twolevel.diagonal import PhaseProgram
from twolevel.givens import Factorization

from util import haar_unitary, su_normalize


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TWOLEVEL_CACHE_DIR", str(tmp_path / "cache"))


def run_cli(args, capsys):
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write_matrix(path, m):
    path.write_text(json.dumps(core.matrix_to_json(m)))
    return str(path)


def test_factor_identity(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.eye(4))
    code, out, err = run_cli(["factor", f], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["factors"] == []
    assert "reconstruction error: 0.0" in err


def test_factor_random_u4(tmp_path, capsys):
    rng = np.random.default_rng(0)
    u = haar_unitary(4, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, out, err = run_cli(["factor", f], capsys)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["factors"]) <= 6
    reported = float(err.split("reconstruction error:")[1].strip())
    assert reported <= 1e-10


def test_factor_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["factor", str(bad)], capsys)
    assert code == 2


def test_factor_non_unitary(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.ones((3, 3)))
    code, _, _ = run_cli(["factor", str(f)], capsys)
    assert code == 3


def test_compile_identity(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.eye(4))
    code, out, _ = run_cli(
        ["compile", f, "--epsilon", "0.1", "--net-max-len", "3"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] == []
    assert obj["achieved_error"] <= 1e-12


def test_compile_su4(tmp_path, capsys):
    rng = np.random.default_rng(1)
    u = su_normalize(haar_unitary(4, rng))
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(["compile", f, "--epsilon", "0.1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["achieved_error"] <= 0.1
    assert obj["certified_bound"] <= 0.1
    assert obj["block_count"] == 6


def test_compile_uses_net_cache(tmp_path, capsys):
    rng = np.random.default_rng(2)
    u = haar_unitary(2, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, _, _ = run_cli(["compile", f, "--epsilon", "0.3", "--net-max-len", "6"], capsys)
    assert code == 0
    cache = tmp_path / "cache"
    nets = list(cache.glob("net_*.npz"))
    assert len(nets) == 1
    code, _, _ = run_cli(["compile", f, "--epsilon", "0.3", "--net-max-len", "6"], capsys)
    assert code == 0
    assert list(cache.glob("net_*.npz")) == nets


def test_compile_recovers_from_corrupt_cache(tmp_path, capsys):
    rng = np.random.default_rng(10)
    u = haar_unitary(2, rng)
    f = write_matrix(tmp_path / "m.json", u)
    args = ["compile", f, "--epsilon", "0.3", "--net-max-len", "6"]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    net_file = next((tmp_path / "cache").glob("net_*.npz"))
    net_file.write_bytes(b"garbage")
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["achieved_error"] <= 0.3


def test_compile_rebuilds_a_stale_format_net(tmp_path, capsys):
    rng = np.random.default_rng(10)
    u = haar_unitary(2, rng)
    f = write_matrix(tmp_path / "m.json", u)
    args = ["compile", f, "--epsilon", "0.3", "--net-max-len", "6"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    net_file = next((tmp_path / "cache").glob("net_*.npz"))
    with np.load(net_file) as z:
        fields = dict(z)
    mats = np.array([[[a - 1j * zc, -1j * x - y], [-1j * x + y, a + 1j * zc]]
                     for a, x, y, zc in fields.pop("quats")])
    del fields["net_format"]
    with open(net_file, "wb") as fh:  # the npz layout before NET_FORMAT 2
        np.savez(fh, mats=mats, length=np.zeros(len(mats), dtype=np.int32), **fields)
    with pytest.raises(twolevel.errors.InvalidInput):
        sk.BasicNet.load(net_file)
    code, out, err = run_cli(args, capsys)
    assert code == 0
    assert "warning" in err and "format" in err
    assert out == first
    assert len(sk.BasicNet.load(net_file)) > 1


def test_compile_big_eps_tiny_net(tmp_path, capsys):
    rng = np.random.default_rng(3)
    u = haar_unitary(2, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(
        ["compile", f, "--epsilon", "0.9", "--net-max-len", "2", "--sk-depth", "0"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["achieved_error"] <= 0.9


def test_compile_accuracy_not_reached(tmp_path, capsys):
    rng = np.random.default_rng(4)
    u = haar_unitary(4, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, _, err = run_cli(
        ["compile", f, "--epsilon", "0.01", "--net-max-len", "1", "--sk-depth", "0"],
        capsys,
    )
    assert code == 4
    missed = re.findall(r"block \d+ at \(\d+,\d+\)", err)
    assert missed
    assert all(err.count(m) == 1 for m in missed)


def test_compile_with_gate_set_file(tmp_path, capsys):
    rng = np.random.default_rng(8)
    h = -1j * (core.PAULI["x"] + core.PAULI["z"]) / np.sqrt(2)
    t = np.diag([np.exp(-1j * np.pi / 8), np.exp(1j * np.pi / 8)])
    gs_path = tmp_path / "gates.json"
    gs_path.write_text(json.dumps(
        {"letters": [
            {"label": "h", "matrix": core.matrix_to_json(h)},
            {"label": "t", "matrix": core.matrix_to_json(t)},
        ]}
    ))
    u = haar_unitary(2, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(
        ["compile", f, "--epsilon", "0.2", "--gate-set", str(gs_path),
         "--net-max-len", "10"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["achieved_error"] <= 0.2
    assert {l["label"] for l in obj["word"]} <= {"h", "t"}


def test_factor_output_reparses(tmp_path, capsys):
    rng = np.random.default_rng(9)
    u = haar_unitary(4, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(["factor", f], capsys)
    assert code == 0
    fact = Factorization.from_json(json.loads(out))
    assert fact.n_dim == 4


def test_compile_pure(tmp_path, capsys):
    rng = np.random.default_rng(5)
    u = haar_unitary(4, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(["compile", f, "--epsilon", "0.2", "--pure"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["achieved_error"] <= 0.2
    entries = np.array([complex(re, im) for re, im in obj["diagonal"]])
    assert np.abs(entries - 1.0).max() <= 1e-12


def test_strata_dim4(capsys):
    code, out, _ = run_cli(["strata", "--dim", "4"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["orbit_dim"] for r in rows] == [15, 12, 11]
    assert all(r["faithful"] for r in rows)


def test_strata_dim8_contains_examples(capsys):
    code, out, _ = run_cli(["strata", "--dim", "8"], capsys)
    dims = {r["orbit_dim"] for r in json.loads(out)}
    assert code == 0
    assert 27 in dims and 63 in dims


def test_strata_all_includes_non_faithful(capsys):
    code, out, _ = run_cli(["strata", "--dim", "4", "--all"], capsys)
    rows = json.loads(out)
    assert code == 0
    assert len(rows) == 5
    assert sum(1 for r in rows if not r["faithful"]) == 2


def test_strata_table_format(capsys):
    code, out, _ = run_cli(["strata", "--dim", "4", "--format", "table"], capsys)
    assert code == 0
    assert "stabilizer" in out.splitlines()[0]
    assert len(out.strip().splitlines()) == 4


def test_strata_bad_dim(capsys):
    code, _, _ = run_cli(["strata", "--dim", "1"], capsys)
    assert code == 5


def test_minlog_identity(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.eye(2))
    code, out, _ = run_cli(["minlog", f], capsys)
    obj = json.loads(out)
    assert code == 0
    assert obj["hs_norm"] == 0.0
    assert obj["energy"] == 0.0


def test_minlog_minus_identity_special(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", -np.eye(2))
    code, out, _ = run_cli(["minlog", f, "--special"], capsys)
    obj = json.loads(out)
    assert code == 0
    assert abs(obj["hs_norm"] - np.pi) < 1e-12
    assert abs(obj["energy"] - np.pi**2 / 2) < 1e-12
    assert obj["unique"] is False


def test_minlog_u2_phase(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.diag([1.0j, 1.0]))
    code, out, _ = run_cli(["minlog", f], capsys)
    obj = json.loads(out)
    assert code == 0
    assert abs(obj["hs_norm"] ** 2 - np.pi**2 / 8) < 1e-12


def test_minlog_special_rejects_u2(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.diag([1.0j, 1.0]))
    code, _, _ = run_cli(["minlog", f, "--special"], capsys)
    assert code == 6


def test_minlog_tol_reaches_library_check(tmp_path, capsys):
    # Unitarity defect 2e-8: above the default 2e-10, below 2e-6 under --tol 1e-6.
    f = write_matrix(tmp_path / "near.json", np.diag([1.0 + 1e-8, 1.0 - 1e-8]))
    for args in (["minlog", f], ["minlog", f, "--special"]):
        assert run_cli(args + ["--tol", "1e-6"], capsys)[0] == 0
        assert run_cli(args, capsys)[0] == 3


def test_diag_identity(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.eye(4))
    code, out, _ = run_cli(["diag", f], capsys)
    obj = json.loads(out)
    assert code == 0
    assert obj["global_phase"] == 0.0
    assert obj["rotations"] == []


def test_diag_synthesis(tmp_path, capsys):
    d = np.diag([1.0j, -1.0j, 1.0, 1.0])
    f = write_matrix(tmp_path / "m.json", d)
    code, out, err = run_cli(["diag", f], capsys)
    assert code == 0
    prog = PhaseProgram.from_json(json.loads(out))
    assert core.operator_norm(prog.evaluate(4) - d) <= 1e-10
    reported = float(err.split("reconstruction error:")[1].strip())
    assert reported <= 1e-10


def test_diag_scalar(tmp_path, capsys):
    alpha = 0.25
    f = write_matrix(tmp_path / "m.json", np.exp(1j * alpha) * np.eye(2))
    code, out, _ = run_cli(["diag", f], capsys)
    obj = json.loads(out)
    assert code == 0
    assert abs(obj["global_phase"] - alpha) < 1e-12
    assert all(abs(r["t"]) < 1e-12 for r in obj["rotations"])


def test_diag_rejects_non_diagonal(tmp_path, capsys):
    rng = np.random.default_rng(6)
    f = write_matrix(tmp_path / "m.json", haar_unitary(3, rng))
    code, _, _ = run_cli(["diag", f], capsys)
    assert code == 7


def test_verify_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(7)
    u = haar_unitary(4, rng)
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(["compile", f, "--epsilon", "0.2"], capsys)
    assert code == 0
    result_path = tmp_path / "result.json"
    result_path.write_text(out)
    achieved = json.loads(out)["achieved_error"]
    code, out, _ = run_cli(["verify", f, str(result_path)], capsys)
    assert code == 0
    assert abs(json.loads(out)["achieved_error"] - achieved) <= 1e-12


def test_compile_stdout_is_compact_json_of_the_result(tmp_path, capsys, gate_set):
    u = haar_unitary(4, np.random.default_rng(8))
    f = write_matrix(tmp_path / "m.json", u)
    code, out, _ = run_cli(["compile", f, "--epsilon", "0.2", "--net-max-len", "8"], capsys)
    assert code == 0
    result = compiler.compile(u, 0.2, gate_set, sk.build_net(gate_set, 8),
                              depth=sk.DEFAULT_SK_DEPTH)
    assert out == json.dumps(result.to_json()) + "\n"
    assert out.count("\n") == 1


def test_verify_accepts_an_indented_result(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", haar_unitary(3, np.random.default_rng(9)))
    code, out, _ = run_cli(["compile", f, "--epsilon", "0.2", "--net-max-len", "8"], capsys)
    assert code == 0
    obj = json.loads(out)
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(obj, indent=2))
    code, out, _ = run_cli(["verify", f, str(indented)], capsys)
    assert code == 0
    assert json.loads(out)["achieved_error"] == obj["achieved_error"]


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"format": "table"}))
    code, out, _ = run_cli(["--config", str(cfg), "strata", "--dim", "4"], capsys)
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)  # table output, not JSON
    assert out.splitlines()[0].startswith("family")
    # Explicit flag overrides the config file.
    code, out, _ = run_cli(
        ["--config", str(cfg), "strata", "--dim", "4", "--format", "json"], capsys
    )
    assert code == 0
    json.loads(out)


def test_config_file_numeric_defaults(tmp_path, capsys):
    rng = np.random.default_rng(11)
    u = haar_unitary(2, rng)
    f = write_matrix(tmp_path / "m.json", u)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"net_max_len": 4, "sk_depth": 2}))
    code, out, _ = run_cli(
        ["--config", str(cfg), "compile", f, "--epsilon", "0.5"], capsys
    )
    assert code == 0
    assert json.loads(out)["achieved_error"] <= 0.5
    # The cached net reflects the configured length bound, not the default.
    net_file = next((tmp_path / "cache").glob("net_*.npz"))
    with np.load(net_file) as z:
        assert int(z["max_word_length"][0]) == 4


def test_tol_only_on_commands_that_read_it(tmp_path, capsys):
    f = write_matrix(tmp_path / "m.json", np.eye(2))
    for args in (["compile", f, "--epsilon", "0.1"], ["strata", "--dim", "4"],
                 ["verify", f, f]):
        code, _, err = run_cli(args + ["--tol", "1e-6"], capsys)
        assert code == 2 and "--tol" in err
    for args in (["factor", f], ["minlog", f], ["diag", f]):
        code, _, _ = run_cli(args + ["--tol", "1e-6"], capsys)
        assert code == 0


def test_failed_net_save_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    f = write_matrix(tmp_path / "m.json", haar_unitary(2, np.random.default_rng(15)))

    def failing_save(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(sk.BasicNet, "save", failing_save)
    code, out, err = run_cli(["compile", f, "--epsilon", "0.3", "--net-max-len", "6"], capsys)
    assert code == 0 and json.loads(out)["achieved_error"] <= 0.3
    assert "warning: could not cache net: disk full" in err
    assert list((tmp_path / "cache").glob("*.npz")) == []


@pytest.mark.parametrize("kind", ["identity", "haar"])
def test_compile_rejects_negative_sk_depth(tmp_path, capsys, kind):
    u = np.eye(3) if kind == "identity" else haar_unitary(3, np.random.default_rng(16))
    f = write_matrix(tmp_path / "m.json", u)
    for pure in ([], ["--pure"]):
        code, out, err = run_cli(["compile", f, "--epsilon", "0.1", "--net-max-len", "4",
                                  "--sk-depth", "-1"] + pure, capsys)
        assert code == 2 and out == ""
        assert "depth must be >= 0" in err


def test_net_cache_is_keyed_on_dedup_tol(tmp_path, capsys, monkeypatch):
    f = write_matrix(tmp_path / "m.json", haar_unitary(2, np.random.default_rng(12)))
    args = ["compile", f, "--epsilon", "0.5", "--net-max-len", "4"]
    cache = tmp_path / "cache"
    assert run_cli(args, capsys)[0] == 0
    first = set(cache.glob("net_*.npz"))
    monkeypatch.setattr(sk, "DEDUP_TOL", 1e-7)
    built, build_net = [], sk.build_net
    monkeypatch.setattr(sk, "build_net", lambda *a: built.append(a) or build_net(*a))
    assert run_cli(args, capsys)[0] == 0
    assert len(built) == 1
    assert len(set(cache.glob("net_*.npz")) - first) == 1


def test_package_and_commands_do_not_import_scipy(tmp_path):
    rng = np.random.default_rng(13)
    u = write_matrix(tmp_path / "u.json", haar_unitary(3, rng))
    v = write_matrix(tmp_path / "v.json", haar_unitary(2, rng))
    d = write_matrix(tmp_path / "d.json", np.diag(np.exp(1j * rng.uniform(-3, 3, 4))))
    r = str(tmp_path / "r.json")
    script = f"""
import contextlib
import importlib
import pkgutil
import sys
import twolevel
from twolevel import cli
for mod in pkgutil.iter_modules(twolevel.__path__):
    importlib.import_module("twolevel." + mod.name)
compile_args = ["compile", {u!r}, "--epsilon", "0.5", "--net-max-len", "8"]
with open({r!r}, "w") as fh, contextlib.redirect_stdout(fh):
    assert cli.main(compile_args) == 0
for args in (["factor", {u!r}], compile_args + ["--pure"], ["verify", {u!r}, {r!r}],
             ["diag", {d!r}], ["minlog", {v!r}], ["strata", "--dim", "4"]):
    assert cli.main(args) == 0, args
assert "scipy" not in sys.modules, "scipy was imported"
"""
    src = str(Path(twolevel.__file__).resolve().parents[1])
    env = dict(os.environ, TWOLEVEL_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_warm_compile_and_verify_do_not_import_numpy_ma(tmp_path):
    """A cold build_net may import numpy.ma; a compile on a warm cache must not."""
    u = write_matrix(tmp_path / "u.json", haar_unitary(4, np.random.default_rng(14)))
    r = str(tmp_path / "r.json")
    warm = f"""
from twolevel import cli
assert cli.main(["compile", {u!r}, "--epsilon", "0.5", "--net-max-len", "6"]) == 0
"""
    script = f"""
import contextlib
import sys
from twolevel import cli
with open({r!r}, "w") as fh, contextlib.redirect_stdout(fh):
    assert cli.main(["compile", {u!r}, "--epsilon", "0.5", "--net-max-len", "6"]) == 0
assert cli.main(["verify", {u!r}, {r!r}]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = str(Path(twolevel.__file__).resolve().parents[1])
    env = dict(os.environ, TWOLEVEL_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for code in (warm, script):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
