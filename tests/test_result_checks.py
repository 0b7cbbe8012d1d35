"""Run-time certificate check and rejection of malformed result JSON."""

import json

import numpy as np
import pytest

from twolevel import compiler
from twolevel.compiler import CompilationResult
from twolevel.errors import InvalidInput, NumericalFailure

from test_cli import run_cli, write_matrix
from util import haar_unitary


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("TWOLEVEL_CACHE_DIR", str(tmp_path / "cache"))


def inflated_verify(u, result, gate_set):
    return result.certified_bound + 1e-3


def test_compile_rejects_an_achieved_error_above_the_certificate(gate_set, net12, monkeypatch):
    u = haar_unitary(3, np.random.default_rng(0))
    monkeypatch.setattr(compiler, "verify", inflated_verify)
    with pytest.raises(NumericalFailure):
        compiler.compile(u, 0.1, gate_set, net12)
    with pytest.raises(NumericalFailure):
        compiler.compile_pure(u, 0.1, gate_set, net12)


def test_compile_rejects_a_certificate_above_eps(gate_set, net12, monkeypatch):
    sk_blocks = compiler._sk_blocks

    def inflated(blocks, net, depth):
        words, errors = sk_blocks(blocks, net, depth)
        return words, [10.0 * e for e in errors]

    monkeypatch.setattr(compiler, "_sk_blocks", inflated)
    u = haar_unitary(3, np.random.default_rng(1))
    with pytest.raises(NumericalFailure):
        compiler.compile(u, 0.1, gate_set, net12)
    with pytest.raises(NumericalFailure):
        compiler.compile_pure(u, 0.1, gate_set, net12)


def test_cli_compile_exits_2_when_the_certificate_fails(tmp_path, capsys, monkeypatch):
    f = write_matrix(tmp_path / "u.json", haar_unitary(3, np.random.default_rng(2)))
    monkeypatch.setattr(compiler, "verify", inflated_verify)
    code, out, err = run_cli(["compile", f, "--epsilon", "0.1", "--net-max-len", "8"], capsys)
    assert code == 2
    assert out == ""
    assert "certificate" in err


def scalar_result(gate_set, net12):
    """U = e^{0.7i} I_3: an empty word and a diagonal carrying the phase."""
    u = np.exp(0.7j) * np.eye(3)
    return u, compiler.compile(u, 0.1, gate_set, net12).to_json()


def word_result(gate_set, net12):
    u = haar_unitary(3, np.random.default_rng(3))
    return u, compiler.compile(u, 0.1, gate_set, net12).to_json()


def cut_diagonal(obj):
    obj["diagonal"] = obj["diagonal"][:1]


def wrong_word_length(obj):
    obj["word_length"] += 1


def off_unit_circle(obj):
    re, im = obj["diagonal"][1]
    obj["diagonal"][1] = [1.5 * re, 1.5 * im]


def inv_as_string(obj):
    obj["word"][0]["inv"] = "false"


def plane_as_float(obj):
    obj["word"][0]["p"] += 0.9


def plane_as_bool(obj):
    obj["word"][0]["p"] = True


def label_not_str(obj):
    obj["word"][0]["label"] = None


def diagonal_as_bool(obj):
    obj["diagonal"][0] = [True, False]


def phase_as_string(obj):
    obj["global_phase"] = "0.5"


def phase_as_bool(obj):
    obj["global_phase"] = True


def dim_as_float(obj):
    obj["dim"] += 0.9


def block_count_as_string(obj):
    obj["block_count"] = str(obj["block_count"])


def word_length_as_float(obj):
    obj["word_length"] = float(obj["word_length"])


MALFORMED = [(scalar_result, cut_diagonal), (word_result, wrong_word_length),
             (scalar_result, off_unit_circle), (word_result, off_unit_circle),
             (word_result, inv_as_string), (word_result, plane_as_float),
             (word_result, plane_as_bool), (word_result, label_not_str),
             (word_result, phase_as_string), (word_result, phase_as_bool),
             (word_result, dim_as_float), (word_result, block_count_as_string),
             (word_result, word_length_as_float), (word_result, diagonal_as_bool)]


@pytest.mark.parametrize("make, spoil", MALFORMED)
def test_from_json_rejects_malformed_results(gate_set, net12, make, spoil):
    u, obj = make(gate_set, net12)
    assert compiler.verify(u, CompilationResult.from_json(obj), gate_set) <= 0.1
    spoil(obj)
    with pytest.raises(InvalidInput):
        CompilationResult.from_json(obj)


@pytest.mark.parametrize("make, spoil", MALFORMED)
def test_cli_verify_exits_2_on_malformed_results(tmp_path, capsys, gate_set, net12, make, spoil):
    u, obj = make(gate_set, net12)
    spoil(obj)
    m = write_matrix(tmp_path / "u.json", u)
    r = tmp_path / "r.json"
    r.write_text(json.dumps(obj))
    code, out, _ = run_cli(["verify", m, str(r)], capsys)
    assert code == 2
    assert out == ""


def test_verify_rejects_a_diagonal_of_the_wrong_size(gate_set):
    r = CompilationResult(dim=3, diagonal=compiler.DiagonalUnitary(np.zeros(1)))
    with pytest.raises(InvalidInput):
        compiler.verify(np.eye(3), r, gate_set)
