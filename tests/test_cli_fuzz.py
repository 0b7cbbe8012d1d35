"""Fuzzed input files at the CLI boundary.

Every reader starts from a valid file: the matrix of ``factor``, ``minlog``,
``diag``, ``compile`` and ``verify``, the ``--gate-set`` file, the ``verify``
result and the ``--config`` file.  One file is then spoiled, by replacing one
JSON node or the whole file.  Whatever the spoil, ``cli.main`` exits with a
documented code, never 1 and never with a traceback, and a node replaced by
a value of another JSON type exits 2 naming the file.
"""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import build_net, cli, compiler, core
from twolevel.config import default_gate_set

from util import haar_unitary

#: Kept small so that each compile builds its net in about a millisecond;
#: no spoil below changes it to another integer.
NET_MAX_LEN = 4

COMMANDS = {
    "factor": ["factor", "{matrix}"],
    "minlog": ["minlog", "{matrix}"],
    "diag": ["diag", "{diagonal}"],
    "compile": ["compile", "{matrix}", "--epsilon", "0.3", "--gate-set", "{gate_set}"],
    "verify": ["verify", "{matrix}", "{result}", "--gate-set", "{gate_set}"],
}

#: Stands for the raw JSON text ``1e400``, which ``json`` reads as infinity.
RAW_1E400 = "\0raw 1e400"

REPLACEMENTS = [True, 2.5, "x", None, [], {}, RAW_1E400]


@functools.cache
def valid_files() -> dict:
    gate_set = default_gate_set()
    u = haar_unitary(2, np.random.default_rng(0))
    result = compiler.compile(u, 0.3, gate_set, build_net(gate_set, NET_MAX_LEN), depth=1)
    return {
        "matrix": core.matrix_to_json(u),
        "diagonal": core.matrix_to_json(np.diag(np.exp([0.3j, -1.1j, 2.0j]))),
        "gate_set": gate_set.to_json(),
        "result": result.to_json(),
        "config": {"net_max_len": NET_MAX_LEN, "sk_depth": 1, "format": "json", "tol": 1e-10},
    }


def node_paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, path + (key,))


def json_kind(value):
    return "raw" if value is RAW_1E400 else type(value).__name__


def replaced(obj, path, value) -> tuple[bytes, object]:
    """The JSON text of ``obj`` with the node at ``path`` replaced, and the old node."""
    if not path:
        old, obj = obj, value
    else:
        obj = copy.deepcopy(obj)
        parent = functools.reduce(lambda node, key: node[key], path[:-1], obj)
        old, parent[path[-1]] = parent[path[-1]], value
    return json.dumps(obj).replace(json.dumps(RAW_1E400), "1e400").encode(), old


def run_main(argv, contents: dict):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"TWOLEVEL_CACHE_DIR": tmp}):
        paths = {}
        for name, data in contents.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a.format(**paths) for a in argv])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue(), paths


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_fuzzed_files_exit_with_a_documented_code(data):
    files = valid_files()
    argv = ["--config", "{config}"] + COMMANDS[data.draw(st.sampled_from(sorted(COMMANDS)))]
    target = data.draw(st.sampled_from([a[1:-1] for a in argv if a.startswith("{")]))
    contents = {name: json.dumps(obj).encode() for name, obj in files.items()}
    spoil = data.draw(st.sampled_from(("node", "bytes", "non_utf8", "deep")))
    if spoil == "node":
        path = data.draw(st.sampled_from(list(node_paths(files[target]))))
        new = data.draw(st.sampled_from(REPLACEMENTS))
        contents[target], old = replaced(files[target], path, new)
        must_exit_2 = json_kind(new) != json_kind(old)
    elif spoil == "bytes":
        contents[target] = data.draw(st.binary(max_size=64))
        must_exit_2 = False
    elif spoil == "non_utf8":
        at = data.draw(st.integers(0, len(contents[target])))
        byte = data.draw(st.sampled_from((b"\xff", b"\xe9", b"\xc3")))
        contents[target] = contents[target][:at] + byte + contents[target][at:]
        must_exit_2 = True
    else:
        contents[target] = b"[" * 100_000 + b"]" * 100_000
        must_exit_2 = True
    code, out, err, paths = run_main(argv, contents)
    assert code in (0, 2, 3, 4, 6, 7), (code, err)
    assert "Traceback" not in err
    if must_exit_2:
        assert code == 2, err
        assert out == "" and paths[target] in err
