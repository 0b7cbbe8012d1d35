"""Every error the package raises is a ``twolevel.errors.TwoLevelError``."""

import ast
import inspect
from pathlib import Path

import twolevel
from twolevel import errors

PACKAGE_ERRORS = {name for name, obj in vars(errors).items()
                  if inspect.isclass(obj) and issubclass(obj, errors.TwoLevelError)}


def _raised_class(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc)


def test_every_raise_names_a_package_error():
    # A bare ``raise`` re-raises what was caught; only the CLI exits by SystemExit.
    found = []
    for path in sorted(Path(twolevel.__file__).parent.glob("*.py")):
        allowed = PACKAGE_ERRORS | ({"SystemExit"} if path.name == "cli.py" else set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                if _raised_class(node) not in allowed:
                    found.append(f"{path.name}:{node.lineno} raises {_raised_class(node)}")
    assert found == []
    assert len(PACKAGE_ERRORS) == 7
