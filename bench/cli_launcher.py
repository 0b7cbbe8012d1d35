"""Traced CLI child: ``python3 bench/cli_launcher.py SPANS_OUT <twolevel args...>``.

Installs the benchmark's span wrappers, runs ``twolevel.cli.main`` on the
remaining arguments and writes the spans to SPANS_OUT, whatever the exit.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code = 1
    try:
        with tracer.span("cli.import"):
            import twolevel.cli
        tracer.install({"compiler", "sk", "cli"})
        with tracer.span("cli.main"):
            code = twolevel.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
