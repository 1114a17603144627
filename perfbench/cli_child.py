"""One traced CLI request in a fresh interpreter.

    python3 perfbench/cli_child.py SPANS_FILE CLI_ARGS...

run by run.py with src/ on PYTHONPATH.

Times ``import csalin.cli`` first, then runs ``csalin.cli.main(CLI_ARGS)``
with the public functions wrapped in spans, so the spans follow the calls
the subcommand itself makes.  Writes the spans and counts to SPANS_FILE
and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, installed  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import csalin.cli
    with installed(tracer), tracer.span("cli.main"):
        code = csalin.cli.main(argv)
    sys.stdout.flush()
    Path(spans_file).write_text(json.dumps(
        {"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
