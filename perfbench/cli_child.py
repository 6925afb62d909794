"""Run one eocount command in this process, as the ``eocount`` script does.

    python3 cli_child.py [--trace-out FILE] <eocount arguments>

With ``--trace-out``, the import of ``eocount.cli`` and the call of its
``main`` are recorded as spans, the module boundaries are wrapped after the
import, and every span is written to FILE as JSON once ``main`` returns.
"""

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace-out"]:
        from eocount.cli import main as cli_main
        return cli_main(argv)
    out, argv = Path(argv[1]), argv[2:]
    from tracing import Tracer
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("eocount.cli")
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(argv)
    out.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
