"""`flexdog` CLI child with the tracer installed.

Same arguments as ``python -m flexdog.cli``.  Runs ``flexdog.cli.main``
through the rebound module attribute and writes the spans it recorded as
JSON to the path in $PERFBENCH_SPANS when it exits.
"""

import importlib
import json
import os
import sys

from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install({"flexdog.pipeline", "flexdog.dog", "flexdog.cli"})
    cli = importlib.import_module("flexdog.cli")
    try:
        code = cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as f:
            json.dump(tracer.to_doc(), f)
    sys.exit(code)
