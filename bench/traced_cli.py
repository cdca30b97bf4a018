"""The boolreg command line with spans around its layer calls.

    python3 bench/traced_cli.py SPANS_FILE <boolreg arguments ...>

Behaves like ``python3 -m boolreg <arguments>`` (same stdout, same exit
code), and writes the spans recorded around the calls that the ``cli`` and
other consumer modules make into the library's layers to SPANS_FILE as one
JSON list.  The cli workload runs this in place of ``-m boolreg`` on its
traced passes.
"""

import json
import sys

import spans
from boolreg import cli


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    with tracer.operation("cli", "cli.main"):
        code = cli.main(argv)
    spans.settle(tracer.spans)
    with open(spans_file, "w", encoding="ascii") as fp:
        json.dump([span.to_json() for span in tracer.spans], fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
