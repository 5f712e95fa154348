"""A traced cold ``sqzlab run`` process.

    python bench/tracechild.py SPANS_JSON run --config CFG --out DIR

Runs ``sqzlab.cli.main`` on the arguments after SPANS_JSON, as the
``sqzlab`` console script does, with the spans of ``sqzlab.cli``'s import
and of its calls into the other modules; writes them to SPANS_JSON.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.begin("imports")
    import sqzlab.cli as cli

    tracer.end()
    tracer.install(cli)
    code = tracer.wrap("cli.main", cli.main)(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
