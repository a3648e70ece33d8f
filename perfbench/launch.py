"""Run the mirrorcalc CLI once under the span recorder.

    PYTHONPATH=src python3 perfbench/launch.py extract-gw --order 40

The CLI's own output goes to standard output unchanged.  The last line
on standard error is one JSON object: the span summary per name
(``layers``) and the facts observed on results (``facts``).  The exit
code is the CLI's.
"""

import json
import sys

import spans


def main(argv: list[str]) -> int:
    import mirrorcalc.cli

    tracer = spans.Tracer()
    with tracer.installed():
        code = mirrorcalc.cli.run(argv)
    sys.stdout.flush()
    print(json.dumps({"layers": spans.summarize(tracer.spans),
                      "facts": tracer.facts}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
