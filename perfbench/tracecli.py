"""`aspeq` CLI entry with the tracer installed, for traced fixtures-cli runs.

Usage: python perfbench/tracecli.py SUMMARY.json <aspeq command and flags>

Runs aspeq.cli.main on the given arguments exactly as `python -m aspeq.cli`
would, then writes the tracer's aggregates and spans to SUMMARY.json and
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys

import aspeq.cli
from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        rc = aspeq.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"summary": tracer.summary(), "span_count": len(tracer.spans),
                       "fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
