"""Run the skeinkit CLI as ``python -m skeinkit.cli`` does, under a Tracer.

    python perfbench/traced_cli.py COUNTERS.json <skeinkit arguments>

Exit code and output are the CLI's own; the layer counters are written
to COUNTERS.json when the command ends.
"""

import json
import runpy
import sys
import warnings

from tracing import Tracer


def main():
    out_path = sys.argv[1]
    del sys.argv[1]
    tracer = Tracer().install()
    try:
        # the tracer imported skeinkit.cli already; running it again as
        # __main__ is what we want, so silence runpy's warning about it
        warnings.filterwarnings("ignore", category=RuntimeWarning,
                                module="runpy")
        runpy.run_module("skeinkit.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.values, fh)


if __name__ == "__main__":
    main()
