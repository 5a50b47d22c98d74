"""Run one framecalc CLI command with the layer wrappers installed.

Usage: python perfbench/traced_cli.py METRICS_PATH <framecalc arguments...>

The command's stdout and exit code are those of `python -m framecalc.cli`;
the per-layer metrics of the process are written to METRICS_PATH as JSON.
"""

import json
import sys
import time


def main() -> int:
    metrics_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from framecalc import cli
    import_s = time.perf_counter() - t0

    import layers

    rec = layers.Recorder()
    layers.install(rec)
    code = cli.run(argv)
    sys.stdout.flush()
    with open(metrics_path, "w") as f:
        json.dump(layers.metrics(rec, import_s), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
