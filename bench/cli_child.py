"""Traced stand-in for ``python -m rcbounds.cli`` in the cli workload.

Usage: cli_child.py SPANS_JSON <rcbounds cli arguments...>

Times ``import rcbounds.cli``, installs the span wrappers, runs
``rcbounds.cli.main`` on the arguments and writes the spans and the import
time to SPANS_JSON.  Exits with main's exit code.
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    import rcbounds.cli
    import_s = time.perf_counter() - t0

    # imported after the timed import so it cannot pre-load anything for it
    import spans

    tracer = spans.Tracer()
    tracer.install()
    code = rcbounds.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1], import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
