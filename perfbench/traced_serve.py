"""Launch ``python -m repro serve`` with the per-layer wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS_DIR serve [serve args]``.

The same CLI as the untraced run, entered through ``repro.__main__``
after :func:`tracing.install_serve` has patched the serving layers.  A
single-process server stops on SIGINT and a pool manager on SIGTERM;
either way ``main`` returns and the spans are written.  Spawned pool
workers start from a fresh import and carry no wrappers.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True


def main(argv: list[str]) -> int:
    import tracing

    tracing.install_serve(argv[0])
    from repro.__main__ import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        tracing.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
