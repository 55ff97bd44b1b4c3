"""Run one nameproxy CLI command in this process, optionally traced.

Usage: ``python3 bench/child.py [--trace-out FILE] <nameproxy arguments>``.
With ``--trace-out`` the layers are wrapped by :mod:`spans` before the
command runs and the spans are written to FILE after it returns.
"""

import sys


def main(argv) -> int:
    if argv[:1] != ["--trace-out"]:
        from nameproxy.cli import main as cli_main

        return cli_main(argv)
    import spans

    tracer = spans.install()
    from nameproxy.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
