"""Entry point of the benchmark: ``python3 benchmarks/horsebench/run.py``.

Puts the checkout's ``src`` (the simulator) and this package on the
import path, then hands over to the driver (``cli.main``) or, with
``--child`` as the first argument, to one in-process repeat.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def bootstrap() -> None:
    for path in (os.path.join(ROOT, "src"), os.path.dirname(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    if sys.argv[1:2] == ["--child"]:
        from horsebench.child import main as child_main

        sys.exit(child_main(sys.argv[2:]))
    from horsebench.cli import main

    sys.exit(main())
