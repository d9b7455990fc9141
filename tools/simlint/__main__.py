"""``python -m simlint PATH...``: lint files and directories.

Exit status: 0 when clean, 1 on any finding, 2 on a missing path or no
path at all.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from .engine import run_lint


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m simlint PATH...", file=sys.stderr)
        return 2
    try:
        report = run_lint(paths)
    except FileNotFoundError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    print(report.summary_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
