"""``python -m benchmarks.horsebench`` (from the repository root)."""

import sys

from .cli import main
from .run import bootstrap

bootstrap()
sys.exit(main())
