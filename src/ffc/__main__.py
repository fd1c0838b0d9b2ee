"""``python -m ffc``: the same command line as the ``ffc`` console script."""

import sys

from .cli import main

sys.exit(main())
