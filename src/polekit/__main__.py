"""``python -m polekit ...``: the ``polekit`` command line."""

import sys

from .cli import main

sys.exit(main())
