"""``python -m framekit``: the ``framekit`` command line."""

import sys

from .cli import main

sys.exit(main())
