"""``python -m conelines``: the same command line as ``conelines``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
