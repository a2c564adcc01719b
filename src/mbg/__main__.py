"""``python -m mbg``: the command line of ``mbg.harness``."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
