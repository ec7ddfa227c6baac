"""``python -m genus3``: the command-line interface of ``genus3.tablecli``."""

import sys

from .tablecli import main

if __name__ == "__main__":
    sys.exit(main())
