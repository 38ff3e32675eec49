"""``python -m nistab``: the ``nistab`` command line (see :mod:`nistab.simcli`)."""

import sys

from .simcli import main

if __name__ == "__main__":
    sys.exit(main())
