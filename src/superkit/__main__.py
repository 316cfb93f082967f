"""``python -m superkit ...`` runs the ``superkit`` command line, so a source
checkout works without installing: ``PYTHONPATH=src python -m superkit identities``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
