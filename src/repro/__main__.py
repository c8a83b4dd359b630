"""``python -m repro`` entry point."""

import sys

from repro.cli import main

sys.exit(main(sys.argv[1:]))
