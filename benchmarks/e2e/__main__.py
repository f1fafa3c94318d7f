"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.run`."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
