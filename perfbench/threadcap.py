"""Cap the numeric thread pools before numpy is imported.

The pools read their size once, when numpy is first imported, so the cap
goes into this process's environment before anything imports numpy, as
``vpwf.cli`` does with ``VPWF_THREADS``.
"""

import os
import sys

THREADS = "1"
VARS = ("VPWF_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS")


def cap():
    """Set the cap; refuses to run once numpy is loaded, since too late."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread cap")
    os.environ.update({v: THREADS for v in VARS})
