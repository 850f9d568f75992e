"""Set-up probe: a fresh interpreter imports enkf_lab, then loads and
validates one model file, and prints how long that took in seconds.

Usage: python3 setup_probe.py MODEL_JSON
"""

import time

started = time.perf_counter()

import sys  # noqa: E402

from enkf_lab.model import load_model  # noqa: E402

load_model(sys.argv[1])
print(repr(time.perf_counter() - started))
