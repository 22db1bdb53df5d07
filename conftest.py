"""Pins BLAS to one thread for the whole test session.

This file sits at the root so that pytest loads it before collecting
bench/tests, whose imports load numpy; BLAS reads these variables only when
numpy first loads it. Processes that tests spawn inherit the setting. A value
already set in the environment wins. `eqreg.cli` loads no numpy on import.
"""

import os

from eqreg.cli import _BLAS_VARS

for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
