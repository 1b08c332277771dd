"""Process set-up shared by the benchmark's entry points.

Import this before anything imports numpy: BLAS reads its thread settings
once, when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


class SourceMissing(Exception):
    """The checkout holds no avcil sources to benchmark."""


def import_avcil():
    """Import avcil from this checkout's `src`, never from an installed copy."""
    if not (SRC / "avcil" / "__init__.py").is_file():
        raise SourceMissing(f"no avcil package under {SRC}")
    sys.path.insert(0, str(SRC))
    import avcil
    origin = Path(avcil.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SourceMissing(f"avcil was imported from {origin}, not from {SRC}")
    return avcil
