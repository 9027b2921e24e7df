"""Deterministic discrete-event simulator of a CRAHN-based disaster-response
system: MLP disaster detection over a clustered sensor field, learned
spectrum-hole selection, AODV-backed service discovery (gateway discovery is
discovery of a `gateway` service), and XML situation interchange, with a
seeded experiment harness."""

import os

# One OpenBLAS thread unless the caller chose otherwise; it must be set before
# numpy loads, and child processes inherit it. The simulator's matrix products
# are too small to split (the largest is 800x15 by 15x8), so a second thread
# never runs BLAS work, yet it busy-waits after numpy's import: on a 2-vCPU
# x86-64 host with the numpy 2.4.6 wheel (OpenBLAS 0.3.31) that thread burned
# 0.13 s of CPU per process, read from /proc/self/task, and no more after whole
# experiment calls.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .kernel import Kernel, PastTimeError  # noqa: E402
from .mlp import Mlp, train  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "Kernel", "PastTimeError",
    "Mlp", "train",
]
