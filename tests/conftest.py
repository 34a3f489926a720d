"""Test-session setup.

One BLAS thread, as ``perfbench`` runs: the pooled backtests fork worker
processes that would otherwise each start a BLAS thread pool and compete for
the cores. ``setdefault`` lets an explicit ``OPENBLAS_NUM_THREADS`` win. It
must be set before numpy is first imported, which is why it lives here.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
