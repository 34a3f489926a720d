"""Test-session setup.

One BLAS thread in the test process, as ``perfbench`` runs; the pooled
backtests' forked workers pin themselves to one thread whatever this says.
``setdefault`` lets an explicit ``OPENBLAS_NUM_THREADS`` win. It must be set
before numpy is first imported, which is why it lives here.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
