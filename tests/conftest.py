"""Test-session set-up: one BLAS/OpenMP thread unless the caller chose otherwise.

With several threads, the dense eigen-solves of the large-S table tests slow
down many times over when other work shares the cores.  The variables only
take effect if they are set before numpy is first imported, which is why
they are set here, before any test module is collected.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
