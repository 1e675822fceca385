import os

# one OpenBLAS thread per process, set before anything imports numpy: the
# sweeps' pool workers would otherwise run two threads each on FMat's float
# products and spin against each other
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest
from hypothesis import settings

from modwd import make_ctx

# the same examples on every run, and no per-example time limit: some
# examples build fields or multiply matrices on first use
settings.register_profile("modwd", deadline=None, derandomize=True)
settings.load_profile("modwd")


@pytest.fixture(scope="session")
def ctx52():
    return make_ctx(5, 2)


@pytest.fixture(scope="session")
def ctx32():
    return make_ctx(3, 2)


@pytest.fixture(scope="session")
def ctx23():
    return make_ctx(2, 3)


@pytest.fixture(scope="session")
def ctx34():
    return make_ctx(3, 4)
