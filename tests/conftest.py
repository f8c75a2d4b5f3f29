import numpy as np
import pytest

from proplab import make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def line_grid():
    return make_grid("line", 256, 12.0)


@pytest.fixture
def radial_grid():
    return make_grid("radial3d", 256, 40.0)


def dense_adaptor(adaptor):
    """The n x n B_V = Phi_c D core D^* Phi_c^* written out from the factors an
    AdaptorOperator holds: the test oracle for the matrix no run forms."""
    m = (adaptor.d[:, None] * adaptor.core) * adaptor.d.conj()
    return adaptor.cols @ m @ adaptor.cols.conj().T
