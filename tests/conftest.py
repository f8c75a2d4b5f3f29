import numpy as np
import pytest

from proplab import QSelection, make_grid, scenarios
from proplab.observables import PropagationObservable
from proplab.operators import OperatorSum
from proplab.suites import _ConformalTerms


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


def plant(monkeypatch, defect):
    """Plant a known defect for a negative control, undone when the test ends:
    ``"flipped_q"``, a sign-flipped adaptor target Q from the run's
    ``conformal_Q``, or ``"negated_db_dt"``, every term of the conformal
    family's analytic dB/dt negated."""
    if defect == "flipped_q":
        conformal_q = scenarios.conformal_Q
        monkeypatch.setattr(scenarios, "conformal_Q", lambda potential, grid: QSelection(
            "custom", -conformal_q(potential, grid).samples))
    elif defect == "negated_db_dt":
        prob = _ConformalTerms.prob

        def negated(self, adaptor):
            family = prob(self, adaptor)
            return PropagationObservable(family.label, family.builder, lambda t: OperatorSum(
                tuple((-k, op) for k, op in family.db_dt(t).terms)))

        monkeypatch.setattr(_ConformalTerms, "prob", negated)
    else:
        raise ValueError(f"unknown defect {defect!r}")
