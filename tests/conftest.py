import numpy as np
import pytest

import nistab as ns


@pytest.fixture(scope="session")
def beam_params():
    return ns.BeamParameters()


@pytest.fixture(scope="session")
def beam_roots(beam_params):
    return ns.find_modal_roots(beam_params, 11)


@pytest.fixture(scope="session")
def arm_plant(beam_params):
    """Case-study plant: one flexible mode plus the rigid double pole."""
    return ns.modal_to_ss(ns.finite_dim_approx(beam_params, 1))


@pytest.fixture(scope="session")
def paper_irc():
    return ns.make_irc(
        [[35.0, 15.0], [15.0, 20.0]],
        [[0.745, 0.521], [0.521, 1.021]],
        [[4.29, 0.0], [0.0, 2.22]],
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def double_integrator():
    return ns.StateSpaceModel([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                              [[1.0, 0.0]], [[0.0]])


def first_order_lag_minus(delta):
    """Gbar(s) = 1/(s+1) - delta, the scalar SNI test controller."""
    return ns.StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[-delta]])


def non_minimal_double_integrator():
    """1/s^2 beside a stable mode s = -1 that the input never reaches."""
    return ns.StateSpaceModel([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                              [[0.0], [1.0], [0.0]], [[1.0, 0.0, 1.0]], [[0.0]])


def ladder_modal_models(seed=1, rungs=(10, 25, 50)):
    """The modal models of the benchmark's seeded ladder rungs (m = 2, one
    rank-one PSD coefficient per mode, full-rank PSD G2)."""
    rng = np.random.default_rng(seed)
    out = []
    for modes in rungs:
        freqs = np.sort(rng.uniform(0.5, 50.0, modes)) + 0.25 * np.arange(modes)
        terms = []
        for w in freqs:
            v = rng.normal(size=2)
            terms.append((w, np.outer(v, v)))
        W = rng.normal(size=(2, 2))
        out.append(ns.ModalModel(m=2, terms=tuple(terms), g2=W @ W.T + 0.1 * np.eye(2)))
    return out
