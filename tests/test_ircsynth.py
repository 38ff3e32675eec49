import numpy as np
import pytest

import nistab as ns
from nistab.errors import DimensionError, NonSymmetricError, NotPDError


def test_benchmark_dc_gain_matches_closed_form(paper_irc):
    expected = np.linalg.inv(paper_irc.Phi) - paper_irc.Delta
    np.testing.assert_allclose(paper_irc.dc_gain(), expected, atol=1e-14)
    np.testing.assert_allclose(
        paper_irc.dc_gain(),
        [[-2.2029, -1.0650], [-1.0650, -0.6971]], atol=5e-5)


def test_scalar_controller_transfer_function():
    irc = ns.make_irc([[1.0]], [[1.0]], [[2.0]])
    # (s + 1)^-1 - 2 at a few points
    for s in (0.0, 1.0, 2j):
        np.testing.assert_allclose(
            ns.eval_tf(irc.realization, s), [[1.0 / (s + 1.0) - 2.0]], atol=1e-12)
    np.testing.assert_allclose(irc.dc_gain(), [[-1.0]], atol=1e-14)
    assert irc.m == 1


def test_indefinite_gamma_rejected():
    with pytest.raises(NotPDError, match="Gamma"):
        ns.make_irc([[1.0, 2.0], [2.0, 1.0]], np.eye(2), np.zeros((2, 2)))


def test_indefinite_phi_rejected():
    with pytest.raises(NotPDError, match="Phi"):
        ns.make_irc(np.eye(2), [[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2)))


def test_asymmetric_delta_rejected():
    with pytest.raises(NonSymmetricError):
        ns.make_irc(np.eye(2), np.eye(2), [[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("name", ["Gamma", "Phi", "Delta"])
def test_asymmetric_matrix_is_named(name):
    mats = {"Gamma": np.eye(2), "Phi": np.eye(2), "Delta": np.zeros((2, 2))}
    mats[name] = mats[name] + [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(NonSymmetricError, match=f"^{name}: asymmetry"):
        ns.make_irc(**mats)


@pytest.mark.parametrize("name", ["Gamma", "Phi", "Delta"])
def test_non_square_matrix_is_named(name):
    mats = {"Gamma": np.eye(2), "Phi": np.eye(2), "Delta": np.zeros((2, 2))}
    mats[name] = np.ones((2, 3))
    with pytest.raises(DimensionError, match=rf"^{name} must be square, got shape \(2, 3\)"):
        ns.make_irc(**mats)


def test_size_mismatch_rejected():
    with pytest.raises(DimensionError):
        ns.make_irc(np.eye(2), np.eye(3), np.zeros((2, 2)))


def test_random_irc_family_is_sni(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        Wg = rng.normal(size=(m, m + 1))
        Wp = rng.normal(size=(m, m + 1))
        S = rng.normal(size=(m, m))
        irc = ns.make_irc(Wg @ Wg.T + 0.1 * np.eye(m),
                          Wp @ Wp.T + 0.1 * np.eye(m),
                          0.5 * (S + S.T))
        assert ns.classify_sni(irc.realization).is_sni
        np.testing.assert_allclose(
            ns.eval_tf(irc.realization, 0.0), irc.dc_gain(), atol=1e-10)
