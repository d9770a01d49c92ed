"""State family construction and the pseudo-state embedding."""

import warnings

import numpy as np
import pytest

from pseudobound import core, states
from conftest import A_OPT, KAPPA_H, random_params


def test_ghz_vectors():
    plus, minus = states.ghz(+1), states.ghz(-1)
    assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-15)
    assert abs(np.vdot(plus, minus)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        states.ghz(0)


def test_params_validation_and_flag():
    with pytest.raises(ValueError):
        states.StateParams(0.0, 1.0, 1.0)
    lo, hi = states.PARAM_RANGE
    for a in (lo, hi):
        states.StateParams(a, 1.0, 1.0)
    for a in (-1.0, 0.0, 5e-324, 1e-308, np.nextafter(lo, 0), np.nextafter(hi, np.inf),
              1e200, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"a1, a2, a3 must lie within .* got \(1\.0, "):
            states.StateParams(1.0, 1.0, a)
    assert states.StateParams(2.0, 1.0, 0.5).entangled_regime is False
    assert states.StateParams(2.0, 1.0, 0.5 + 1e-6).entangled_regime is True
    assert states.StateParams.symmetric(A_OPT).entangled_regime is True


def test_family_populations_at_working_point():
    # N and the populations evaluated by hand from the definition
    params = states.StateParams.symmetric(A_OPT)
    n = 2 + 3 * (A_OPT + 1 / A_OPT)
    assert params.normalization == pytest.approx(11.7085202312, abs=1e-9)
    rho = states.bound_entangled_state(params)
    expected = np.array([1, A_OPT, A_OPT, 1 / A_OPT, A_OPT,
                         1 / A_OPT, 1 / A_OPT, 1]) / n
    np.testing.assert_allclose(np.diag(rho.matrix).real, expected, atol=1e-15)
    np.testing.assert_allclose(
        np.diag(rho.matrix).real[:4], [0.0854, 0.0296, 0.0296, 0.2469], atol=1e-4)


def test_family_structure_exact(rng):
    for _ in range(25):
        params = random_params(rng)
        rho = states.bound_entangled_state(params)
        m = rho.matrix
        assert abs(np.trace(m) - 1) <= 1e-15
        assert np.max(np.abs(m - m.conj().T)) <= 1e-15
        off = m - np.diag(np.diag(m))
        nz = np.argwhere(np.abs(off) > 0)
        assert sorted(map(tuple, nz)) == [(0, 7), (7, 0)]
        assert off[0, 7] == pytest.approx(1 / params.normalization, abs=1e-15)


def test_family_ppt_property(rng):
    for _ in range(50):
        rho = states.bound_entangled_state(random_params(rng))
        report = core.is_ppt(rho)
        assert report.all_ppt, report.as_dict()


def test_family_rank():
    rho = states.bound_entangled_state(states.StateParams.symmetric(A_OPT))
    assert core.numeric_rank(rho.matrix) == 7


def _qubit_permutation_matrix(sigma):
    # moves the bit at position j to position sigma[j] (1-based)
    p = np.zeros((8, 8))
    for k in range(8):
        bits = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
        out = [0, 0, 0]
        for j in range(3):
            out[sigma[j] - 1] = bits[j]
        p[4 * out[0] + 2 * out[1] + out[2], k] = 1.0
    return p


@pytest.mark.parametrize("pi", [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1),
                                (2, 3, 1), (3, 1, 2)])
def test_parameter_permutation_symmetry(pi, rng):
    # parameter i is tied to qubit 4-i; permuting parameters permutes qubits
    # through sigma(k) = 4 - pi_inverse(4-k)
    a = tuple(rng.uniform(0.2, 2.5, size=3))
    rho = states.bound_entangled_state(states.StateParams(*a)).matrix
    permuted = states.bound_entangled_state(
        states.StateParams(*(a[pi[i] - 1] for i in range(3)))).matrix
    pi_inv = [0, 0, 0]
    for i, v in enumerate(pi):
        pi_inv[v - 1] = i + 1
    sigma = [4 - pi_inv[4 - k - 1] for k in (1, 2, 3)]
    p = _qubit_permutation_matrix(sigma)
    np.testing.assert_allclose(permuted, p @ rho @ p.T, atol=1e-15)


def test_pseudo_state_limits(rho_opt):
    assert np.max(np.abs(states.pseudo_state(rho_opt, 0.0).rho.matrix
                         - np.eye(8) / 8)) == 0.0
    np.testing.assert_array_equal(states.pseudo_state(rho_opt, 1.0).rho.matrix,
                                  rho_opt.matrix)
    with pytest.raises(ValueError):
        states.pseudo_state(rho_opt, 1.2)


def test_pseudo_state_eigenvalue_box(rho_opt):
    p = KAPPA_H / 3.61
    ps = states.pseudo_state(rho_opt, p)
    vals = ps.rho.eigenvalues()
    assert np.all(vals >= (1 - p) / 8 - 1e-15)
    assert np.all(vals <= (1 - p) / 8 + p + 1e-15)


def test_peel_round_trip(rng, rho_opt):
    for p in (1e-5, 1e-3, 0.37, 1.0):
        peeled = states.peel_identity(states.pseudo_state(rho_opt, p))
        assert np.max(np.abs(peeled.matrix - rho_opt.matrix)) <= 1e-12
    for _ in range(10):
        rho = core.random_density_operator(rng)
        p = float(rng.uniform(1e-6, 1.0))
        peeled = states.peel_identity(states.pseudo_state(rho, p))
        assert np.max(np.abs(peeled.matrix - rho.matrix)) <= 1e-9


def test_peel_identity_of_background():
    mixed = core.maximally_mixed()
    peeled = states.peel_identity(states.PseudoState(mixed, 0.5))
    np.testing.assert_allclose(peeled.matrix, mixed.matrix, atol=1e-15)


def test_peel_requires_positive_p(rho_opt):
    with pytest.raises(ValueError, match="p = 0"):
        states.peel_identity(states.PseudoState(rho_opt, 0.0))


def test_peel_reports_negativity_through_spectrum(rho_opt):
    # push weight out of the zero mode of the family so the peeled state
    # dips negative: no error and no warning, the spectrum shows it
    p = 1e-4
    ps = states.pseudo_state(rho_opt, p)
    minus = states.ghz(-1)
    bump = np.zeros((8, 8), dtype=complex)
    bump[1, 1] = 1.0
    tilt = p * 1e-4 * (bump - np.outer(minus, minus.conj()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        peeled = states.peel_matrix(ps.rho.matrix + tilt, p)
    assert peeled.eigenvalues()[0] < -1e-6
    assert peeled.tolerance >= -peeled.eigenvalues()[0]
