"""Diagonal seed expansion, the five inputs, temporal averaging and the gate sequence."""

from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from pseudobound import core, nmr, states
from conftest import A_OPT, KAPPA_H

PARAMS = states.StateParams.symmetric(A_OPT)


def test_initial_states_structure():
    five = nmr.initial_states(KAPPA_H)
    assert len(five) == 5
    for rho in five:
        m = rho.matrix
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
        assert rho.eigenvalues()[0] >= 0.0
    # pairwise distinct
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.max(np.abs(five[i].matrix - five[j].matrix)) > 1e-7
    # the two-spin order of the second input: deviations +-kappa/16
    dev2 = np.diag(five[1].matrix).real - 1 / 8
    np.testing.assert_allclose(
        np.abs(dev2), KAPPA_H / 16, rtol=1e-9)
    np.testing.assert_allclose(
        np.sign(dev2), [-1, -1, 1, 1, 1, 1, -1, -1], atol=0)
    with pytest.raises(ValueError):
        nmr.initial_states(2e-3)
    with pytest.raises(ValueError):
        nmr.initial_states(0.0)


def test_target_diagonal_coefficients():
    # closed forms implied by the diagonal structure of the seed, evaluated
    # independently of the conjugation code path
    a = A_OPT
    denom = a * (3 * a + 2) + 3
    d_a = 2 * ((a - 2) * a - 1) / denom
    d_b = -2 * (a - 1) ** 2 / denom
    d_e = 48 / denom - 8
    expansion = nmr.target_diagonal(PARAMS, 2.3e-5)
    assert expansion.single_spin[0] == pytest.approx(d_a, abs=1e-9)
    assert expansion.single_spin[1] == pytest.approx(d_b, abs=1e-9)
    assert expansion.single_spin[2] == pytest.approx(d_b, abs=1e-9)
    assert expansion.two_spin[0] == pytest.approx(2 * d_a, abs=1e-9)
    assert expansion.two_spin[1] == pytest.approx(2 * d_a, abs=1e-9)
    assert expansion.two_spin[2] == pytest.approx(2 * d_b, abs=1e-9)
    assert expansion.three_spin == pytest.approx(d_e, abs=1e-9)
    # the two-digit working-point values
    assert d_a == pytest.approx(-0.78, abs=0.01)
    assert d_b == pytest.approx(-0.21, abs=0.01)
    assert d_e == pytest.approx(3.85, abs=0.01)


def _product_operator_expansion(matrix, scale):
    """Oracle: trace inner products against the products of spin operators I_z."""
    iz = [core.tensor(*(core.PAULI_Z / 2 if k == q else core.PAULI_I for k in range(3)))
          for q in range(3)]
    dev = matrix - np.eye(8) / 8.0
    out = []
    for qubits in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)):
        op = reduce(np.matmul, [iz[q] for q in qubits])
        out.append(np.real(np.trace(dev @ op) / np.trace(op @ op)) * 8.0 / scale)
    return np.array(out)


def _coefficients(spec):
    return np.array(spec.single_spin + spec.two_spin + (spec.three_spin,))


def test_expansion_matches_product_operators(rng):
    for a in (0.1, 0.346, 1.0, 3.0):
        spec = nmr.target_diagonal(states.StateParams.symmetric(a), 2.3e-5)
        oracle = _product_operator_expansion(spec.state.matrix, 2.3e-5)
        np.testing.assert_allclose(_coefficients(spec), oracle, rtol=0, atol=1e-12)
    for _ in range(20):
        scale = 10 ** rng.uniform(-5, 0)
        d = rng.uniform(-0.5, 0.5, size=8)
        matrix = np.diag(1 / 8 + scale * (d - d.mean()) / 8).astype(complex)
        spec = nmr.expand_diagonal_state(matrix, scale)
        np.testing.assert_allclose(_coefficients(spec),
                                   _product_operator_expansion(matrix, scale),
                                   rtol=0, atol=1e-12)


def test_target_diagonal_guards():
    with pytest.raises(ValueError, match="symmetric"):
        nmr.target_diagonal(states.StateParams(0.3, 0.3, 0.4), 1e-5)
    with pytest.raises(ValueError):
        nmr.target_diagonal(PARAMS, 0.0)


def test_expand_diagonal_state_checks_diagonality():
    seed = np.diag([1 / 8 + 1e-5] + [1 / 8] * 6 + [1 / 8 - 1e-5]).astype(complex)
    seed[[1, 2], [1, 2]] += [3e-14j, -3e-14j]   # rounding-level imaginary populations
    refused, accepted = seed.copy(), seed.copy()
    refused[2, 5], refused[5, 2] = 2e-12j, -2e-12j
    accepted[2, 5], accepted[5, 2] = 5e-13j, -5e-13j
    with pytest.raises(ValueError, match=r"not diagonal \(off-diagonal 2.000e-12"):
        nmr.expand_diagonal_state(refused, 1e-5)
    state = nmr.expand_diagonal_state(accepted, 1e-5).state.matrix
    assert np.all(np.imag(state) == 0)
    np.testing.assert_array_equal(state, np.diag(np.real(np.diag(seed))))


def test_target_diagonal_scaling_linearity():
    base = nmr.target_diagonal(PARAMS, 1e-5).state.matrix - np.eye(8) / 8
    scaled = nmr.target_diagonal(PARAMS, 3e-5).state.matrix - np.eye(8) / 8
    np.testing.assert_allclose(scaled, 3 * base, atol=1e-18)


def test_single_spin_ratio():
    r = nmr.single_spin_ratio(A_OPT)
    assert r == pytest.approx(0.27, abs=0.005)
    assert r == pytest.approx(0.2720348, abs=1e-6)


def test_matched_fraction():
    p = nmr.matched_fraction(PARAMS, KAPPA_H)
    assert KAPPA_H / p == pytest.approx(3.61, abs=0.01)
    # past a of about 1.39 the five inputs' z-order budget changes sign
    with pytest.raises(ValueError, match="cannot synthesize the seed at a=1.4"):
        nmr.matched_fraction(states.StateParams.symmetric(1.4), KAPPA_H)


def test_weight_solver_exact_single_target():
    five = nmr.initial_states(KAPPA_H)
    target = nmr.expand_diagonal_state(five[2], KAPPA_H)
    sol = nmr.solve_temporal_weights(five, target)
    np.testing.assert_allclose(sol.weights, [0, 0, 1, 0, 0], atol=1e-9)
    assert sol.residual <= 1e-12
    assert sol.achieved_p == pytest.approx(KAPPA_H, rel=1e-9)


def test_weight_solver_reaches_seed_exactly():
    p = nmr.matched_fraction(PARAMS, KAPPA_H)
    five = nmr.initial_states(KAPPA_H)
    sol = nmr.solve_temporal_weights(five, nmr.target_diagonal(PARAMS, p))
    assert sol.residual <= 1e-10
    assert np.all(sol.weights >= 0)
    assert np.sum(sol.weights) == pytest.approx(1.0, abs=1e-12)
    assert sol.achieved_p == pytest.approx(p, rel=1e-9)
    # the two-digit reference weights, once renormalized to an actual simplex
    reference = np.array([0.36, 0.27, 0.29, 0.08, 0.27])
    np.testing.assert_allclose(sol.weights, reference / reference.sum(),
                               atol=0.01)


def test_weight_solver_reports_infeasible_target():
    five = nmr.initial_states(KAPPA_H)
    # a GHZ-corner-free diagonal state the five spin orders cannot reach
    odd = np.eye(8, dtype=complex) / 8.0
    odd[0, 0] += 5e-5
    odd[1, 1] -= 5e-5
    sol = nmr.solve_temporal_weights(
        five, nmr.expand_diagonal_state(odd, KAPPA_H))
    assert sol.residual > 1e-6 * KAPPA_H


def _oracle_weights(states_, target):
    """Best feasible sum-to-one least-squares fit over all supports."""
    dev = np.column_stack([np.diag(s.matrix).real for s in states_]) - 1 / 8
    t = np.diag(target.state.matrix).real - 1 / 8
    scale = np.max(np.linalg.norm(dev, axis=0))
    dev, t = dev / scale, t / scale
    best, best_value = None, np.inf
    for size in range(1, dev.shape[1] + 1):
        for support in combinations(range(dev.shape[1]), size):
            # the last weight of the support is one minus the others
            cols = dev[:, support]
            free, *_ = np.linalg.lstsq(cols[:, :-1] - cols[:, -1:], t - cols[:, -1],
                                       rcond=None)
            q = np.zeros(dev.shape[1])
            q[list(support)] = np.append(free, 1 - free.sum())
            value = np.linalg.norm(dev @ q - t)
            if q.min() >= 0 and value < best_value:
                best, best_value = q, value
    return best


def _weight_cases():
    rng = np.random.default_rng(7)
    five = nmr.initial_states(KAPPA_H)
    for a in (0.25, 0.346, 0.45, 1.0, 2.0):
        params = states.StateParams.symmetric(a)
        inputs = nmr.initial_states(KAPPA_H, a=a)
        matched = [nmr.matched_fraction(params, KAPPA_H)] if a < 1.3 else []
        for p in matched + [1e-5, 5e-5, 1e-4]:
            yield f"a={a} p={p:.3g}", inputs, nmr.target_diagonal(params, p)
    for k in range(20):
        dev = rng.standard_normal(8) * KAPPA_H / 8
        target = np.diag(1 / 8 + dev - dev.mean()).astype(complex)
        yield f"random {k}", five, nmr.expand_diagonal_state(target, KAPPA_H)
    yield "zero target", five, nmr.expand_diagonal_state(np.eye(8) / 8, KAPPA_H)
    seed = nmr.target_diagonal(PARAMS, nmr.matched_fraction(PARAMS, KAPPA_H))
    for k in range(5):
        yield f"without input {k}", five[:k] + five[k + 1:], seed


def test_weight_solver_matches_support_enumeration():
    for label, inputs, target in _weight_cases():
        sol = nmr.solve_temporal_weights(inputs, target)
        np.testing.assert_allclose(sol.weights, _oracle_weights(inputs, target),
                                   rtol=0, atol=1e-12, err_msg=label)


def test_weight_solver_refuses_degenerate_inputs():
    five = nmr.initial_states(KAPPA_H)
    target = nmr.target_diagonal(PARAMS, 1e-5)
    for inputs, message in ((five + [five[0]], "orthogonal"),
                            (five[:4] + [nmr.mix_states(five[3:], [0.5, 0.5])], "orthogonal"),
                            (five + [core.DensityOperator(np.eye(8) / 8)], "no deviation")):
        with pytest.raises(ValueError, match=message):
            nmr.solve_temporal_weights(inputs, target)


def test_preparation_unitary():
    u = nmr.preparation_unitary()
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-14)
    ghz = states.ghz(+1)
    e100 = np.zeros(8); e100[4] = 1.0
    np.testing.assert_allclose(u @ e100, ghz, atol=1e-15)


def test_preparation_factorization():
    v_sel, v_cnot = nmr.factor_preparation()
    u = nmr.preparation_unitary()
    np.testing.assert_allclose(v_cnot @ v_sel, u, atol=1e-14)
    for v in (v_sel, v_cnot):
        np.testing.assert_allclose(v @ v.conj().T, np.eye(8), atol=1e-14)
    # the selective rotation only touches the (|000>, |100>) plane
    e000 = np.zeros(8); e000[0] = 1.0
    e100 = np.zeros(8); e100[4] = 1.0
    np.testing.assert_allclose(v_sel @ e100, (e000 + e100) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(v_sel @ e000, (e000 - e100) / np.sqrt(2), atol=1e-15)
    for k in (1, 2, 3, 5, 6, 7):
        e = np.zeros(8); e[k] = 1.0
        np.testing.assert_allclose(v_sel @ e, e, atol=1e-15)
    # the remainder only permutes populations
    mods = np.abs(v_cnot)
    assert np.all(np.isclose(mods, 0, atol=1e-14) | np.isclose(mods, 1, atol=1e-14))


def test_preparation_weld():
    # the single assertion tying the seed, the five inputs, the weights and
    # the gate sequence together
    p = nmr.matched_fraction(PARAMS, KAPPA_H)
    five = nmr.initial_states(KAPPA_H)
    sol = nmr.solve_temporal_weights(five, nmr.target_diagonal(PARAMS, p))
    rho_d = nmr.mix_states(five, sol.weights)
    u = nmr.preparation_unitary()
    prepared = u @ rho_d.matrix @ u.conj().T
    expected = states.pseudo_state(states.bound_entangled_state(PARAMS),
                                   sol.achieved_p).rho.matrix
    assert np.max(np.abs(prepared - expected)) <= 1e-12


def test_prepare_pseudo_state_any_scale():
    for p in (1e-5, 5e-4):
        ps = nmr.prepare_pseudo_state(nmr.target_diagonal(PARAMS, p))
        expected = states.pseudo_state(states.bound_entangled_state(PARAMS), p)
        assert np.max(np.abs(ps.rho.matrix - expected.rho.matrix)) <= 1e-12


def test_conjugation_preserves_spectrum(rng):
    u = nmr.preparation_unitary()
    for _ in range(10):
        rho = core.random_density_operator(rng)
        before = np.linalg.eigvalsh(rho.matrix)
        after = np.linalg.eigvalsh(u @ rho.matrix @ u.conj().T)
        np.testing.assert_allclose(after, before, atol=1e-12)


def test_depolarize(rho_opt):
    np.testing.assert_array_equal(nmr.depolarize(rho_opt, 0.0).matrix,
                                  rho_opt.matrix)
    np.testing.assert_allclose(nmr.depolarize(rho_opt, 1.0).matrix,
                               np.eye(8) / 8, atol=1e-16)
    with pytest.raises(ValueError):
        nmr.depolarize(rho_opt, 1.5)


def test_depolarization_level_for_target_distance(rho_opt):
    # bisection on the monotone map lambda -> trace distance
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if core.trace_distance(rho_opt, nmr.depolarize(rho_opt, mid)) < 0.09:
            lo = mid
        else:
            hi = mid
    assert 0.0 < lo < 1.0
    assert core.trace_distance(rho_opt, nmr.depolarize(rho_opt, lo)) == \
        pytest.approx(0.09, abs=1e-6)
