"""Diagonal seed expansion, the five inputs, temporal averaging and the gate sequence."""

from functools import reduce
from itertools import combinations

import mpmath
import numpy as np
import pytest

from pseudobound import core, nmr, states
from conftest import A_OPT, KAPPA_H

PARAMS = states.StateParams.symmetric(A_OPT)


def test_initial_states_structure():
    five = nmr.initial_states(KAPPA_H)
    assert len(five) == 5
    for spec in five:
        m = spec.state.matrix
        assert spec.scale == KAPPA_H
        assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
        assert spec.state.eigenvalues()[0] >= 0.0
    # pairwise distinct
    for i in range(5):
        for j in range(i + 1, 5):
            assert np.max(np.abs(five[i].state.matrix - five[j].state.matrix)) > 1e-7
    # the two-spin order of the second input: deviations +-kappa/16
    dev2 = np.diag(five[1].state.matrix).real - 1 / 8
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
    expansion = nmr.target_diagonal(A_OPT, 2.3e-5)
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


def _spec(matrix, scale):
    """A diagonal target state with its coefficients read off by the oracle."""
    return nmr.DiagonalStateSpec(tuple(_product_operator_expansion(matrix, scale)), scale)


# the fraction at which coefficients are read off a state: the larger p, the less
# the Id/8 background's rounding weighs in them
_REFERENCE_P = 0.9


def _conjugated_family(a, p):
    """The reference seed: the pseudo state at ``a`` conjugated by the inverse preparation."""
    u = nmr.preparation_unitary()
    family = states.bound_entangled_state(states.StateParams.symmetric(a))
    return u.conj().T @ states.pseudo_state(family, p).matrix @ u


def test_expansion_matches_product_operators():
    for a in (0.1, 0.346, 1.0, 3.0):
        seed = nmr.target_diagonal(a, 2.3e-5).state.matrix
        assert np.max(np.abs(seed - _conjugated_family(a, 2.3e-5))) <= 1e-15
        spec = nmr.target_diagonal(a, _REFERENCE_P)
        oracle = _product_operator_expansion(spec.state.matrix, _REFERENCE_P)
        np.testing.assert_allclose(_coefficients(spec), oracle, rtol=0, atol=1e-12)


def test_target_diagonal_guards():
    # a is checked once, in the closed form that every preparation function reads,
    # and before matched_fraction's domain and kappa: an a past A_MAX is no excuse
    for a in (0.0, -1.0, 5e-324, 1e200, np.inf, np.nan):
        for call in (lambda: nmr.target_diagonal(a, 1e-5),
                     lambda: nmr.matched_fraction(a, 0.0),
                     lambda: nmr.single_spin_ratio(a)):
            with pytest.raises(ValueError, match="a1, a2, a3 must lie within"):
                call()
    # p lies within (0, 1]; at p = 1 the seed is the conjugated family state itself
    for p in (0.0, -1e-5, 1.0 + 1e-15, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
            nmr.target_diagonal(A_OPT, p)
    seed = nmr.target_diagonal(A_OPT, 1.0)
    assert np.max(np.abs(seed.state.matrix - _conjugated_family(A_OPT, 1.0))) <= 1e-15


def test_target_diagonal_scaling_linearity():
    base = nmr.target_diagonal(A_OPT, 1e-5).state.matrix - np.eye(8) / 8
    scaled = nmr.target_diagonal(A_OPT, 3e-5).state.matrix - np.eye(8) / 8
    np.testing.assert_allclose(scaled, 3 * base, atol=1e-18)


def test_single_spin_ratio():
    r = nmr.single_spin_ratio(A_OPT)
    assert r == pytest.approx(0.27, abs=0.005)
    assert r == pytest.approx(0.2720348, abs=1e-6)


def test_default_p_is_the_matched_fraction_at_the_working_point():
    # DEFAULT_P is written as kappa / 3.61; 3.61 rounds the matched ratio
    p = nmr.matched_fraction(states.A_OPT, nmr.DEFAULT_KAPPA_H)
    assert nmr.DEFAULT_P == pytest.approx(p, rel=1e-4)


def test_matched_fraction():
    p = nmr.matched_fraction(A_OPT, KAPPA_H)
    assert KAPPA_H / p == pytest.approx(3.61, abs=0.01)
    assert nmr.A_MAX == pytest.approx(0.720759220056, abs=1e-12)
    nmr.matched_fraction(0.7207, KAPPA_H)
    # past a_max the seed's three-spin order, and that input's weight, is negative
    for a in (0.7208, 1.0, 1.4):
        with pytest.raises(ValueError, match=rf"cannot synthesize the seed at a={a:g}:.*"
                                             r"\(sqrt\(10\) - 1\)/3 = 0\.72075922005.*--p"):
            nmr.matched_fraction(a, KAPPA_H)


# a from 1e-3 to 1e3, without the single-spin ratio's pole at 1 + sqrt(2)
_CLOSED_FORM_A = [a for a in np.geomspace(1e-3, 1e3, 200) if abs(a - (1 + np.sqrt(2))) > 1e-2]


def test_seed_orders_match_the_conjugated_family():
    for a in np.geomspace(1e-3, 1e3, 200):
        reference = _product_operator_expansion(
            _conjugated_family(a, _REFERENCE_P), _REFERENCE_P)
        np.testing.assert_allclose(nmr._seed_orders(a), reference,
                                   rtol=0, atol=1e-12, err_msg=f"a={a}")


def test_ratio_and_fraction_match_the_conjugated_family():
    # each z-order's input amplitude, in the order z1, z1z2, z1z3, z2z3, z1z2z3
    amplitudes = np.array([-1.0, *nmr.TWO_SPIN_AMPLITUDES, nmr.THREE_SPIN_AMPLITUDE])
    for a in _CLOSED_FORM_A:
        c = _product_operator_expansion(_conjugated_family(a, _REFERENCE_P), _REFERENCE_P)
        assert nmr.single_spin_ratio(a) == pytest.approx(c[1] / c[0], rel=1e-12, abs=0)
        # every weight order/amplitude is non-negative where the three-spin order is
        if c[6] >= 0:
            budget = float(c[[0, 3, 4, 5, 6]] @ (1 / amplitudes))
            assert nmr.matched_fraction(a, KAPPA_H) == pytest.approx(
                KAPPA_H / budget, rel=1e-12, abs=0)
        else:
            with pytest.raises(ValueError, match="cannot synthesize"):
                nmr.matched_fraction(a, KAPPA_H)


def test_initial_states_name_a_at_the_diverging_ratio():
    # within 1000 ulps of 1 + sqrt(2) the C single-spin order of the seed
    # is zero or tiny: either the ratio or the input's positivity fails
    pole = 1 + np.sqrt(2)
    below = pole - np.spacing(pole) * np.arange(1000, 0, -1)
    above = pole + np.spacing(pole) * np.arange(0, 1001)
    for a in np.concatenate([below, above]).tolist():
        with pytest.raises(ValueError, match=r"a=2\.414"):
            nmr.initial_states(KAPPA_H, a)
    with pytest.raises(ValueError, match="single-spin ratio diverges at a=2.414213562373095"):
        nmr.single_spin_ratio(2.414213562373095)


def test_single_spin_input_is_refused_exactly_where_its_matrix_is_not_positive():
    # at kappa = 1e-3 the single-spin input's smallest population changes sign
    # at |r| = 999.5, on both sides of the pole at a = 1 + sqrt(2)
    kappa = nmr.KAPPA_RANGE[1]
    outcomes = set()
    for a in np.linspace(2.412, 2.416, 81):
        r = nmr.single_spin_ratio(a)
        lowest = np.min(np.diag(nmr._z_order_matrix([-1, -r, -r, 0, 0, 0, 0], kappa)).real)
        try:
            nmr.initial_states(kappa, a)
            refused = False
        except ValueError as exc:
            assert f"a={a:g}" in str(exc)
            refused = True
        assert refused == (lowest < 0), f"a={a}, r={r}, lowest population {lowest}"
        outcomes.add(refused)
    assert outcomes == {False, True}


def test_weight_solver_exact_single_target():
    five = nmr.initial_states(KAPPA_H)
    sol = nmr.solve_temporal_weights(five, five[2])
    np.testing.assert_allclose(sol.weights, [0, 0, 1, 0, 0], atol=1e-9)
    assert sol.residual <= 1e-12
    assert sol.achieved_p == pytest.approx(KAPPA_H, rel=1e-9)


def test_weight_solver_reaches_seed_exactly():
    p = nmr.matched_fraction(A_OPT, KAPPA_H)
    five = nmr.initial_states(KAPPA_H)
    sol = nmr.solve_temporal_weights(five, nmr.target_diagonal(A_OPT, p))
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
    sol = nmr.solve_temporal_weights(five, _spec(odd, KAPPA_H))
    assert sol.residual > 1e-6 * KAPPA_H


def _rows(specs):
    """Deviations from Id/8 in z-order coordinates, scale * order / 2^k, one column each.

    The operators' diagonals are orthogonal sign vectors of squared norm 8,
    so these coordinates keep the diagonal's inner product up to a factor 8.
    """
    weights = 2.0 ** np.array([1, 1, 1, 2, 2, 2, 3])   # 2^k for a k-spin order
    return np.column_stack([s.scale * np.array(s.orders) / weights for s in specs])


def _oracle_weights(states_, target):
    """Best feasible sum-to-one least-squares fit over all supports."""
    dev, t = _rows(states_), _rows([target])[:, 0]
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
        inputs = nmr.initial_states(KAPPA_H, a=a)
        matched = [nmr.matched_fraction(a, KAPPA_H)] if a <= nmr.A_MAX else []
        for p in matched + [1e-5, 5e-5, 1e-4]:
            yield f"a={a} p={p:.3g}", inputs, nmr.target_diagonal(a, p)
    for k in range(20):
        dev = rng.standard_normal(8) * KAPPA_H / 8
        target = np.diag(1 / 8 + dev - dev.mean()).astype(complex)
        yield f"random {k}", five, _spec(target, KAPPA_H)
    yield "zero target", five, _spec(np.eye(8, dtype=complex) / 8, KAPPA_H)
    seed = nmr.target_diagonal(A_OPT, nmr.matched_fraction(A_OPT, KAPPA_H))
    for k in range(5):
        yield f"without input {k}", five[:k] + five[k + 1:], seed


def test_weight_solver_matches_support_enumeration():
    for label, inputs, target in _weight_cases():
        sol = nmr.solve_temporal_weights(inputs, target)
        np.testing.assert_allclose(sol.weights, _oracle_weights(inputs, target),
                                   rtol=0, atol=1e-12, err_msg=label)


def test_seed_expansion_needs_a_symmetric_triple_and_inputs():
    # a alone names the symmetric triple (a, a, a): the seed keeps the exchange
    # of spins 2 and 3 (H and F), in both its single-spin and its two-spin orders
    for a in (0.1, A_OPT, nmr.A_MAX, 3.0):
        orders = nmr.target_diagonal(a, 1e-5).orders
        assert orders[1] == orders[2] and orders[3] == orders[4]
    with pytest.raises(ValueError, match="^no input states$"):
        nmr.solve_temporal_weights([], nmr.target_diagonal(A_OPT, 1e-5))


def test_weight_solver_refuses_degenerate_inputs():
    five = nmr.initial_states(KAPPA_H)
    target = nmr.target_diagonal(A_OPT, 1e-5)
    # the two-spin z2z3 input mixed half and half with the single-spin one
    mixed = nmr.DiagonalStateSpec(tuple(0.5 * np.add(five[3].orders, five[4].orders)), KAPPA_H)
    for inputs, message in ((five + [five[0]], "orthogonal"),
                            (five[:4] + [mixed], "orthogonal"),
                            (five + [nmr.DiagonalStateSpec((0.0,) * 7, KAPPA_H)], "no deviation")):
        with pytest.raises(ValueError, match=message):
            nmr.solve_temporal_weights(inputs, target)


def _exact_weights(a):
    """Oracle: the five weights at the matched fraction, to 50 digits.

    From the seed's z-orders (d, b, b, 2d, 2d, 2b, e) as rational functions
    of a; each weight is order/amplitude, normalized to sum to one.
    """
    with mpmath.workdps(50):
        a = mpmath.mpf(float(a))
        m = a * (3 * a + 2) + 3
        d, b, e = 2 * ((a - 2) * a - 1) / m, -2 * (a - 1) ** 2 / m, 48 / m - 8
        amplitudes = [nmr.THREE_SPIN_AMPLITUDE, *nmr.TWO_SPIN_AMPLITUDES, -1.0]
        x = [order / mpmath.mpf(amp) for order, amp in zip((e, 2 * d, 2 * d, 2 * b, d), amplitudes)]
        return [float(v / sum(x)) for v in x]


_DOMAIN = (*np.linspace(nmr.A_MAX / 200, nmr.A_MAX, 200), A_OPT, 0.7207)


def _assert_exact_weights(kappa):
    # solved on z-orders, the weights carry none of the Id/8 background's
    # rounding: one absolute bound holds at every kappa in KAPPA_RANGE
    for a in _DOMAIN:
        seed = nmr.target_diagonal(a, nmr.matched_fraction(a, kappa))
        sol = nmr.solve_temporal_weights(nmr.initial_states(kappa, a=a), seed)
        np.testing.assert_allclose(sol.weights, _exact_weights(a), rtol=0, atol=1e-15,
                                   err_msg=f"kappa={kappa} a={a}")


def test_weights_match_the_exact_synthesis_on_its_domain():
    for kappa in (KAPPA_H, nmr.KAPPA_RANGE[1]):
        _assert_exact_weights(kappa)
    with mpmath.workdps(50):
        # the domain ends at the root of 3a^2 + 2a - 3, where the three-spin order vanishes
        assert abs(nmr.A_MAX - (mpmath.sqrt(10) - 1) / 3) <= 1e-16
        assert _exact_weights(0.7207)[0] > 0 > _exact_weights(0.7208)[0]


def test_weight_solver_accepts_the_inputs_at_the_smallest_kappa():
    # the same absolute bound at KAPPA_RANGE's lower end; below it prepare refuses
    _assert_exact_weights(nmr.KAPPA_RANGE[0])
    with pytest.raises(ValueError, match=r"kappa=9\.9e-08 outside \[1e-07, 0\.001\]"):
        nmr.initial_states(9.9e-8)


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
    p = nmr.matched_fraction(A_OPT, KAPPA_H)
    five = nmr.initial_states(KAPPA_H)
    sol = nmr.solve_temporal_weights(five, nmr.target_diagonal(A_OPT, p))
    rho_d = nmr.mix_states(five, sol.weights)
    u = nmr.preparation_unitary()
    prepared = u @ rho_d.matrix @ u.conj().T
    expected = states.pseudo_state(states.bound_entangled_state(PARAMS),
                                   sol.achieved_p).matrix
    assert np.max(np.abs(prepared - expected)) <= 1e-12


def test_prepare_pseudo_state_any_scale():
    for p in (1e-5, 5e-4):
        ps = nmr.prepare_pseudo_state(nmr.target_diagonal(A_OPT, p))
        expected = states.pseudo_state(states.bound_entangled_state(PARAMS), p)
        assert np.max(np.abs(ps.matrix - expected.matrix)) <= 1e-12


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
