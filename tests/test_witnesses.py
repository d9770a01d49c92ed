"""Witness construction, certification and robustness optimization."""

import numpy as np
import pytest

from pseudobound import core, states, witnesses
from conftest import A_OPT, EPS_OPT, pure_state, random_params, random_product_vectors

W_PARAMS = witnesses.WitnessParams.symmetric(A_OPT, EPS_OPT)


def test_params_validation():
    with pytest.raises(ValueError):
        witnesses.WitnessParams(0.3, 0.3, -0.1, 0.1)
    with pytest.raises(ValueError):
        witnesses.WitnessParams.symmetric(0.3, -1e-3)


def test_base_witness_trace_and_corner(rng):
    for _ in range(20):
        params = random_params(rng)
        wb = witnesses.witness_bar(params)
        assert np.trace(wb).real == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(wb, wb.conj().T, atol=1e-15)
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    corner = -0.5 - 3 * A_OPT / (1 + A_OPT**2)
    assert wb[0, 7].real == pytest.approx(corner, abs=1e-12)
    assert corner == pytest.approx(-1.4270, abs=5e-5)


def test_zero_expectation_on_matching_state(rng):
    for _ in range(100):
        params = random_params(rng)
        val = witnesses.expectation(witnesses.witness_bar(params),
                                    states.bound_entangled_state(params))
        assert abs(val) <= 1e-12


def test_witness_shift():
    params = witnesses.WitnessParams.symmetric(0.7, 0.0)
    np.testing.assert_array_equal(witnesses.witness(params),
                                  witnesses.witness_bar(params.state_params))


def test_witness_expectations(rho_opt):
    w = witnesses.witness(W_PARAMS)
    assert witnesses.expectation(w, rho_opt) == pytest.approx(-EPS_OPT, abs=1e-12)
    ghz_val = witnesses.expectation(w, pure_state(states.ghz(+1)))
    assert ghz_val == pytest.approx(-1.0339, abs=1e-4)
    mixed_val = witnesses.expectation(w, core.maximally_mixed())
    assert mixed_val == pytest.approx((4 - 8 * EPS_OPT) / 8, abs=1e-12)
    assert mixed_val == pytest.approx(0.3931, abs=1e-10)


def test_expectation_rejects_non_hermitian(rho_opt):
    w = np.zeros((8, 8), dtype=complex)
    w[0, 1] = 1.0
    with pytest.raises(ValueError,
                       match=r"^witness is not Hermitian \(defect 1.000e\+00 > tol 1.0e-09\)$"):
        witnesses.expectation(w, rho_opt)


def test_spectrum_closed_form(rng):
    lo, hi = witnesses.witness_spectrum_extremes(W_PARAMS)
    assert -1.040 < lo < -1.028
    assert 1.815 < hi < 1.825
    for _ in range(10):
        a = float(rng.uniform(0.1, 3.0))
        eps = float(rng.uniform(0.0, 0.3))
        lo, _ = witnesses.witness_spectrum_extremes(
            witnesses.WitnessParams.symmetric(a, eps))
        assert lo == pytest.approx(-3 * a / (1 + a * a) - eps, abs=1e-10)


def test_ghz_is_minimal_eigenvector():
    w = witnesses.witness(W_PARAMS)
    lo, _ = witnesses.witness_spectrum_extremes(W_PARAMS)
    g = states.ghz(+1)
    np.testing.assert_allclose(w @ g, lo * g, atol=1e-12)


def test_pseudo_witness_identity(rng):
    for _ in range(20):
        rho = core.random_density_operator(rng)
        p = float(rng.uniform(1e-6, 1.0))
        w = witnesses.witness_bar(random_params(rng))
        lhs = witnesses.expectation(witnesses.pseudo_witness(w, p),
                                    states.pseudo_state(rho, p).rho)
        rhs = witnesses.expectation(w, rho)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_pseudo_witness_identity_input(rng):
    # the identity witness is a fixed point of the rescaling for any p
    for p in (1e-5, 0.3, 1.0):
        np.testing.assert_allclose(witnesses.pseudo_witness(np.eye(8), p),
                                   np.eye(8), atol=1e-9)


def test_pseudo_witness_scaling_and_guard():
    w = witnesses.witness(W_PARAMS)
    np.testing.assert_array_equal(witnesses.pseudo_witness(w, 1.0), w)
    p = 2.3e-5
    wn = witnesses.pseudo_witness(w, p)
    assert np.max(np.abs(wn)) == pytest.approx(np.max(np.abs(w)) / p, rel=1e-3)
    assert np.max(np.abs(wn)) > 4e4
    with pytest.raises(ValueError):
        witnesses.pseudo_witness(w, 0.0)


def test_product_minimum_trivial_cases():
    assert witnesses.min_over_product_states(np.eye(8), restarts=5,
                                             seed=0).value == pytest.approx(1.0, abs=1e-12)
    minus = states.ghz(-1)
    proj = np.outer(minus, minus.conj())
    val = witnesses.min_over_product_states(proj, restarts=20, seed=0).value
    assert val == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        witnesses.min_over_product_states(np.eye(8), restarts=0)


def _oracle_min_over_product_states(w_bar, restarts, seed, max_sweeps=200):
    """Reference: the same descent, one start and one qubit at a time."""
    w6 = np.asarray(w_bar, dtype=complex).reshape(2, 2, 2, 2, 2, 2)
    rng = np.random.default_rng(seed)

    def effective(states, qubit):
        a, b, c = states
        if qubit == 0:
            return np.einsum("ibcjef,b,c,e,f->ij", w6, b.conj(), c.conj(), b, c)
        if qubit == 1:
            return np.einsum("aicdjf,a,c,d,f->ij", w6, a.conj(), c.conj(), a, c)
        return np.einsum("abidej,a,b,d,e->ij", w6, a.conj(), b.conj(), a, b)

    def ground_state(m):
        a, d, b = m[0, 0].real, m[1, 1].real, m[0, 1]
        lo = (a + d) / 2.0 - np.hypot((a - d) / 2.0, abs(b))
        v = np.array([b, lo - a], dtype=complex)
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            return lo, np.array([1.0, 0.0] if a <= d else [0.0, 1.0], dtype=complex)
        return lo, v / norm

    best_value, best_states = np.inf, None
    for _ in range(restarts):
        states = []
        for _q in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            states.append(v / np.linalg.norm(v))
        value = np.inf
        for _sweep in range(max_sweeps):
            for q in range(3):
                val, states[q] = ground_state(effective(states, q))
            if value - val < 1e-14 * max(1.0, abs(val)):
                value = val
                break
            value = val
        if value < best_value:
            best_value, best_states = value, np.array(states)
    return best_value, best_states


def _random_hermitian(seed):
    g = np.random.default_rng(seed)
    h = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
    return h + h.conj().T


_ORACLE_OPERATORS = {
    **{f"witness_bar-{a}": witnesses.witness_bar(states.StateParams.symmetric(a))
       for a in (0.1, 0.346, 0.5, 1.0)},
    "identity": np.eye(8),
    "ghz-projector": np.outer(states.ghz(-1), states.ghz(-1).conj()),
    "random-hermitian": _random_hermitian(17),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_OPERATORS))
def test_product_minimum_matches_per_restart_oracle(name):
    w = _ORACLE_OPERATORS[name]
    for seed in (0, 1, 2, 3):
        got = witnesses.min_over_product_states(w, restarts=40, seed=seed)
        want, _ = _oracle_min_over_product_states(w, restarts=40, seed=seed)
        assert abs(got.value - want) <= 1e-14 * max(1.0, abs(want))
        assert got.states.shape == (3, 2)
        np.testing.assert_allclose(np.linalg.norm(got.states, axis=1), 1.0, atol=1e-14)
        assert witnesses.product_expectation(w, got.states) == pytest.approx(
            got.value, abs=1e-12)


def test_product_minimum_sweep_limit_matches_oracle():
    w = _ORACLE_OPERATORS["random-hermitian"]
    for max_sweeps in (1, 2, 5):
        got = witnesses.min_over_product_states(w, restarts=30, seed=5,
                                                max_sweeps=max_sweeps)
        want, _ = _oracle_min_over_product_states(w, 30, 5, max_sweeps=max_sweeps)
        assert abs(got.value - want) <= 1e-14 * max(1.0, abs(want))
    with pytest.raises(ValueError):
        witnesses.min_over_product_states(w, max_sweeps=0)


@pytest.mark.parametrize("diagonal", [np.arange(8.0), [0, 1, 1, 1, 1, 1, 1, 0]],
                         ids=["ascending", "tied"])
def test_product_minimum_degenerate_fallback(diagonal):
    # the Bloch tensor has no x or y entries, so every update lands exactly
    # on a pole, |0> = [1, 0] or |1> = [0, -1] as the oracle's 2x2 fallback
    # gives them; the tied operator reaches 0 at both |000> and |111>, and
    # the first start to reach the minimum wins
    w = np.diag(np.asarray(diagonal, dtype=float))
    for seed in range(4):
        result = witnesses.min_over_product_states(w, restarts=25, seed=seed)
        want, want_states = _oracle_min_over_product_states(w, 25, seed)
        assert result.value == want == 0.0
        np.testing.assert_array_equal(result.states, want_states)
        np.testing.assert_array_equal(np.linalg.norm(result.states, axis=1), 1.0)
        if diagonal[-1] != 0:
            np.testing.assert_array_equal(result.states, [[1, 0], [1, 0], [1, 0]])


@pytest.mark.parametrize("w", [np.eye(8), np.zeros((8, 8))], ids=["identity", "zero"])
def test_product_minimum_flat_field_takes_0(w):
    # g = 0 on every update: each qubit takes |0>, as the oracle's a <= d rule
    result = witnesses.min_over_product_states(w, restarts=5, seed=1)
    _, want_states = _oracle_min_over_product_states(w, 5, 1)
    np.testing.assert_array_equal(result.states, want_states)
    np.testing.assert_array_equal(result.states, [[1, 0], [1, 0], [1, 0]])


def _bloch(v):
    # <v| s |v> for s = Id, X, Y, Z
    return np.array([np.vdot(v, s @ v).real for s in core.PAULIS.values()])


@pytest.mark.parametrize("name", ["witness_bar-0.346", "random-hermitian", "identity",
                                  "ghz-projector"])
def test_bloch_tensor_matches_product_expectation(name, rng):
    w = _ORACLE_OPERATORS[name]
    t = witnesses.bloch_tensor(w)
    for _ in range(50):
        vectors = random_product_vectors(rng)
        value = np.einsum("ijk,i,j,k->", t, *(_bloch(v) for v in vectors))
        assert value == pytest.approx(witnesses.product_expectation(w, vectors), abs=1e-12)


@pytest.mark.parametrize("pole", [1.0, -1.0], ids=["near-0", "near-1"])
def test_state_vectors_near_a_pole(pole, rng):
    # Bloch vectors made like a descent update, -g/|g|, with z = +-(1 - 1e-12):
    # the vector built from the far pole would be off by about 1e-9 here
    w = _ORACLE_OPERATORS["random-hermitian"]
    t = witnesses.bloch_tensor(w)
    for _ in range(20):
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        g = np.column_stack([np.sqrt(2e-12) * np.cos(phase), np.sqrt(2e-12) * np.sin(phase),
                             -pole * np.ones(3)]) * rng.uniform(0.5, 3.0, size=(3, 1))
        r = np.column_stack([np.ones(3), -g / np.linalg.norm(g, axis=1, keepdims=True)])
        np.testing.assert_allclose(r[:, 3], pole * (1 - 1e-12), rtol=0, atol=1e-15)
        vectors = witnesses._state_vectors(r)
        np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-15)
        assert witnesses.product_expectation(w, vectors) == pytest.approx(
            np.einsum("ijk,i,j,k->", t, *r), abs=1e-12)


def test_product_minimum_uses_the_hermitian_part():
    h = _ORACLE_OPERATORS["random-hermitian"]
    g = np.random.default_rng(3).standard_normal((2, 8, 8))
    skew = (g[0] + 1j * g[1]) - (g[0] + 1j * g[1]).conj().T
    for seed in (0, 1):
        got = witnesses.min_over_product_states(h + skew, restarts=40, seed=seed)
        want = witnesses.min_over_product_states(h, restarts=40, seed=seed)
        assert got.value == pytest.approx(want.value, abs=1e-12)
        assert witnesses.product_expectation(h, got.states) == pytest.approx(got.value,
                                                                              abs=1e-12)


def test_product_minimum_at_working_point():
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    result = witnesses.min_over_product_states(wb, restarts=400, seed=2)
    assert result.value == pytest.approx(EPS_OPT, abs=2e-3)
    # the best point never beats an explicitly checked product state
    basis = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    assert result.value <= witnesses.product_expectation(
        wb, [basis[0], basis[1], basis[1]]) + 1e-12


def test_working_point_constants_against_closed_form():
    a, eps = states.A_OPT, witnesses.EPS_OPT
    # <101|W_bar|101> = a^2/(1 + a^2) bounds the product minimum: a larger
    # shift would make W negative on a product state, and no witness
    wb = witnesses.witness_bar(states.StateParams.symmetric(a))
    assert wb[5, 5].real == pytest.approx(a**2 / (1 + a**2), rel=1e-14)
    assert eps <= a**2 / (1 + a**2)
    # the closed form solves a + 1/a = 1 + sqrt5, with eps* = a*/(1 + sqrt5)
    a_star = (1 + np.sqrt(5) - np.sqrt(2 + 2 * np.sqrt(5))) / 2
    assert a_star + 1 / a_star == pytest.approx(1 + np.sqrt(5), rel=1e-15)
    assert abs(a - a_star) < 2e-5
    assert abs(eps - a_star / (1 + np.sqrt(5))) < 3e-5


def test_product_minimum_monotone_in_restarts():
    wb = witnesses.witness_bar(states.StateParams.symmetric(0.5))
    few = witnesses.min_over_product_states(wb, restarts=10, seed=9)
    many = witnesses.min_over_product_states(wb, restarts=80, seed=9)
    assert many.value <= few.value + 1e-15


def test_product_minimum_is_lower_bound(rng):
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    best = witnesses.min_over_product_states(wb, restarts=300, seed=4).value
    for _ in range(200):
        sample = witnesses.product_expectation(wb, random_product_vectors(rng))
        assert best <= sample + 1e-12


def test_base_witness_nonnegative_on_separable(rng):
    # sanity of decomposability: product states (and their mixtures, by
    # convexity checked explicitly) never go negative
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    values = np.array([
        witnesses.product_expectation(wb, random_product_vectors(rng))
        for _ in range(10_000)
    ])
    assert values.min() >= -1e-12
    for _ in range(200):
        k = int(rng.integers(2, 6))
        weights = rng.dirichlet(np.ones(k))
        picks = rng.integers(0, len(values), size=k)
        assert float(weights @ values[picks]) >= -1e-12


def test_white_noise_threshold_values(rho_opt):
    w = witnesses.witness(W_PARAMS)
    assert witnesses.white_noise_threshold(w, rho_opt) == pytest.approx(0.7862,
                                                                        abs=1e-6)
    # symmetric crossover: expectation on the state equals minus the noise term
    toy = np.diag([0.9, -0.1, 0, 0, 0, 0, 0, 0]).astype(complex)
    one = np.zeros(8); one[1] = 1.0
    assert witnesses.white_noise_threshold(toy, pure_state(one)) == pytest.approx(0.5)
    # epsilon -> 0 leaves no noise tolerance
    w_tiny = witnesses.witness(witnesses.WitnessParams.symmetric(A_OPT, 1e-6))
    assert witnesses.white_noise_threshold(w_tiny, rho_opt) == pytest.approx(1.0,
                                                                             abs=1e-5)
    with pytest.raises(ValueError, match="does not detect"):
        witnesses.white_noise_threshold(
            witnesses.witness_bar(states.StateParams.symmetric(A_OPT)), rho_opt)


def test_optimizer_smoke_and_determinism():
    kwargs = dict(search_range=(0.2, 0.6), restarts=60, seed=5)
    rep1 = witnesses.optimize_parameters(**kwargs)
    rep2 = witnesses.optimize_parameters(**kwargs)
    assert rep1 == rep2
    assert 0.30 <= rep1.a <= 0.40
    assert rep1.noise_threshold == pytest.approx(1 - 2 * rep1.epsilon_certified,
                                                 abs=1e-9)
    assert rep1.total_restarts == len(rep1.trace) * 60
    with pytest.raises(ValueError):
        witnesses.optimize_parameters(search_range=(0.5, 0.1))


def test_optimizer_threshold_matches_white_noise_threshold():
    # the range ends on the separable boundary a = 1, where epsilon is zero
    report = witnesses.optimize_parameters(search_range=(0.2, 1.0), restarts=60, seed=5)
    assert any(eps <= 0 for _, eps, _ in report.trace)
    for a, eps, q in report.trace:
        if eps <= 0:
            assert q == 1.0
            continue
        params = states.StateParams.symmetric(a)
        reference = witnesses.white_noise_threshold(
            witnesses.witness_bar(params) - eps * np.eye(8),
            states.bound_entangled_state(params))
        assert q == pytest.approx(reference, rel=0, abs=1e-12)
