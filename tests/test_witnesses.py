"""Witness construction, certification and robustness optimization."""

from unittest import mock

import numpy as np
import pytest

from pseudobound import core, states, witnesses
from conftest import A_OPT, EPS_OPT, pure_state, random_params, random_product_vectors

W_PARAMS = witnesses.WitnessParams(states.StateParams.symmetric(A_OPT), EPS_OPT)


def test_params_validation():
    with pytest.raises(ValueError):
        witnesses.WitnessParams(states.StateParams(0.3, 0.3, -0.1), 0.1)
    with pytest.raises(ValueError):
        witnesses.WitnessParams(states.StateParams.symmetric(0.3), -1e-3)
    with pytest.raises(ValueError):
        witnesses.WitnessParams(states.StateParams.symmetric(0.3), 1.7976931348623157e308)


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


def test_base_witness_equals_the_outer_product_construction(rng):
    # the closed-form fill against the GHZ-minus projector plus the
    # populations and the corner, added entry by entry
    for _ in range(200):
        a1, a2, a3 = random_params(rng, 1e-3, 1e3).as_tuple()
        minus = states.ghz(-1)
        want = np.outer(minus, minus.conj())
        for low, high, a in ((1, 6, a1), (2, 5, a2), (4, 3, a3)):
            want[low, low] += 1.0 / (1.0 + a * a)
            want[high, high] += a * a / (1.0 + a * a)
        s = sum(a / (1.0 + a * a) for a in (a1, a2, a3))
        want[0, 7] -= s
        want[7, 0] -= s
        np.testing.assert_array_equal(witnesses.witness_bar(states.StateParams(a1, a2, a3)),
                                      want)


def test_zero_expectation_on_matching_state(rng):
    for _ in range(100):
        params = random_params(rng)
        val = witnesses.expectation(witnesses.witness_bar(params),
                                    states.bound_entangled_state(params))
        assert abs(val) <= 1e-12


def test_witness_shift():
    params = witnesses.WitnessParams(states.StateParams.symmetric(0.7), 0.0)
    np.testing.assert_array_equal(witnesses.witness(params),
                                  witnesses.witness_bar(params.state_params))


def test_witness_expectations(rho_opt):
    w = witnesses.witness(W_PARAMS)
    assert witnesses.expectation(w, rho_opt) == pytest.approx(-EPS_OPT, abs=1e-12)
    ghz_val = witnesses.expectation(w, pure_state(states.ghz(+1)))
    assert ghz_val == pytest.approx(-1.0339, abs=1e-4)
    mixed_val = witnesses.expectation(w, core.DensityOperator(np.eye(8) / 8))
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
            witnesses.WitnessParams(states.StateParams.symmetric(a), eps))
        assert lo == pytest.approx(-3 * a / (1 + a * a) - eps, abs=1e-10)


def test_spectrum_is_the_dense_spectrum_without_an_eigensolve(rng):
    # the closed form against np.linalg.eigvalsh of the 8x8 witness on asymmetric
    # triples over the whole parameter range; the closed form calls nothing in np.linalg
    lo, hi = states.PARAM_RANGE
    triples = [(lo, hi, 1.0), (hi, lo, lo), (lo, lo, lo), (hi, hi, hi)]
    triples += [tuple(10.0 ** rng.uniform(-150, 150, size=3)) for _ in range(200)]
    triples += [tuple(rng.uniform(0.05, 3.0, size=3)) for _ in range(200)]
    for triple in triples:
        params = witnesses.WitnessParams(states.StateParams(*triple),
                                         float(rng.uniform(0.0, 0.5)))
        vals = np.linalg.eigvalsh(witnesses.witness(params))
        with mock.patch.object(np, "linalg", mock.Mock(wraps=np.linalg)) as linalg:
            extremes = witnesses.witness_spectrum_extremes(params)
        assert linalg.mock_calls == []
        assert all(type(x) is float for x in extremes)
        for got, want in zip(extremes, (vals[0], vals[-1])):
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want)), (triple, params.epsilon)


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
                                    states.pseudo_state(rho, p))
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
    # the restarts guard runs before anything is built: over the cap it
    # refuses at once, and at the cap it lets the call go on to the operator's
    # own shape check, which refuses a 2x2 operator before any start is drawn
    with pytest.raises(ValueError, match="exceeds MAX_RESTARTS"):
        witnesses.min_over_product_states(np.eye(8), restarts=witnesses.MAX_RESTARTS + 1)
    with pytest.raises(ValueError, match="operator must be 8x8"):
        witnesses.min_over_product_states(np.eye(2), restarts=witnesses.MAX_RESTARTS)


def _oracle_min_over_product_states(w_bar, restarts, seed, max_sweeps=200, sweeps_run=None):
    """Reference: the same descent, one start and one qubit at a time.

    A list passed as ``sweeps_run`` receives, start by start, the sweeps each ran.
    """
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
        if sweeps_run is not None:
            sweeps_run.append(_sweep + 1)
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
    "witness_bar-0.2-0.5-1.3": witnesses.witness_bar(states.StateParams(0.2, 0.5, 1.3)),
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


def _masked_at_the_cap(sweeps_run, max_sweeps):
    """Starts stopped before the last sweep and still in the packing at it.

    The descent's repack rule: stopped starts stay in the packing until at
    least half of it has stopped, then all of them leave at once.
    """
    n, stopped = len(sweeps_run), 0
    for sweep in range(1, max_sweeps):
        stopped += sweeps_run.count(sweep)
        if 2 * stopped >= n:
            n, stopped = n - stopped, 0
    return stopped


def test_product_minimum_sweep_limit_matches_oracle(monkeypatch):
    # caps 21, 23 and 26 land while starts that stopped earlier sit masked in
    # the packing, 26 after one repack; the states agree up to phase, within
    # 1e-12 in infidelity: a stopped start sits in a flat minimum, where the
    # sum order moves its vectors by about 1e-8
    w = _ORACLE_OPERATORS["random-hermitian"]
    for max_sweeps in (1, 2, 5, 21, 23, 26):
        monkeypatch.setattr(witnesses, "MAX_SWEEPS", max_sweeps)
        got = witnesses.min_over_product_states(w, restarts=30, seed=5)
        sweeps_run = []
        want, want_states = _oracle_min_over_product_states(w, 30, 5, max_sweeps=max_sweeps,
                                                            sweeps_run=sweeps_run)
        assert abs(got.value - want) <= 1e-14 * max(1.0, abs(want))
        overlaps = np.abs(np.einsum("qi,qi->q", got.states.conj(), want_states))
        np.testing.assert_array_less(1.0 - overlaps**2, 1e-12)
        assert (_masked_at_the_cap(sweeps_run, max_sweeps) > 0) == (max_sweeps > 5), max_sweeps


def test_gathered_blocks_are_the_transposed_blocks(rng):
    t = rng.standard_normal((4, 4, 4))
    transposed = [t.transpose(q, j, k).reshape(4, 16) for q, (j, k) in
                  enumerate(witnesses._OTHERS)]
    gathered = t.reshape(64)[witnesses._BLOCK_INDEX]
    assert gathered.shape == (3, 4, 16)
    for q in range(3):
        assert gathered[q].tobytes() == transposed[q].tobytes()


def test_projected_blocks_are_the_blocks_of_the_bloch_tensor():
    # each block entry is +-1/8 times a sum of eight parts of W, each at most M,
    # W's largest real or imaginary part: the projection and bloch_tensor sum them
    # in different orders, each rounding by at most ulp(M)/2 per addition; 4 ulps
    # of M is the budget, 0.5 the largest difference seen
    projection = witnesses._block_projection()
    assert projection.shape == (192, 128) and not projection.flags.writeable
    assert witnesses._block_projection() is projection
    assert set(np.unique(projection)) == {-0.125, 0.0, 0.125}
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    g = np.random.default_rng(3).standard_normal((2, 8, 8))
    operators = [*(witnesses.witness_bar(states.StateParams.symmetric(a))
                   for a in (0.1, A_OPT, 0.5, 1.0)),
                 *(_random_hermitian(k) for k in range(10)),
                 g[0] + 1j * g[1],      # not Hermitian: only its Hermitian part may enter
                 2.0**600 * wb, witnesses.pseudo_witness(wb, 1e-2),
                 witnesses.pseudo_witness(wb, 2.3e-5)]
    for w in operators:
        parts = np.ascontiguousarray(w, dtype=complex).view(float).reshape(128)
        blocks = (projection @ parts).reshape(3, 4, 16)
        t = witnesses.bloch_tensor((w + w.conj().T) / 2.0)
        for q, (j, k) in enumerate(witnesses._OTHERS):
            want = t.transpose(q, j, k).reshape(4, 16) * [[1.0], [-1.0], [-1.0], [-1.0]]
            np.testing.assert_array_less(np.abs(blocks[q] - want),
                                         4 * np.spacing(np.abs(parts).max()) + 1e-300)


def test_product_minimum_reads_any_memory_layout():
    # the operator's parts are read as a view of a C-contiguous copy: a Fortran-
    # ordered copy, a strided view and a transpose raised ValueError before
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    h = _random_hermitian(17)
    frame = np.zeros((16, 16), dtype=complex)
    frame[::2, 1::2] = h
    for layout, c_ordered in ((np.asfortranarray(h), h), (frame[::2, 1::2], h),
                              (wb.T, wb), (h.T, np.ascontiguousarray(h.T))):
        assert not layout.flags.c_contiguous
        for seed in (0, 1):
            got = witnesses.min_over_product_states(layout, restarts=40, seed=seed)
            want = witnesses.min_over_product_states(c_ordered, restarts=40, seed=seed)
            assert got.value == want.value
            assert got.states.tobytes() == want.states.tobytes()


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


@pytest.mark.parametrize("w, value", [(np.eye(8), 1.0), (np.zeros((8, 8)), 0.0)],
                         ids=["identity", "zero"])
def test_product_minimum_flat_field_takes_0(w, value, monkeypatch):
    # g = 0 on every update: each qubit takes |0>, as the oracle's a <= d rule,
    # and the value is g_0 - |g| = g_0, read before the update replaces |g| by 1
    for max_sweeps in (1, 2, witnesses.MAX_SWEEPS):
        monkeypatch.setattr(witnesses, "MAX_SWEEPS", max_sweeps)
        result = witnesses.min_over_product_states(w, restarts=5, seed=1)
        _, want_states = _oracle_min_over_product_states(w, 5, 1, max_sweeps=max_sweeps)
        assert result.value == value
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


@pytest.mark.parametrize("scale", [2.0**600, 1e200], ids=["2^600", "1e200"])
def test_product_minimum_of_a_huge_operator(scale):
    # the squared field of 1e154 W overflowed: the value was -inf, with a
    # warning per sweep; the descent now runs on W scaled by a power of two
    h = _ORACLE_OPERATORS["random-hermitian"]
    for seed in (0, 1, 2):
        want = witnesses.min_over_product_states(h, restarts=40, seed=seed)
        got = witnesses.min_over_product_states(scale * h, restarts=40, seed=seed)
        assert got.value == pytest.approx(scale * want.value, rel=1e-14, abs=0.0)


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
    # the search at its defaults lands on the closed form
    report = witnesses.optimize_parameters()
    assert abs(report.a - a_star) < 1e-6
    assert abs(report.epsilon_certified - a_star / (1 + np.sqrt(5))) < 1e-8


def _symmetric_branch(a):
    """min over u = cos(theta) of W_bar(a, a, a) on the symmetric products |psi>^3.

    g(u) is the expectation at the best relative phase, with U = 1/(1+a^2)
    and |c| = 1/2 + 3a/(1+a^2) the GHZ corner's modulus; a grid brackets
    the minimum and golden-section steps close in on it.
    """
    big_u, c = 1.0 / (1.0 + a * a), 0.5 + 3.0 * a / (1.0 + a * a)

    def g(u):
        return (((1 + u) ** 3 + (1 - u) ** 3) / 16 + 3 * big_u * (1 + u) ** 2 * (1 - u) / 8
                + 3 * (1 - big_u) * (1 + u) * (1 - u) ** 2 / 8 - c / 4 * (1 - u * u) ** 1.5)

    grid = np.linspace(-1.0, 1.0, 2001)
    i = int(np.argmin(g(grid)))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
        lo, hi = (lo, x2) if g(x1) <= g(x2) else (x1, hi)
    return min(g(grid[i]), g((lo + hi) / 2.0))


def test_product_minimum_matches_the_symmetric_closed_form():
    # on symmetric triples the product minimum is the smaller of the |101>
    # vertex, a^2/(1+a^2), and the symmetric branch; checked on the search's
    # grid and at a*, where the two branches touch
    a_star = (1 + np.sqrt(5) - np.sqrt(2 + 2 * np.sqrt(5))) / 2
    for a in [*np.linspace(0.05, 1.0, witnesses.GRID_POINTS), a_star]:
        want = min(a * a / (1 + a * a), _symmetric_branch(a))
        wb = witnesses.witness_bar(states.StateParams.symmetric(a))
        for seed in range(4):
            got = witnesses.min_over_product_states(wb, restarts=250, seed=seed).value
            assert abs(got - want) <= 1e-12, (a, seed)


def test_product_minimum_monotone_in_restarts():
    wb = witnesses.witness_bar(states.StateParams.symmetric(0.5))
    few = witnesses.min_over_product_states(wb, restarts=10, seed=9)
    many = witnesses.min_over_product_states(wb, restarts=80, seed=9)
    assert many.value <= few.value + 1e-15
    # more starts add starts to the same draw, so the value can only fall, but for
    # rounding: a start's sums depend on how many starts share its matrix product
    operators = [*(witnesses.witness_bar(states.StateParams.symmetric(a))
                   for a in np.linspace(0.1, 1.0, 10)),
                 *(_random_hermitian(100 + k) for k in range(10))]
    for w in operators:
        for seed in (0, 1, 2):
            last = np.inf
            for restarts in (10, 37, 64, 100, 173, 250, 400):
                v = witnesses.min_over_product_states(w, restarts=restarts, seed=seed).value
                assert v <= last + 1e-14 * max(1.0, abs(v)), (restarts, seed)
                last = v


def test_product_minimum_is_lower_bound(rng):
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    best = witnesses.min_over_product_states(wb, restarts=300, seed=4).value
    for _ in range(200):
        sample = witnesses.product_expectation(wb, random_product_vectors(rng))
        assert best <= sample + 1e-12


def test_base_witness_nonnegative_on_separable(rng):
    # sanity of decomposability: product states (and their mixtures, by
    # convexity checked explicitly) never go negative.  The states are
    # random_product_vectors' draws, made in one batch: per state and qubit
    # two real parts, then two imaginary parts
    wb = witnesses.witness_bar(states.StateParams.symmetric(A_OPT))
    g = rng.standard_normal((10_000, 3, 2, 2))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    psi = np.einsum("na,nb,nc->nabc", v[:, 0], v[:, 1], v[:, 2]).reshape(-1, 8)
    values = np.einsum("ni,ij,nj->n", psi.conj(), wb, psi).real
    for k in range(0, 10_000, 200):
        assert values[k] == pytest.approx(witnesses.product_expectation(wb, v[k]), abs=1e-12)
    assert values.min() >= -1e-12
    for _ in range(200):
        k = int(rng.integers(2, 6))
        weights = rng.dirichlet(np.ones(k))
        picks = rng.integers(0, len(values), size=k)
        assert float(weights @ values[picks]) >= -1e-12


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


@pytest.mark.parametrize("seed", [0, 3])
def test_optimizer_pins_the_criterion_06_optimum(seed):
    # the search at criterion 06's settings, as recorded from it: a change to the
    # descent's arithmetic that moves the optimum by more than rounding shows here
    report = witnesses.optimize_parameters((0.05, 1.0), restarts=250, seed=seed)
    assert abs(report.a - 0.34601433231408857) <= 1e-12
    assert report.epsilon_certified == pytest.approx(0.10692430730082758, rel=1e-13, abs=0)
    assert report.noise_threshold == pytest.approx(0.7861513853983448, rel=1e-13, abs=0)
    assert report.total_restarts == 12500


def test_optimizer_threshold_matches_white_noise_threshold():
    # the range ends on the separable boundary a = 1, where epsilon is zero
    report = witnesses.optimize_parameters(search_range=(0.2, 1.0), restarts=60, seed=5)
    assert any(eps <= 0 for _, eps, _ in report.trace)
    for a, eps, q in report.trace:
        if eps <= 0:
            assert q == 1.0
            continue
        params = states.StateParams.symmetric(a)
        w = witnesses.witness_bar(params) - eps * np.eye(8)
        # tr(W [(1 - q) Id/8 + q rho]) = 0, solved for q
        noise_term = np.trace(w).real / 8
        state_term = witnesses.expectation(w, states.bound_entangled_state(params))
        assert q == pytest.approx(noise_term / (noise_term - state_term), rel=0, abs=1e-12)


def test_optimizer_trace_holds_python_floats():
    # the trace is wire data: exact floats, as the C encoder writes them in one call
    report = witnesses.optimize_parameters(search_range=(0.3, 0.4), restarts=5, seed=1)
    assert {type(x) for record in report.trace for x in record} == {float}
