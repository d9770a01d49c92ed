"""Tensor algebra, Pauli coordinates, partial transpose, eigensolves and the two metrics."""

import math

import numpy as np
import pytest

from pseudobound import core, nmr, states
from conftest import pure_state

I2, Z = core.PAULI_I, core.PAULI_Z


def _diag8(*head):
    """8x8 diagonal matrix with the given leading entries, zeros after them."""
    return np.diag(list(head) + [0.0] * (8 - len(head))).astype(complex)


def test_tensor_identity():
    out = core.tensor(I2, I2, I2)
    np.testing.assert_array_equal(out, np.eye(8))


def test_tensor_sign_pattern():
    zzi = core.tensor(Z, Z, I2)
    np.testing.assert_allclose(np.diag(zzi), [1, 1, -1, -1, -1, -1, 1, 1])


def test_tensor_three_spin_parity():
    # hand expansion: each basis state contributes (+-1/8) with the parity
    # of its set bits
    iz = [core.tensor(*(Z / 2 if k == q else I2 for k in range(3))) for q in range(3)]
    op = iz[0] @ iz[1] @ iz[2]
    expected = np.array([(-1) ** bin(k).count("1") for k in range(8)]) / 8.0
    np.testing.assert_allclose(np.diag(op).real, expected, atol=1e-15)
    assert np.max(np.abs(op - np.diag(np.diag(op)))) == 0.0


def test_operator_validation():
    # the register is three qubits: every other shape is refused
    for shape in ((8, 7), (2, 3), (3, 3), (2, 2), (4, 4), (16, 16), (8,), (1, 8, 8)):
        with pytest.raises(ValueError, match="8x8"):
            core.check_operator(np.zeros(shape))
    with pytest.raises(ValueError, match="finite"):
        core.check_operator(np.full((8, 8), np.inf))
    # one isfinite over the complex entries covers both parts
    for bad in (np.nan, np.inf, -np.inf):
        for entry in (complex(bad, 0.0), complex(0.5, bad)):
            with pytest.raises(ValueError, match="finite"):
                core.check_operator(_diag8(0.5, entry))


def test_density_operator_invariants():
    upper = _diag8(0.5, 0.5)
    upper[0, 1] = 1.0
    with pytest.raises(ValueError,
                       match=r"^state is not Hermitian \(defect 1.000e\+00 > tol 1.0e-10\)$"):
        core.DensityOperator(upper)
    with pytest.raises(ValueError, match="trace"):
        core.DensityOperator(np.eye(8))
    with pytest.raises(ValueError, match="eigenvalue"):
        core.DensityOperator(_diag8(1.5, -0.5))
    rho = core.DensityOperator(_diag8(0.25, 0.75))
    assert rho.dim == 8
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0   # frozen


def test_state_carries_its_parameters(rng):
    for rho in (core.random_density_operator(rng), core.maximally_mixed()):
        theta = rho.parameters
        np.testing.assert_array_equal(theta, core.state_parameters(rho.matrix))
        assert rho.parameters is theta   # worked out once
        with pytest.raises(ValueError):
            theta[0] = 1.0
        with pytest.raises(AttributeError):
            rho.parameters = np.zeros(63)


def test_state_carries_its_spectrum(rng):
    m = core.random_density_operator(rng).matrix
    rho = core.DensityOperator((m + m.conj().T) / 2)   # exactly Hermitian
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    np.testing.assert_array_equal(rho.eigenvalues(), np.linalg.eigvalsh(rho.matrix))
    assert rho.eigenvalues() is rho.spectrum
    with pytest.raises(ValueError):
        rho.spectrum[0] = 1.0
    # Hermitian only within tolerance: the spectrum of the Hermitian part
    skew = rng.standard_normal((8, 8)) * 1e-12
    near = rho.matrix + 1j * (skew + skew.T)
    assert not np.array_equal(near, near.conj().T)
    loose = core.DensityOperator(near)
    np.testing.assert_array_equal(loose.eigenvalues(),
                                  np.linalg.eigvalsh((near + near.conj().T) / 2))


def test_is_ppt_matches_each_cut_eigensolve(rng):
    rho = core.random_density_operator(rng)
    report = core.is_ppt(rho)
    for cut in report.cuts:
        pt = core.partial_transpose(rho.matrix, cut.cut.transposed)
        assert cut.min_eigenvalue == np.linalg.eigvalsh(pt)[0]
    assert len({c.min_eigenvalue for c in report.cuts}) == 3


def test_partial_transpose_involution_and_trace(rng):
    rho = core.random_density_operator(rng)
    for cut in ((1,), (2,), (3,), (1, 2)):
        pt = core.partial_transpose(rho.matrix, cut)
        np.testing.assert_allclose(core.partial_transpose(pt, cut), rho.matrix,
                                   atol=0)
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-14)
        # PT is Hermiticity-preserving
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)


def test_partial_transpose_complement(rng):
    rho = core.random_density_operator(rng)
    lhs = core.partial_transpose(rho.matrix, (1,))
    rhs = core.partial_transpose(rho.matrix, (2, 3)).T
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_partial_transpose_identity_invariant():
    mixed = core.maximally_mixed().matrix
    for cut in ((1,), (2,), (3,)):
        np.testing.assert_array_equal(core.partial_transpose(mixed, cut), mixed)


def test_partial_transpose_bad_subsystem():
    with pytest.raises(ValueError):
        core.partial_transpose(np.eye(8) / 8, (4,))
    with pytest.raises(ValueError):
        core.partial_transpose(np.eye(8) / 8, ())


def test_ghz_partial_transpose_negative():
    # 8x8 eigensolve of the explicitly transposed projector
    rho = pure_state(states.ghz(+1))
    for cut in ((1,), (2,), (3,)):
        vals = np.linalg.eigvalsh(core.partial_transpose(rho.matrix, cut))
        assert vals[0] == pytest.approx(-0.5, abs=1e-12)


def test_is_ppt_verdicts(rho_opt):
    assert core.is_ppt(core.maximally_mixed()).all_ppt
    ghz_report = core.is_ppt(pure_state(states.ghz(+1)))
    assert not ghz_report.all_ppt
    assert all(not c.ppt for c in ghz_report.cuts)
    report = core.is_ppt(rho_opt)
    assert report.all_ppt
    assert all(c.min_eigenvalue >= -1e-10 for c in report.cuts)
    assert set(report.as_dict()) == {"1|23", "2|13", "3|12"}
    for tolerance in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            core.is_ppt(core.maximally_mixed(), tolerance=tolerance)


def test_eigvalsh_basics(rng):
    np.testing.assert_allclose(core.eigvalsh(np.eye(8)), np.ones(8))
    vals = core.eigvalsh(pure_state(states.ghz(+1)).matrix)
    np.testing.assert_allclose(vals, [0] * 7 + [1], atol=1e-12)
    h = rng.standard_normal((8, 8))
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(defect .* > tol 1.0e-09\)$"):
        core.eigvalsh(h + 1e-3 * (h - h.T))
    sym = h + h.T
    assert np.sum(core.eigvalsh(sym)) == pytest.approx(np.trace(sym), abs=1e-10)


def test_projector_spectrum(rng):
    v = core.random_unitary(rng)[:, :3]
    vals = core.eigvalsh(v @ v.conj().T)
    assert np.all((np.abs(vals) < 1e-9) | (np.abs(vals - 1) < 1e-9))


def test_matrix_sqrt_psd(rng, rho_opt):
    np.testing.assert_allclose(core.matrix_sqrt_psd(np.eye(8)), np.eye(8))
    proj = np.zeros((8, 8)); proj[0, 0] = 4.0
    np.testing.assert_allclose(core.matrix_sqrt_psd(proj), proj / 2)
    root = core.matrix_sqrt_psd(rho_opt.matrix)
    np.testing.assert_allclose(root @ root, rho_opt.matrix, atol=1e-10)
    with pytest.raises(ValueError, match="PSD"):
        core.matrix_sqrt_psd(_diag8(1.0, -1e-3))


def test_fidelity_basics(rng, rho_opt):
    assert core.uhlmann_fidelity(rho_opt, rho_opt) == pytest.approx(1.0, abs=1e-12)
    zero, seven = np.zeros(8), np.zeros(8)
    zero[0] = 1.0; seven[7] = 1.0
    assert core.uhlmann_fidelity(pure_state(zero), pure_state(seven)) == 0.0
    noisy = nmr.depolarize(rho_opt, 0.05)
    f = core.uhlmann_fidelity(rho_opt, noisy)
    assert 0.97 < f < 1.0


def test_trace_distance_basics(rho_opt):
    assert core.trace_distance(rho_opt, rho_opt) == 0.0
    zero, seven = np.zeros(8), np.zeros(8)
    zero[0] = 1.0; seven[7] = 1.0
    assert core.trace_distance(pure_state(zero), pure_state(seven)) == 1.0


def test_trace_distance_triangle(rng):
    for _ in range(20):
        a = core.random_density_operator(rng)
        b = core.random_density_operator(rng)
        c = core.random_density_operator(rng)
        assert core.trace_distance(a, c) <= (
            core.trace_distance(a, b) + core.trace_distance(b, c) + 1e-12)


def test_fuchs_van_de_graaf(rng):
    for _ in range(100):
        a = core.random_density_operator(rng)
        b = core.random_density_operator(rng)
        f = core.uhlmann_fidelity(a, b)
        dt = core.trace_distance(a, b)
        assert 1 - f <= dt + 1e-10
        assert dt <= np.sqrt(max(0.0, 1 - f * f)) + 1e-10


def test_numeric_rank(rng, rho_opt):
    assert core.numeric_rank(rho_opt.matrix) == 7
    assert core.numeric_rank(np.eye(8) / 8) == 8
    assert core.numeric_rank(pure_state(states.ghz(+1)).matrix) == 1


def test_matrix_json_round_trip(rng):
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    blob = core.matrix_to_json(m)
    assert blob["dim"] == 8
    np.testing.assert_array_equal(core.matrix_from_json(blob), m)
    blob["re"] = blob["re"][:4]
    with pytest.raises(ValueError):
        core.matrix_from_json(blob)


def _fsum_parameters(m):
    """tr(m P_k)/8 as exactly rounded sums: every product with a Pauli entry is exact."""
    out = []
    for label in core.pauli_labels():
        pm = core.pauli_product(label)
        out.append(math.fsum(m[i, j].real * pm[j, i].real - m[i, j].imag * pm[j, i].imag
                             for i in range(8) for j in range(8)) / 8)
    return np.array(out)


def test_state_parameters_of_pseudo_states(rng):
    # the ~1/8 background must not cost digits of the tiny deviation
    family = states.bound_entangled_state(states.StateParams.symmetric(0.346))
    for rho in (family, core.random_density_operator(rng)):
        for p in (1e-5, 2.3e-5):
            ps = states.pseudo_state(rho, p).rho
            reference = _fsum_parameters(ps.matrix)
            err = np.max(np.abs(core.state_parameters(ps) - reference))
            assert err <= 1e-14 * np.max(np.abs(reference))


def test_pauli_coordinates_round_trip(rng):
    for _ in range(10):
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = g + g.conj().T
        expected = h - np.trace(h) / 8 * np.eye(8) + np.eye(8) / 8
        np.testing.assert_allclose(
            core.parameters_to_matrix(core.state_parameters(h)), expected, atol=1e-14)
    assert len(core.pauli_labels()) == 63 and core.parameter_basis().shape == (63, 64)
    with pytest.raises(ValueError, match="8x8"):
        core.state_parameters(np.eye(4))


def test_bipartition_validation():
    assert core.Bipartition((2,)).label == "2|13"
    with pytest.raises(ValueError):
        core.Bipartition(())
    with pytest.raises(ValueError):
        core.Bipartition((1, 2, 3))


def test_loose_wrapper_widens():
    rho = core.DensityOperator.loose(_diag8(1.2, -0.2))
    assert rho.tolerance >= 0.2
    # only positivity is relaxed: a matrix that is no state is refused
    upper = _diag8(0.5, 0.5)
    upper[0, 1] = 0.1
    for no_state in (upper, np.eye(8) / 4):
        with pytest.raises(ValueError):
            core.DensityOperator.loose(no_state)


def _simplex_oracle(c, n):
    """Bisection on mu for sum_k max(0, c_k - mu/n_k) = 1."""
    lo, hi = np.min(n * c) - np.max(n), np.max(n * c)   # the sum is >= 1 at lo, 0 at hi
    for _ in range(200):
        mu = (lo + hi) / 2
        if np.maximum(c - mu / n, 0.0).sum() > 1.0:
            lo = mu
        else:
            hi = mu
    return np.maximum(c - (lo + hi) / 2 / n, 0.0)


def _simplex_cases():
    rng = np.random.default_rng(5)
    for k in range(40):
        size = int(rng.integers(1, 9))
        c = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 1)
        yield f"weighted {k}", c, 10.0 ** rng.uniform(-2, 2, size)
        yield f"unit {k}", c, None
    yield "ties", np.array([0.3, 0.3, 0.3, -0.1, 0.3]), None
    yield "weighted ties", np.array([0.2, 0.2, 0.2, 0.2]), np.array([1.0, 2.0, 1.0, 2.0])
    yield "all negative", np.array([-0.5, -0.2, -0.9, -0.2]), None
    yield "all negative weighted", np.array([-3.0, -1.0, -2.0]), np.array([0.5, 4.0, 1.0])
    yield "dominant", np.array([5.0, 1e-3, -2e-3, 0.0]), None
    yield "dominant weighted", np.array([1e-3, 7.0, 0.0]), np.array([3.0, 0.1, 10.0])


def test_simplex_projection_matches_bisection():
    for label, c, n in _simplex_cases():
        q = core.simplex_projection(c, n)
        expected = _simplex_oracle(c, np.ones_like(c) if n is None else n)
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-12, err_msg=label)
        assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12), label
