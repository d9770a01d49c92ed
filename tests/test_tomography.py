"""Readout model, linear inversion and error propagation."""

import json

import numpy as np
import pytest

from pseudobound import core, states, tomography as tomo, witnesses
from conftest import A_OPT, EPS_OPT, pure_state

RHO_OPT = states.bound_entangled_state(states.StateParams.symmetric(A_OPT))
W_OPT = witnesses.witness(witnesses.WitnessParams.symmetric(A_OPT, EPS_OPT))


def test_setting_parsing():
    assert tomo.parse_setting("Y1E2E3") == ("Y", "E", "E")
    assert tomo.parse_setting("X1X2X3") == ("X", "X", "X")
    for bad in ("Y1E2", "Z1E2E3", "Y2E2E3"):
        with pytest.raises(ValueError):
            tomo.parse_setting(bad)


def test_identity_setting_not_in_protocol():
    assert "E1E2E3" not in tomo.SETTINGS
    np.testing.assert_array_equal(tomo.readout_unitary("E1E2E3", "C"), np.eye(8))


def test_rotation_convention():
    # a y-pulse turns longitudinal into transverse order: Iz -> +Ix
    r = tomo.readout_unitary("Y1E2E3", "C")
    i2 = core.PAULI_I
    np.testing.assert_allclose(
        r @ core.tensor(core.PAULI_Z / 2, i2, i2) @ r.conj().T,
        core.tensor(core.PAULI_X / 2, i2, i2), atol=1e-14)


def test_swap_exchanges_marginals(rng):
    # S (a x b x c) S^T is the product with the two factors exchanged, so
    # the swap exchanges the marginals of any state
    for q1, q2 in ((1, 2), (1, 3), (2, 3)):
        factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3)]
        permuted = list(factors)
        permuted[q1 - 1], permuted[q2 - 1] = factors[q2 - 1], factors[q1 - 1]
        s = tomo.swap_unitary(q1, q2)
        np.testing.assert_allclose(s @ core.tensor(*factors) @ s.T,
                                   core.tensor(*permuted), atol=1e-14)
    with pytest.raises(ValueError):
        tomo.swap_unitary(1, 1)


def test_measure_background_is_silent():
    vals = tomo.measure(core.maximally_mixed(), "Y1E2E3", "C")
    np.testing.assert_allclose(vals, 0.0, atol=1e-15)


def test_measure_pseudo_ghz_line_pattern():
    # a readout pulse on the carbon turns the GHZ populations into qubit-1
    # coherence, visible only on the lines whose H,F labels match on both
    # sides; the GHZ coherence itself connects mismatched labels and stays
    # invisible
    ps = states.pseudo_state(pure_state(states.ghz(+1)), 1e-4)
    vals = tomo.measure(ps.rho, "Y1E2E3", "C") / 1e-4
    by_line = {line: (vals[2 * j], vals[2 * j + 1])
               for j, line in enumerate(tomo.LINE_LABELS)}
    assert by_line["00"][0] == pytest.approx(0.5, abs=1e-9)
    assert by_line["11"][0] == pytest.approx(-0.5, abs=1e-9)
    for line in ("01", "10"):
        np.testing.assert_allclose(by_line[line], 0.0, atol=1e-12)


def test_line_sum_gives_total_transverse_signal(rng):
    rho = core.random_density_operator(rng)
    for setting, detect in (("Y1E2E3", "C"), ("X1X2X3", "F")):
        vals = tomo.measure(rho, setting, detect)
        r = tomo.readout_unitary(setting, detect)
        rotated = r @ rho.matrix @ r.conj().T
        sigma_x1 = core.tensor(core.PAULI_X, core.PAULI_I, core.PAULI_I)
        total_x = float(np.real(np.trace(sigma_x1 @ rotated)))
        assert np.sum(vals[0::2]) == pytest.approx(total_x, abs=1e-12)


def test_design_matrix_rank():
    full = tomo.design_matrix()
    assert full.matrix.shape == (168, 63)
    assert full.rank == 63 and full.matrix.shape[1] - full.rank == 0
    single = tomo.design_matrix([("Y1E2E3", "C")])
    assert single.rank < 63
    with pytest.raises(ValueError):
        tomo.design_matrix([])


def test_design_matrix_agrees_with_measure(rng):
    # independent Schroedinger-picture reference: tr(O R rho R^dag) with
    # O = sigma_{x,y} on carbon tensored with a line projector on H and F
    rho = core.random_density_operator(rng)
    expected = []
    for setting, detect in tomo.default_experiments():
        r = tomo.readout_unitary(setting, detect)
        rotated = r @ rho.matrix @ r.conj().T
        for j in range(4):
            proj = np.zeros((4, 4))
            proj[j, j] = 1.0
            for sigma in (core.PAULI_X, core.PAULI_Y):
                expected.append(np.real(np.trace(np.kron(sigma, proj) @ rotated)))
    predicted = tomo.design_matrix().matrix @ tomo.state_parameters(rho)
    measured = np.concatenate([
        tomo.measure(rho, s, d) for s, d in tomo.default_experiments()])
    assert len(expected) == 168
    np.testing.assert_allclose(predicted, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(measured, expected, rtol=0, atol=1e-12)


def test_dataset_generation_determinism():
    ds1 = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=11)
    ds2 = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=11)
    assert ds1 == ds2
    ds3 = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=12)
    assert ds1 != ds3
    with pytest.raises(TypeError, match="unhashable"):
        hash(ds1)   # like the ndarrays it holds
    exact = tomo.generate_dataset(RHO_OPT, sigma=0.0)
    measured = np.concatenate([
        tomo.measure(RHO_OPT, s, d) for s, d in tomo.default_experiments()])
    np.testing.assert_array_equal(exact.value, measured)


def test_one_noise_draw_equals_the_per_experiment_draws():
    sigma = 1e-3
    for seed in range(10):
        rng = np.random.default_rng(seed)
        per_experiment = np.concatenate([
            tomo.measure(RHO_OPT, s, d) + rng.normal(0.0, sigma, size=8)
            for s, d in tomo.default_experiments()])
        np.testing.assert_array_equal(
            tomo.generate_dataset(RHO_OPT, sigma=sigma, seed=seed).value, per_experiment)


def test_dataset_noise_scale():
    # pooled over many seeds the injected noise reproduces sigma
    sigma = 1e-3
    exact = tomo.generate_dataset(RHO_OPT, sigma=0.0).value
    pooled = []
    for seed in range(60):
        noisy = tomo.generate_dataset(RHO_OPT, sigma=sigma, seed=seed).value
        pooled.append(noisy - exact)
    std = float(np.std(np.concatenate(pooled), ddof=1))
    assert std == pytest.approx(sigma, rel=0.05)


def test_dataset_json_round_trip(tmp_path):
    ds = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=3)
    path = tmp_path / "data.json"
    ds.save(path)
    assert tomo.TomographyDataset.load(path) == ds
    for value, sigma in ((0.0, -1.0), (0.0, np.nan), (0.0, np.inf), (np.nan, 1e-3),
                         (-np.inf, 1e-3)):
        with pytest.raises(ValueError):
            tomo.TomographyRecord("Y1E2E3", "C", "00", "x", value, sigma)
    # a dataset file with a NaN sigma is refused when it is read
    blobs = ds.to_json()
    blobs[5]["sigma"] = float("nan")
    path.write_text(json.dumps(blobs))
    with pytest.raises(ValueError, match="sigma"):
        tomo.TomographyDataset.load(path)


def test_dataset_load_refuses_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        tomo.TomographyDataset.load(path)


def test_reconstruct_round_trip(rng):
    for _ in range(50):
        rho = core.random_density_operator(rng)
        rec = tomo.reconstruct(tomo.generate_dataset(rho, sigma=0.0))
        assert core.trace_distance(rec.rho_hat, rho) <= 1e-8
    mixed = core.maximally_mixed()
    rec = tomo.reconstruct(tomo.generate_dataset(mixed, sigma=0.0))
    np.testing.assert_allclose(rec.rho_hat.matrix, mixed.matrix, atol=1e-12)
    assert rec.residual_norm <= 1e-12
    np.testing.assert_array_equal(rec.covariance, 0.0)


def test_reconstruct_rejects_deficient_dataset():
    ds = tomo.generate_dataset(RHO_OPT, experiments=[("Y1E2E3", "C")])
    assert tomo._whole_experiments(ds)   # the closed form refuses it
    with pytest.raises(ValueError, match="rank"):
        tomo.reconstruct(ds)


def test_reconstruct_rejects_mixed_sigmas():
    ds = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=0)
    records = list(ds.records)
    records[0] = tomo.TomographyRecord(records[0].setting, records[0].detect,
                                       records[0].line, records[0].quad,
                                       records[0].value, 0.0)
    with pytest.raises(ValueError, match="mixing"):
        tomo.reconstruct(tomo.TomographyDataset(tuple(records)))


def test_weighted_fit_matches_normal_equations():
    # one full dataset, a different sigma for every record, records shuffled
    rng = np.random.default_rng(17)
    noisy = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=21)
    records = [tomo.TomographyRecord(r.setting, r.detect, r.line, r.quad, r.value,
                                     float(rng.uniform(5e-4, 4e-3)))
               for r in noisy.records]
    shuffled = [records[k] for k in rng.permutation(len(records))]
    rec = tomo.reconstruct(tomo.TomographyDataset(tuple(shuffled)))

    dm = tomo.design_matrix()
    index = {row: i for i, row in enumerate(dm.rows)}
    a = dm.matrix[[index[r.setting, r.detect, r.line, r.quad] for r in shuffled]]
    sig = np.array([r.sigma for r in shuffled])
    b = np.array([r.value for r in shuffled])
    theta, *_ = np.linalg.lstsq(a / sig[:, None], b / sig, rcond=None)
    cov = np.linalg.inv(a.T @ (a / sig[:, None] ** 2))

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    assert rel(rec.theta, theta) <= 1e-10
    assert rel(rec.covariance, cov) <= 1e-10
    in_order = tomo.reconstruct(tomo.TomographyDataset(tuple(records)))
    assert rel(in_order.theta, rec.theta) <= 1e-10


def test_closed_form_matches_the_svd():
    # whole experiments in row order take the closed form, the same records
    # shuffled take the SVD; a default dataset and one sigma per experiment
    rng = np.random.default_rng(5)
    default = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=8)
    per_experiment = tomo.TomographyDataset(tuple(
        tomo.TomographyRecord(r.setting, r.detect, r.line, r.quad, r.value,
                              1e-3 * (1 + k // 8))
        for k, r in enumerate(default.records)))

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    for ds in (default, per_experiment):
        records = ds.records
        shuffled = tomo.TomographyDataset(
            tuple(records[k] for k in rng.permutation(len(records))))
        assert tomo._whole_experiments(ds) and not tomo._whole_experiments(shuffled)
        closed, svd = tomo.reconstruct(ds), tomo.reconstruct(shuffled)
        assert rel(closed.theta, svd.theta) <= 1e-12
        assert rel(closed.covariance, svd.covariance) <= 1e-12
        assert closed.residual_norm == pytest.approx(svd.residual_norm, rel=1e-12)


def test_reconstruction_unbiased():
    sigma = 1e-3
    acc = np.zeros((8, 8), dtype=complex)
    n = 1000
    sq = np.zeros((8, 8))
    for seed in range(n):
        rec = tomo.reconstruct(tomo.generate_dataset(RHO_OPT, sigma=sigma,
                                                     seed=40_000 + seed))
        acc += rec.rho_hat.matrix
        sq += np.abs(rec.rho_hat.matrix - RHO_OPT.matrix) ** 2
    mean = acc / n
    elem_std = np.sqrt(sq / n)
    # elementwise: mean within 3 standard errors (where there is any noise)
    gap = np.abs(mean - RHO_OPT.matrix)
    limit = 3 * elem_std / np.sqrt(n) + 1e-12
    assert np.all(gap <= limit)


def test_covariance_matches_monte_carlo():
    sigma = 1e-3
    thetas = []
    rec0 = tomo.reconstruct(tomo.generate_dataset(RHO_OPT, sigma=sigma, seed=1))
    for seed in range(1000):
        rec = tomo.reconstruct(tomo.generate_dataset(RHO_OPT, sigma=sigma,
                                                     seed=60_000 + seed))
        thetas.append(rec.theta)
    mc_var = np.var(np.array(thetas), axis=0, ddof=1)
    predicted = np.diag(rec0.covariance)
    ratio = mc_var / predicted
    assert np.all(ratio > 0.8) and np.all(ratio < 1.2)


def test_equivariance_under_readout_change(rng):
    # appending a unitary to every readout is the same as measuring the
    # conjugated state, so the estimate conjugates accordingly
    v = core.random_unitary(rng)
    rho = core.random_density_operator(rng)
    rho_v = core.DensityOperator(v @ rho.matrix @ v.conj().T)
    rec_plain = tomo.reconstruct(tomo.generate_dataset(rho, sigma=0.0))
    rec_conj = tomo.reconstruct(tomo.generate_dataset(rho_v, sigma=0.0))
    np.testing.assert_allclose(
        rec_conj.rho_hat.matrix,
        v @ rec_plain.rho_hat.matrix @ v.conj().T, atol=1e-9)


def test_project_to_physical_cases():
    np.testing.assert_allclose(tomo.project_to_physical(RHO_OPT).matrix,
                               RHO_OPT.matrix, atol=1e-12)
    toy = tomo.project_to_physical(np.diag([1.1, -0.1] + [0.0] * 6).astype(complex))
    np.testing.assert_allclose(toy.matrix, np.diag([1.0] + [0.0] * 7), atol=1e-12)


def test_projection_improves_estimates():
    # the projection is the Frobenius-nearest physical state, so it can
    # never move away from the truth in Frobenius norm; in trace distance
    # it helps on average (tiny individual regressions are possible)
    frob_raw, frob_proj, dist_raw, dist_proj = [], [], [], []
    for seed in range(100):
        rec = tomo.reconstruct(tomo.generate_dataset(RHO_OPT, sigma=2e-3,
                                                     seed=80_000 + seed))
        proj = tomo.project_to_physical(rec.rho_hat)
        frob_raw.append(np.linalg.norm(rec.rho_hat.matrix - RHO_OPT.matrix))
        frob_proj.append(np.linalg.norm(proj.matrix - RHO_OPT.matrix))
        dist_raw.append(core.trace_distance(rec.rho_hat, RHO_OPT))
        dist_proj.append(core.trace_distance(proj, RHO_OPT))
    assert np.all(np.array(frob_proj) <= np.array(frob_raw) + 1e-12)
    assert np.mean(dist_proj) < np.mean(dist_raw)
    assert np.max(np.array(dist_proj) - np.array(dist_raw)) < 1e-3


def test_propagate_witness_error_properties():
    rec = tomo.reconstruct(tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=5))
    noiseless = tomo.reconstruct(tomo.generate_dataset(RHO_OPT, sigma=0.0))
    assert tomo.propagate_witness_error(noiseless, W_OPT) == 0.0
    assert tomo.propagate_witness_error(rec, np.eye(8)) == 0.0
    base = tomo.propagate_witness_error(rec, W_OPT)
    assert base > 0
    assert tomo.propagate_witness_error(rec, 2.5 * W_OPT) == \
        pytest.approx(2.5 * base, rel=1e-12)
    shifted = tomo.propagate_witness_error(rec, W_OPT + 7.0 * np.eye(8))
    assert shifted == pytest.approx(base, rel=1e-12)
    with pytest.raises(ValueError):
        tomo.propagate_witness_error(rec, np.eye(4))
