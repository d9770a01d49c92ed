"""Readout model, linear inversion and error propagation."""

import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    vals = tomo.measure(ps, "Y1E2E3", "C") / 1e-4
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
    assert full.shape == (168, 63)
    assert np.linalg.matrix_rank(full) == 63


def _schroedinger_amplitudes(rho, setting, detect):
    """Independent reference: tr(O R rho R^dag) for the 8 line observables.

    O is sigma_{x,y} on carbon tensored with a line projector on H and F.
    """
    r = tomo.readout_unitary(setting, detect)
    rotated = r @ rho.matrix @ r.conj().T
    amplitudes = []
    for j in range(4):
        proj = np.zeros((4, 4))
        proj[j, j] = 1.0
        for sigma in (core.PAULI_X, core.PAULI_Y):
            amplitudes.append(np.real(np.trace(np.kron(sigma, proj) @ rotated)))
    return amplitudes


def test_design_matrix_agrees_with_measure(rng):
    rho = core.random_density_operator(rng)
    expected = np.concatenate([_schroedinger_amplitudes(rho, s, d)
                               for s, d in tomo.default_experiments()])
    predicted = tomo.design_matrix() @ tomo.state_parameters(rho)
    measured = np.concatenate([
        tomo.measure(rho, s, d) for s, d in tomo.default_experiments()])
    assert len(expected) == 168
    np.testing.assert_allclose(predicted, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(measured, expected, rtol=0, atol=1e-12)


def test_readout_table_agrees_with_the_schroedinger_picture_on_all_81_experiments(rng):
    # a dataset file may use any of the 27 settings with any detected spin
    table = tomo._readout_table()
    for _ in range(3):
        rho = core.random_density_operator(rng)
        for e, (setting, detect) in enumerate(tomo._EXPERIMENTS):
            expected = _schroedinger_amplitudes(rho, setting, detect)
            np.testing.assert_allclose(tomo.measure(rho, setting, detect), expected,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(table[e] @ rho.parameters, expected, rtol=0, atol=1e-12)


def test_readout_table_rows_make_every_gram_diagonal():
    # the closed-form fit rests on this.  Every row is four entries of +-2;
    # the x rows of an experiment share one support of four parameters and
    # the y rows another, disjoint one, and the four rows on one support
    # have orthogonal sign patterns.  So an experiment's 8 rows on its 8
    # parameters are a square matrix with orthogonal rows of equal norm,
    # whose Gram over the parameters is diagonal.
    table = tomo._readout_table()
    support = table != 0
    assert (support.sum(axis=-1) == 4).all()
    assert np.max(np.abs(np.abs(table[support]) - 2.0)) <= 1e-15
    x, y = support[:, 0::2], support[:, 1::2]
    assert (x == x[:, :1]).all() and (y == y[:, :1]).all()
    assert not (x[:, 0] & y[:, 0]).any()
    signs = np.sign(table)
    for quad in (signs[:, 0::2], signs[:, 1::2]):
        np.testing.assert_array_equal(quad @ np.swapaxes(quad, 1, 2),
                                      np.broadcast_to(4.0 * np.eye(4), (81, 4, 4)))


def test_measure_and_readout_unitary_refuse_bad_ids():
    rho = core.maximally_mixed()
    for setting, detect, message in (("Y1E2E3", ["C"], "bad detected spin"),
                                     (["Y1E2E3"], "C", "bad setting id"),
                                     ("Y1E2E3", "N", "bad detected spin"),
                                     ("Z1E2E3", "C", "bad setting id")):
        with pytest.raises(ValueError, match=message):
            tomo.measure(rho, setting, detect)
        with pytest.raises(ValueError, match=message):
            tomo.readout_unitary(setting, detect)


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


def test_dataset_computes_the_state_parameters_once():
    rho = states.pseudo_state(RHO_OPT, 2.3e-5)
    with mock.patch.object(core, "state_parameters", wraps=core.state_parameters) as spy, \
            mock.patch.object(tomo, "measure", wraps=tomo.measure) as measure:
        tomo.generate_dataset(rho, sigma=1e-7, seed=3)
        assert (spy.call_count, measure.call_count) == (1, 21)
        # a second dataset of the same state reuses its Pauli coordinates
        tomo.generate_dataset(rho, sigma=1e-7, seed=4)
        assert (spy.call_count, measure.call_count) == (1, 42)


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
    core.write_json(ds.to_json(), path)
    assert core.load_json(path, tomo.TomographyDataset.from_json) == ds
    for value, sigma in ((0.0, -1.0), (0.0, np.nan), (0.0, np.inf), (np.nan, 1e-3),
                         (-np.inf, 1e-3)):
        with pytest.raises(ValueError):
            tomo.TomographyDataset([0], [value], [sigma])
    # a nonzero sigma keeps 1/sigma^2 a finite normal float
    lo, hi = tomo.SIGMA_RANGE
    for sigma in (0.0, lo, hi):
        assert tomo.TomographyDataset([0], [0.0], [sigma]).sigma[0] == sigma
    for sigma in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), 5e-324, 1e300):
        with pytest.raises(ValueError, match="sigma"):
            tomo.TomographyDataset([0], [0.0], [sigma])
    # a dataset file with a NaN sigma is refused when it is read
    blobs = ds.to_json()
    blobs[5]["sigma"] = float("nan")
    path.write_text(json.dumps(blobs))
    with pytest.raises(ValueError, match="sigma"):
        core.load_json(path, tomo.TomographyDataset.from_json)


@pytest.mark.parametrize("rho, sigma", [(RHO_OPT, 0.0), (RHO_OPT, 1e-3),
                                        (states.pseudo_state(RHO_OPT, 2.3e-5), 0.0),
                                        (states.pseudo_state(RHO_OPT, 2.3e-5), 2.3e-7)],
                         ids=["exact", "noisy", "pseudo-exact", "pseudo-noisy"])
def test_generated_dataset_equals_the_validating_constructor(tmp_path, rho, sigma):
    # a simulated dataset skips the constructor's checks but not its result
    path = tmp_path / "data.json"
    for seed in range(20):
        ds = tomo.generate_dataset(rho, sigma=sigma, seed=seed)
        checked = tomo.TomographyDataset(ds.record, ds.value, ds.sigma)
        assert ds == checked
        for name in ("record", "value", "sigma"):
            array = getattr(ds, name)
            assert array.dtype == getattr(checked, name).dtype
            assert not array.flags.writeable
        core.write_json(ds.to_json(), path)
        loaded = core.load_json(path, tomo.TomographyDataset.from_json)
        assert loaded == ds
        got, want = tomo.reconstruct(loaded), tomo.reconstruct(ds)
        assert got.rho_hat.matrix.tobytes() == want.rho_hat.matrix.tobytes()
        assert got.theta.tobytes() == want.theta.tobytes()
        assert got.covariance.tobytes() == want.covariance.tobytes()
        assert got.residual_norm == want.residual_norm


def test_generated_dataset_outside_the_trusted_conditions_gets_the_file_messages():
    # a sigma outside SIGMA_RANGE goes through the validating constructor and is
    # refused as in a file
    for sigma, message in ((1e-200, "record sigma 1e-200 must be 0 or within"),
                           (1e200, r"record sigma 1e\+200 must be 0 or within")):
        with pytest.raises(ValueError, match=message):
            tomo.generate_dataset(RHO_OPT, sigma=sigma)
    # a state's entries lie within MAX_ENTRY, so even the largest give finite
    # amplitudes, and the trusted dataset is the one the constructor validates
    big = np.diag([core.MAX_ENTRY, -core.MAX_ENTRY, 1, 0, 0, 0, 0, 0]).astype(complex)
    big[0, 1] = big[1, 0] = core.MAX_ENTRY
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tomo.generate_dataset(core.DensityOperator.loose(big), sigma=tomo.SIGMA_RANGE[1])
    assert np.isfinite(got.value).all()
    want = tomo.TomographyDataset(got.record, got.value, got.sigma)
    assert got.value.tobytes() == want.value.tobytes()


def test_generate_dataset_never_calls_the_validating_constructor():
    # a sigma outside SIGMA_RANGE is refused before any dataset is built
    with mock.patch.object(tomo.TomographyDataset, "__init__", side_effect=AssertionError):
        for sigma in (0.0, 1e-3, *tomo.SIGMA_RANGE):
            assert tomo.generate_dataset(RHO_OPT, sigma=sigma).sigma[0] == sigma
        with pytest.raises(ValueError, match="record sigma 1e-200 must be 0 or within"):
            tomo.generate_dataset(RHO_OPT, sigma=1e-200)


def test_dataset_values_are_bounded_so_the_fit_stays_finite():
    # a value beyond 8 * MAX_ENTRY is refused; within it, even at the smallest
    # sigma, the closed-form fit stays finite (no warning) and the estimate's
    # entries are refused by the state entry bound, named with the values
    bound = tomo.MAX_VALUE
    assert bound == 8 * core.MAX_ENTRY
    for value in (np.nan, np.inf, -np.inf, 1.7e308, -np.nextafter(bound, np.inf)):
        with pytest.raises(ValueError, match=r"^record value .* must be finite and within "
                                             r"8e\+150 in magnitude$"):
            tomo.TomographyDataset([0], [value], [1e-3])
    ds = tomo.generate_dataset(RHO_OPT)
    heavy = tomo.TomographyDataset(ds.record, np.full(168, bound),
                                   np.full(168, tomo.SIGMA_RANGE[0]))
    assert tomo._whole_experiments(heavy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^record values up to 8e\+150 in magnitude fit .*: "
                                             r"state entry of magnitude .* beyond 1e\+150$"):
            tomo.reconstruct(heavy)


def test_dataset_constructor_checks_shapes_and_indices():
    full = tomo.generate_dataset(RHO_OPT)
    zero = np.zeros(1)
    for record, value, sigma, message in (
            ([0, 1], zero, zero, "equal length"),
            ([[0]], [[0.0]], [[0.0]], "1-D"),
            ([-1], zero, zero, r"^record index outside \[0, 648\)$"),
            ([648], zero, zero, r"^record index outside \[0, 648\)$"),
            (*(np.append(a, a[:1]) for a in (full.record, full.value, full.sigma)),
             "more records")):
        with pytest.raises(ValueError, match=message):
            tomo.TomographyDataset(record, value, sigma)
    edge = tomo.TomographyDataset([647, 0], [1.0, -1.0], [0.0, 0.0])
    assert edge.record.tolist() == [647, 0]
    assert not tomo.TomographyDataset([], [], []).value.size
    # the dataset copies its inputs and cannot be written through
    sigma = full.sigma.copy()
    ds = tomo.TomographyDataset(full.record, full.value, sigma)
    sigma[0] = 1.0
    assert ds.sigma[0] == 0.0 and not ds.sigma.flags.writeable


def test_dataset_load_refuses_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    with pytest.raises(ValueError, match="nested too deeply"):
        core.load_json(path, tomo.TomographyDataset.from_json)


def test_every_record_label_round_trips():
    # the 648 labels in order, as four datasets of 162 records each
    rng = np.random.default_rng(5)
    for start in range(0, len(tomo._RECORD_LABELS), 162):
        ds = tomo.TomographyDataset(np.arange(start, start + 162), rng.standard_normal(162),
                                    np.full(162, 1e-3))
        blobs = ds.to_json()
        assert [(b["setting"], b["detect"], b["line"], b["quad"]) for b in blobs] == list(
            tomo._RECORD_LABELS[start:start + 162])
        assert tomo.TomographyDataset.from_json(blobs) == ds
        assert ds.json_text() == _stdlib_text(ds)


def _stdlib_text(ds):
    """The oracle: the stdlib's own indenting encoder on the dataset's records."""
    return json.dumps(ds.to_json(), indent=1, allow_nan=False) + "\n"


# the smallest subnormal, the bound and the signed zero beside ordinary floats
_EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, tomo.MAX_VALUE, -tomo.MAX_VALUE])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 168), seed=st.integers(0, 2 ** 32 - 1),
       sigmas=st.sampled_from(["equal", "per-record", "signed-zeros"]))
@example(n=0, seed=0, sigmas="equal")
@example(n=168, seed=0, sigmas="signed-zeros")
def test_dataset_json_text_is_the_stdlib_indented_text(n, seed, sigmas):
    # any of the 648 indices in any order, repeats allowed, as the constructor allows
    rng = np.random.default_rng(seed)
    record = rng.integers(0, len(tomo._RECORD_LABELS), n)
    value = np.clip(rng.standard_normal(n) * 10.0 ** rng.integers(-320, 151, n),
                    -tomo.MAX_VALUE, tomo.MAX_VALUE)
    edges = rng.random(n) < 0.3
    value[edges] = rng.choice(_EDGE_VALUES, n)[edges]
    if sigmas == "equal":
        sigma = np.full(n, rng.choice([0.0, -0.0, *tomo.SIGMA_RANGE, 2e-8]))
    elif sigmas == "per-record":
        sigma = 10.0 ** rng.uniform(-149, 149, n)
    else:   # == compares these equal, but they print differently
        sigma = rng.choice([0.0, -0.0], n)
    ds = tomo.TomographyDataset(record, value, sigma)
    text = ds.json_text()
    assert text == core.json_text(ds.to_json()) == _stdlib_text(ds)
    assert (text == "[]\n") == (n == 0)


@pytest.mark.parametrize("sigma", [0.0, 2e-8, tomo.SIGMA_RANGE[1]])
def test_simulated_dataset_json_text_is_the_stdlib_indented_text(sigma):
    rho = states.pseudo_state(RHO_OPT, 2e-5)
    for seed in range(3):
        ds = tomo.generate_dataset(rho, sigma=sigma, seed=seed)
        assert ds.json_text() == core.json_text(ds.to_json()) == _stdlib_text(ds)


_GOOD_RECORD = {"setting": "Y1E2E3", "detect": "C", "line": "00", "quad": "x",
                "value": 0.5, "sigma": 1e-3}


@pytest.mark.parametrize("key, bad, message", [
    ("setting", "Y1E2", "bad setting id 'Y1E2'"),
    ("setting", ["Y1E2E3"], "bad setting id ['Y1E2E3']"),
    ("setting", None, "bad setting id None"),
    ("detect", "N", "bad detected spin 'N'"),
    ("detect", ["C"], "bad detected spin ['C']"),
    ("detect", 1, "bad detected spin 1"),
    ("line", "22", "unknown line/quadrature ('22', 'x')"),
    ("line", ["00"], "unknown line/quadrature (['00'], 'x')"),
    ("line", 0, "unknown line/quadrature (0, 'x')"),
    ("quad", "z", "unknown line/quadrature ('00', 'z')"),
    ("quad", {"x": 1}, "unknown line/quadrature ('00', {'x': 1})"),
    ("quad", "X", "unknown line/quadrature ('00', 'X')"),
])
def test_dataset_refuses_a_bad_label_by_name(key, bad, message):
    # the third record is bad; the first two are good
    blobs = [_GOOD_RECORD, dict(_GOOD_RECORD, quad="y"), dict(_GOOD_RECORD, **{key: bad})]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tomo.TomographyDataset.from_json(blobs)


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
    full = tomo.generate_dataset(RHO_OPT)
    ds = tomo.TomographyDataset(full.record[:8], full.value[:8], full.sigma[:8])
    assert tomo._whole_experiments(ds)   # the closed form refuses it
    with pytest.raises(ValueError, match="rank"):
        tomo.reconstruct(ds)


def test_reconstruct_rejects_mixed_sigmas():
    ds = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=0)
    sigma = ds.sigma.copy()
    sigma[0] = 0.0
    with pytest.raises(ValueError, match="mixing"):
        tomo.reconstruct(tomo.TomographyDataset(ds.record, ds.value, sigma))


def test_weighted_fit_matches_normal_equations():
    # one full dataset, a different sigma for every record, records shuffled
    rng = np.random.default_rng(17)
    noisy = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=21)
    sigma = rng.uniform(5e-4, 4e-3, size=len(noisy.value))
    order = rng.permutation(len(noisy.value))
    rec = tomo.reconstruct(tomo.TomographyDataset(
        noisy.record[order], noisy.value[order], sigma[order]))

    # a generated dataset holds its records in the design matrix's row order
    a = tomo.design_matrix()[order]
    sig, b = sigma[order], noisy.value[order]
    theta, *_ = np.linalg.lstsq(a / sig[:, None], b / sig, rcond=None)
    cov = np.linalg.inv(a.T @ (a / sig[:, None] ** 2))

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    assert rel(rec.theta, theta) <= 1e-10
    assert rel(rec.covariance, cov) <= 1e-10
    in_order = tomo.reconstruct(tomo.TomographyDataset(noisy.record, noisy.value, sigma))
    assert rel(in_order.theta, rec.theta) <= 1e-10


def test_closed_form_matches_the_svd():
    # whole experiments in row order take the closed form, the same records
    # shuffled take the SVD; a default dataset and one sigma per experiment
    rng = np.random.default_rng(5)
    default = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=8)
    per_experiment = tomo.TomographyDataset(default.record, default.value,
                                            1e-3 * (1 + np.arange(168) // 8))

    def rel(x, y):
        return np.linalg.norm(x - y) / np.linalg.norm(y)

    for ds in (default, per_experiment):
        order = rng.permutation(len(ds.value))
        shuffled = tomo.TomographyDataset(ds.record[order], ds.value[order], ds.sigma[order])
        assert tomo._whole_experiments(ds) and not tomo._whole_experiments(shuffled)
        closed, svd = tomo.reconstruct(ds), tomo.reconstruct(shuffled)
        assert rel(closed.theta, svd.theta) <= 1e-12
        assert rel(closed.covariance, svd.covariance) <= 1e-12
        assert closed.residual_norm == pytest.approx(svd.residual_norm, rel=1e-12)


def _record_row(experiment, row):
    """One record's row rebuilt from its readout unitary: 8 * state_parameters(R^dag O R)."""
    r = tomo.readout_unitary(*tomo._EXPERIMENTS[experiment])
    line, quad = tomo._ROW_LABELS[row]
    j = tomo.LINE_LABELS.index(line)
    proj = np.zeros((4, 4))
    proj[j, j] = 1.0
    obs = np.kron(core.PAULI_X if quad == "x" else core.PAULI_Y, proj)
    return 8.0 * core.state_parameters(r.conj().T @ obs @ r)


def _uncached_fit(dataset):
    """The fit with every record's row rebuilt on every call, without the readout table.

    Returns theta, the covariance, the residual norm and whether the closed
    form applies.
    """
    n = len(tomo._ROW_LABELS)
    values, sigmas = dataset.value, dataset.sigma
    exact = not sigmas.any()
    weights = np.ones_like(sigmas) if exact else 1.0 / sigmas
    experiment, row = divmod(dataset.record, n)
    rows = np.array([_record_row(e, r) for e, r in zip(experiment.tolist(), row.tolist())])
    whole = False
    if len(row) % n == 0:
        e, s = experiment.reshape(-1, n), sigmas.reshape(-1, n)
        whole = bool((row.reshape(-1, n) == np.arange(n)).all()
                     and (e == e[:, :1]).all() and (s == s[:, :1]).all())
    if whole:
        w2 = weights * weights
        gram = w2 @ (rows * rows)
        theta = ((values * w2) @ rows) / gram
        cov = np.zeros((63, 63)) if exact else np.diag(1.0 / gram)
    else:
        u, s, vt = np.linalg.svd(rows * weights[:, None], full_matrices=False)
        scaled = vt.T / s
        theta = scaled @ (u.T @ (values * weights))
        cov = np.zeros((63, 63)) if exact else scaled @ scaled.T
    return theta, cov, float(np.linalg.norm(rows @ theta - values)), whole


def _layouts():
    rng = np.random.default_rng(31)
    default = tomo.generate_dataset(RHO_OPT, sigma=1e-3, seed=2)
    r, v, s = default.record, default.value, default.sigma
    order = rng.permutation(len(v))
    keep = np.delete(np.arange(len(v)), [5, 77, 160])   # three blocks lose a record
    return {
        "default": default,
        "shuffled": tomo.TomographyDataset(r[order], v[order], s[order]),
        "partial blocks": tomo.TomographyDataset(r[keep], v[keep], s[keep]),
        # consecutive blocks of 8 that start mid-experiment; most straddle two
        # experiments that are neighbours in _EXPERIMENTS
        "straddling blocks": tomo.TomographyDataset(*(np.roll(a, -4) for a in (r, v, s))),
        "per-record sigma": tomo.TomographyDataset(r, v, rng.uniform(5e-4, 4e-3, len(v))),
        "per-experiment sigma": tomo.TomographyDataset(r, v, 1e-3 * (1 + np.arange(168) // 8)),
        "exact": tomo.generate_dataset(RHO_OPT),
        # the closed form scales its weights by a power of two near both ends of SIGMA_RANGE
        "smallest sigma": tomo.TomographyDataset(r, v, np.full(168, tomo.SIGMA_RANGE[0])),
        "largest sigma": tomo.TomographyDataset(r, v, np.full(168, tomo.SIGMA_RANGE[1])),
        # exact data whose zero sigmas carry both signs: still one sigma an experiment
        "signed-zero exact": tomo.TomographyDataset(r, tomo.generate_dataset(RHO_OPT).value,
                                                    np.where(np.arange(168) % 3, 0.0, -0.0)),
    }


@pytest.mark.parametrize("name", list(_layouts()))
def test_cached_rows_fit_bit_for_bit_like_uncached_rows(name):
    # the rows read from the cached readout table fit like rows rebuilt per record
    ds = _layouts()[name]
    theta, cov, residual, whole = _uncached_fit(ds)
    rec = tomo.reconstruct(ds)
    assert tomo._whole_experiments(ds) == whole
    assert np.array_equal(rec.theta, theta) and np.array_equal(rec.covariance, cov)
    assert rec.residual_norm == residual


def test_readout_table_is_read_only_and_holds_the_design_rows():
    table = tomo._readout_table()
    assert table.shape == (81, 8, 63) and table is tomo._readout_table()
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0
    ds = tomo.generate_dataset(RHO_OPT)
    assert np.array_equal(table.reshape(-1, 63)[ds.record], tomo.design_matrix())


def test_fit_path_follows_each_dataset_layout():
    # datasets that share a layout or not, in turn; the SVD runs exactly for
    # the datasets that are not whole experiments with one sigma each
    layouts = _layouts()
    assert np.signbit(layouts["signed-zero exact"].sigma).any()
    # 8 consecutive record indices that cross into the next experiment are no whole experiment
    assert not tomo._whole_experiments(tomo.TomographyDataset(np.arange(4, 12), np.zeros(8),
                                                              np.zeros(8)))
    runs = [("default", False), ("shuffled", True), ("default", False),
            ("per-experiment sigma", False), ("per-record sigma", True),
            ("per-experiment sigma", False), ("signed-zero exact", False),
            ("straddling blocks", True)]
    for name, takes_svd in runs:
        ds = layouts[name]
        theta, cov, residual, _ = _uncached_fit(ds)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            rec = tomo.reconstruct(ds)
        assert svd.call_count == takes_svd, name
        assert np.array_equal(rec.theta, theta) and np.array_equal(rec.covariance, cov)
        assert rec.residual_norm == residual


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_only_a_simulated_dataset_is_given_its_layout(sigma):
    # a generated dataset's fit reads the rows, squares and layout its construction
    # gave: no gather from the table and no layout test; the same arrays from a
    # file or from a caller derive both, and all three fit bit for bit alike
    generated = tomo.generate_dataset(RHO_OPT, sigma=sigma, seed=4)
    copies = [tomo.TomographyDataset.from_json(json.loads(generated.json_text())),
              tomo.TomographyDataset(generated.record, generated.value, generated.sigma)]
    fits = []
    for ds, derives in [(generated, 0), *((copy, 1) for copy in copies)]:
        assert ds == generated
        with mock.patch.object(tomo, "_whole_experiments", wraps=tomo._whole_experiments) as whole, \
                mock.patch.object(tomo, "_readout_table", wraps=tomo._readout_table) as table:
            fits.append(tomo.reconstruct(ds))
        assert (whole.call_count, table.call_count) == (derives, derives)
    for fit in fits[1:]:
        assert np.array_equal(fit.theta, fits[0].theta)
        assert np.array_equal(fit.covariance, fits[0].covariance)
        assert fit.residual_norm == fits[0].residual_norm


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
