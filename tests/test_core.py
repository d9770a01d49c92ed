"""Tensor algebra, Pauli coordinates, partial transpose, eigensolves and the two metrics."""

import dataclasses
import functools
import json
import math
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pseudobound
from pseudobound import core, nmr, states, tomography, witnesses
from conftest import pure_state, random_params

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
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0   # frozen


@pytest.mark.parametrize("wrap", [core.DensityOperator, core.DensityOperator.loose],
                         ids=["strict", "loose"])
def test_validation_keeps_its_messages(wrap):
    # a non-finite entry anywhere gets the finiteness message and no warning
    # (warnings are errors here): a Hermiticity defect m - m^dag taken before
    # the finiteness test would warn on inf - inf
    for bad in (np.nan, np.inf, -np.inf):
        for entries in ({(1, 1): bad},                          # on the diagonal
                        {(0, 1): bad},                          # off the diagonal
                        {(0, 1): bad, (1, 0): bad},             # on a Hermitian pair
                        {(2, 2): complex(0.25, bad)},           # in an imaginary part
                        {(0, 3): complex(0.0, bad), (3, 0): complex(0.0, -bad)}):
            m = _diag8(0.5, 0.25, 0.25)
            for (i, j), v in entries.items():
                m[i, j] = v
            with pytest.raises(ValueError, match=r"^operator entries must be finite$"):
                wrap(m)
    upper = _diag8(0.5, 0.5)
    upper[0, 1] = 1.0
    tol = 1e-10 if wrap is core.DensityOperator else 1e-6
    with pytest.raises(ValueError, match=rf"^state is not Hermitian \(defect 1.000e\+00 > "
                                         rf"tol {tol:.1e}\)$"):
        wrap(upper)
    with pytest.raises(ValueError, match="8x8"):
        wrap(np.eye(4) / 4)


_VALIDATIONS = [core.DensityOperator, core.DensityOperator.loose,
                lambda m: core.DensityOperator.with_spectrum(m, np.full(8, 0.125))]
_VALIDATION_IDS = ["strict", "loose", "with_spectrum"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("wrap", _VALIDATIONS, ids=_VALIDATION_IDS)
def test_one_pass_validation_names_each_failure(wrap):
    # one pass over the entries: a NaN, an inf, a magnitude past the bound and an
    # abs that overflows all fail the one bound test, and only then does
    # check_operator run to name the failure; no warning on the way
    def with_entry(v):
        m = np.eye(8, dtype=complex) / 8
        m[3, 3] = v
        return m
    cases = [(with_entry(np.nan), "operator entries must be finite"),
             (with_entry(np.inf), "operator entries must be finite"),
             (with_entry(complex(np.inf, np.nan)), "operator entries must be finite"),
             (with_entry(1e151), "state entry of magnitude 1.000e+151 beyond 1e+150"),
             (with_entry(1.5e308 + 1.5e308j), "state entry of magnitude inf beyond 1e+150"),
             (np.eye(7) / 7, "operator must be 8x8, got shape (7, 7)")]
    for m, message in cases:
        with mock.patch.object(core, "check_operator", wraps=core.check_operator) as check:
            with pytest.raises(ValueError) as caught:
                wrap(m)
        assert str(caught.value) == message
        assert check.call_count == 1
    # a non-numeric entry fails the coercion, with numpy's own message
    text = [[0.125] * 8] * 7 + [[0.125] * 7 + ["x"]]
    with pytest.raises(ValueError) as coercion:
        np.asarray(text, dtype=complex)
    with pytest.raises(ValueError) as caught:
        wrap(text)
    assert str(caught.value) == str(coercion.value)


@pytest.mark.parametrize("wrap", _VALIDATIONS, ids=_VALIDATION_IDS)
def test_a_valid_matrix_is_validated_without_check_operator(wrap):
    with mock.patch.object(core, "check_operator", wraps=core.check_operator) as check:
        rho = wrap(np.eye(8) / 8)
    assert check.call_count == 0
    np.testing.assert_array_equal(rho.matrix, np.eye(8) / 8)


def test_tolerance_arguments_are_checked():
    # a NaN tolerance fails every comparison, an infinite one admits any defect
    # and a negative one refuses a PSD matrix: each is refused by name instead
    for tolerance in (np.nan, np.inf, -1.0):
        for m in (_diag8(1.0, -1.0), np.eye(8)):
            with pytest.raises(ValueError,
                               match=rf"^square-root tolerance {tolerance} must be finite"):
                core.matrix_sqrt_psd(m, tolerance=tolerance)


def test_state_tolerance_is_fixed_by_its_kind():
    # the matrix is the one field: the constructor takes no tolerance, and
    # nothing sets one after validation
    assert [f.name for f in dataclasses.fields(core.DensityOperator)] == ["matrix"]
    with pytest.raises(TypeError):
        core.DensityOperator(np.eye(8) / 8, tolerance=1e-3)
    strict, loose = core.DensityOperator(np.eye(8) / 8), core.DensityOperator.loose(np.eye(8) / 8)
    assert (strict.tolerance, loose.tolerance) == (1e-10, 1e-6)
    for rho in (strict, loose):
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.tolerance = 0.0


def test_states_compare_by_identity():
    # equal matrices are distinct states: == and hash neither raise nor look
    # at the arrays
    a, b = core.DensityOperator(np.eye(8) / 8), core.DensityOperator(np.eye(8) / 8)
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("wrap", [core.DensityOperator, core.DensityOperator.loose],
                         ids=["strict", "loose"])
def test_state_entries_are_bounded(wrap):
    # unit trace, but too large for the arithmetic that follows; refused before
    # the Hermiticity defect m - m^dag of the anti-Hermitian pair could overflow
    # (no warning), and as a Hermitian file matrix too
    big = core.MAX_ENTRY
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e308, 1e154, 2 * big):
            for m in (_diag8(scale, -scale, 1.0), _diag8(0.5, 0.5)):
                m[0, 1], m[1, 0] = scale, -scale
                with pytest.raises(ValueError,
                                   match=r"^state entry of magnitude .* beyond 1e\+150$"):
                    wrap(m)
        with pytest.raises(ValueError, match=r"^state entry of magnitude 1.000e\+308"):
            wrap(_diag8(1e308, -1e308, 1.0))
    edge = core.DensityOperator.loose(_diag8(big, -big, 1.0))
    assert edge.eigenvalues()[0] == -big


def test_state_carries_its_parameters(rng):
    for rho in (core.random_density_operator(rng), core.DensityOperator(np.eye(8) / 8)):
        theta = rho.parameters
        np.testing.assert_array_equal(theta, core.state_parameters(rho.matrix))
        assert rho.parameters is theta   # worked out once
        with pytest.raises(ValueError):
            theta[0] = 1.0
        with pytest.raises(AttributeError):
            rho.parameters = np.zeros(63)


def _states(rng):
    """Exact states of several ranks and a loosely wrapped, peeled estimate."""
    family = [states.bound_entangled_state(states.StateParams.symmetric(a))
              for a in (0.1, 0.346, 2.0)]
    pure = [pure_state(states.ghz(+1)), pure_state(core.random_unitary(rng)[:, 0])]
    randoms = [core.random_density_operator(rng) for _ in range(8)]
    ps = states.pseudo_state(nmr.depolarize(family[1], 0.16), 1e-5)
    rec = tomography.reconstruct(tomography.generate_dataset(ps, sigma=1e-7, seed=3))
    peeled = states.peel_matrix(rec.rho_hat.matrix, 1e-5)
    return [*family, *pure, *randoms, core.DensityOperator(np.eye(8) / 8), peeled]


def test_state_carries_its_spectrum(rng):
    # a solved spectrum is that of the Hermitian part (m + m^dag)/2, bit for bit,
    # for exactly Hermitian matrices and for those Hermitian only within rounding;
    # a spectrum the construction gave (the family members', which alone here
    # also know their root) is that to 1e-15 relative
    exact = []
    for rho in _states(rng):
        m = rho.matrix
        exact.append(np.array_equal(m, m.conj().T))
        dense = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if rho.known_root is None:
            assert np.array_equal(rho.eigenvalues(), dense)
        else:
            assert np.all(np.abs(rho.eigenvalues() - dense)
                          <= 1e-15 * np.maximum(1.0, np.abs(dense)))
        assert np.array_equal(core.DensityOperator.loose(m).eigenvalues(), dense)
    assert any(exact) and not all(exact)
    rho = core.random_density_operator(rng)
    assert rho.eigenvalues() is rho.eigenvalues()
    with pytest.raises(ValueError):
        rho.eigenvalues()[0] = 1.0
    # Hermitian only within tolerance: the spectrum of the Hermitian part
    skew = rng.standard_normal((8, 8)) * 1e-12
    near = rho.matrix + 1j * (skew + skew.T)
    assert not np.array_equal(near, near.conj().T)
    for loose in (core.DensityOperator(near), core.DensityOperator.loose(near)):
        assert np.array_equal(loose.eigenvalues(),
                              np.linalg.eigvalsh((near + near.conj().T) / 2))


def test_spectrum_is_solved_on_first_read(rng):
    # a loose state makes no eigensolve until its spectrum is read, one then and
    # none after; a validated state makes its one at construction, for positivity
    m = core.random_density_operator(rng).matrix
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        loose = core.DensityOperator.loose(m)
        assert eigvalsh.call_count == 0
        first = loose.eigenvalues()
        assert eigvalsh.call_count == 1
        assert loose.eigenvalues() is first and eigvalsh.call_count == 1
        strict = core.DensityOperator(m)
        assert eigvalsh.call_count == 2
        assert strict.eigenvalues() is strict.eigenvalues() and eigvalsh.call_count == 2
    assert np.array_equal(strict.eigenvalues(), first)


def _partial_transpose(m, qubit):
    """Transpose qubit 1, 2 or 3 of an 8x8 matrix, one entry at a time.

    Entry (i, j) is m[i', j'], where i' and j' swap the qubit's bit between the
    row index i and the column index j: the definition, independent of how
    ``core._PT_INDEX`` is built.
    """
    bit = 1 << (3 - qubit)
    out = np.empty_like(m)
    for i in range(8):
        for j in range(8):
            swap = (i ^ j) & bit   # the qubit's bit where i and j differ in it
            out[i, j] = m[i ^ swap, j ^ swap]
    return out


def _gather(m, qubit):
    """The partial transpose on ``qubit`` as ``is_ppt`` gathers it."""
    return m.reshape(64)[core._PT_INDEX[qubit - 1]].reshape(8, 8)


def test_partial_transpose_is_the_axis_swap(rng):
    # the gather permutes entries exactly as swapping the qubit's row and column
    # axes, and as the bit-swap definition
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for qubit in (1, 2, 3):
        swapped = np.swapaxes(m.reshape((2,) * 6), qubit - 1, qubit + 2).reshape(8, 8)
        assert np.array_equal(_gather(m, qubit), swapped)
        assert np.array_equal(_partial_transpose(m, qubit), swapped)


def test_is_ppt_matches_each_cut_eigensolve(rng):
    # the cuts of the Hermitian part, which is m itself, bit for bit, when m is exactly Hermitian
    for rho in _states(rng):
        report = core.is_ppt(rho)
        hermitian = (rho.matrix + rho.matrix.conj().T) / 2
        for qubit, lo in zip((1, 2, 3), report.min_eigenvalues):
            assert lo == np.linalg.eigvalsh(_partial_transpose(hermitian, qubit))[0]
    assert len(set(report.min_eigenvalues)) == 3


def test_partial_transpose_involution_and_trace(rng):
    rho = core.random_density_operator(rng)
    for qubit in (1, 2, 3):
        pt = _gather(rho.matrix, qubit)
        np.testing.assert_allclose(_gather(pt, qubit), rho.matrix, atol=0)
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-14)
        # PT is Hermiticity-preserving
        np.testing.assert_allclose(pt, pt.conj().T, atol=1e-14)


def test_partial_transposes_of_all_three_qubits_give_the_transpose(rng):
    rho = core.random_density_operator(rng)
    pt = rho.matrix
    for qubit in (1, 2, 3):
        pt = _gather(pt, qubit)
    assert np.array_equal(pt, rho.matrix.T)


def test_partial_transpose_identity_invariant():
    mixed = np.eye(8) / 8
    for qubit in (1, 2, 3):
        np.testing.assert_array_equal(_gather(mixed, qubit), mixed)


def test_bipartition_validation():
    # a Bell pair on qubits 1 and 3, qubit 2 in |0>: only the cut that
    # transposes qubit 2, labelled 2|13, is PPT
    psi = np.zeros(8)
    psi[[0b000, 0b101]] = 1 / math.sqrt(2)
    cuts = core.is_ppt(pure_state(psi)).as_dict()["cuts"]
    assert [label for label, cut in cuts.items() if cut["ppt"]] == ["2|13"]


def test_ghz_partial_transpose_negative():
    # 8x8 eigensolve of the explicitly transposed projector
    rho = pure_state(states.ghz(+1))
    for qubit in (1, 2, 3):
        vals = np.linalg.eigvalsh(_partial_transpose(rho.matrix, qubit))
        assert vals[0] == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("path", ["core.maximally_mixed", "core.partial_transpose",
                                  "tomography.default_experiments",
                                  "witnesses.white_noise_threshold",
                                  "witnesses.WitnessParams.symmetric"])
def test_names_no_command_read_are_removed(path):
    # each was called only by tests, which now hold what they used as an oracle
    *owner, name = path.split(".")
    owner = functools.reduce(getattr, owner, pseudobound)
    with pytest.raises(AttributeError):
        getattr(owner, name)


def test_is_ppt_verdicts(rho_opt):
    assert core.is_ppt(core.DensityOperator(np.eye(8) / 8)).all_ppt
    ghz_report = core.is_ppt(pure_state(states.ghz(+1)))
    assert not ghz_report.all_ppt
    assert all(not c["ppt"] for c in ghz_report.as_dict()["cuts"].values())
    report = core.is_ppt(rho_opt)
    assert report.all_ppt
    assert min(report.min_eigenvalues) >= -1e-10
    assert tuple(report.as_dict()["cuts"]) == core.CUT_LABELS == ("1|23", "2|13", "3|12")
    for tolerance in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="tolerance"):
            core.is_ppt(core.DensityOperator(np.eye(8) / 8), tolerance=tolerance)


def test_is_ppt_of_a_bare_matrix_needs_a_tolerance():
    # the matrix is read first: a bare one has no tolerance of its own
    mixed = np.eye(8) / 8
    with pytest.raises(ValueError, match="tolerance"):
        core.is_ppt(mixed)
    with pytest.raises(ValueError, match="8x8"):
        core.is_ppt(np.eye(4) / 4)
    assert core.is_ppt(mixed, 1e-9) == core.is_ppt(core.DensityOperator(np.eye(8) / 8), 1e-9)
    assert core.is_ppt(mixed, 1e-9).all_ppt


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


def test_fidelity_overshoot_bound_from_both_sides():
    # clipping a loose argument's negative part may push the trace up to
    # 1 + 2 sqrt(slack), and no further; the slack here is the -lowest eigenvalue
    inside = core.DensityOperator.loose(_diag8(4.4, 0.5, -3.9))   # 4.9 < 1 + 2 sqrt(3.9)
    assert core.uhlmann_fidelity(inside, inside) == 1.0
    outside = core.DensityOperator.loose(_diag8(4.6, 0.5, -4.1))  # 5.1 > 1 + 2 sqrt(4.1)
    with pytest.raises(ValueError, match="exceeds 1"):
        core.uhlmann_fidelity(outside, outside)


def _fidelity_with_outer_root(rho, sigma):
    """The square-root fidelity with the outer square root built, then traced."""
    slack = max(1e-8, rho.tolerance, sigma.tolerance)
    root = core.matrix_sqrt_psd(rho.matrix, tolerance=slack)
    inner = root @ sigma.matrix @ root
    inner = (inner + inner.conj().T) / 2
    f = float(np.real(np.trace(core.matrix_sqrt_psd(inner, tolerance=slack))))
    return min(max(f, 0.0), 1.0)


def test_fidelity_matches_the_outer_matrix_square_root(rng):
    # rank-deficient references (family states of rank 7, pure states) give a
    # rank-deficient inner matrix: the two agree to about sqrt(eps), not to eps
    refs = _states(rng)
    worst = 0.0
    for rho in refs:
        for sigma in refs:
            f = core.uhlmann_fidelity(rho, sigma)
            worst = max(worst, abs(f - _fidelity_with_outer_root(rho, sigma)))
    assert worst <= 1e-8


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


def test_a_one_triangle_defect_reads_the_same_from_either_triangle(rng):
    # 9e-7 added to one GHZ corner of the family member at a = 0.3, loaded loose:
    # the cuts, the distance and the fidelity read the Hermitian part, so the
    # defect at (7, 0) and at (0, 7) give the same floats, each cut -2.48e-7 and
    # the distance to the exact state 4.5e-7; a bare matrix reads the same
    exact = states.bound_entangled_state(states.StateParams.symmetric(0.3))
    other, reference = core.random_density_operator(rng), core.random_density_operator(rng)
    results = []
    for corner in ((7, 0), (0, 7)):
        family, complex_state = exact.matrix.copy(), other.matrix.copy()
        family[corner] += 9e-7
        complex_state[corner] += 9e-7
        rho = core.DensityOperator.loose(family)
        results.append((core.is_ppt(rho).min_eigenvalues,
                        core.is_ppt(family, tolerance=1e-6).min_eigenvalues,
                        core.trace_distance(exact, rho), core.trace_distance(rho, exact),
                        core.uhlmann_fidelity(reference, core.DensityOperator.loose(complex_state))))
    assert results[0] == results[1]
    cuts, bare, distance, back, _ = results[0]
    assert bare == cuts and back == distance
    assert all(abs(lo + 2.477069e-7) <= 1e-12 for lo in cuts)
    assert distance == pytest.approx(4.5e-7, rel=1e-9)


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
            ps = states.pseudo_state(rho, p)
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


def test_parameter_basis_is_the_stack_of_pauli_products():
    # the basis built from index arithmetic against the Kronecker products
    basis = core.parameter_basis()
    expected = np.stack([core.pauli_product(label).ravel() for label in core.pauli_labels()])
    assert basis.dtype == expected.dtype and np.array_equal(basis, expected)
    assert not basis.flags.writeable


def _random_operator(rng):
    return rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))


def test_identity_mixing_laws(rng, rho_opt):
    mix = core.mix_with_identity
    x = _random_operator(rng)
    assert mix(x, 1.0).tobytes() == x.tobytes()                  # E_1 is the identity, bit for bit
    assert mix(rho_opt, 1.0).tobytes() == rho_opt.matrix.tobytes()
    np.testing.assert_array_equal(mix(rho_opt, 0.0), np.trace(rho_opt.matrix) / 8 * np.eye(8))
    for _ in range(50):
        a, b = _random_operator(rng), _random_operator(rng)
        s, t = rng.uniform(-3.0, 3.0, size=2)
        np.testing.assert_allclose(mix(mix(a, t), s), mix(a, s * t), rtol=0, atol=1e-13)
        assert abs(np.trace(mix(a, t)) - np.trace(a)) <= 1e-13          # keeps the trace
        # self-adjoint under tr(A^dag B)
        assert np.trace(mix(a, t).conj().T @ b) == pytest.approx(
            np.trace(a.conj().T @ mix(b, t)), rel=1e-13, abs=1e-13)
    for p in np.logspace(-6, 0, 25):
        rho = core.random_density_operator(rng)
        back = mix(mix(rho, p), 1.0 / p)                            # E_{1/p} E_p
        assert np.max(np.abs(back - rho.matrix)) <= 2e-16 / p
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t=.* must be finite"):
            mix(x, t)


# the four formulas that the identity-mixing map replaced, kept as its oracle
def _old_embedding(rho, p):
    return (1.0 - p) / 8 * np.eye(8, dtype=complex) + p * rho.matrix


def _old_depolarization(rho, lam):
    return (1.0 - lam) * rho.matrix + lam * np.eye(8) / 8


def _old_peel(m, p):
    return (m - (1.0 - p) / 8 * np.eye(8)) / p


def _old_pseudo_witness(w, p):
    return (w - (1.0 - p) / 8 * float(np.real(np.trace(w))) * np.eye(8)) / p


def test_identity_mixing_against_the_formulas_it_replaced(rng, rho_opt):
    for k in range(40):
        rho = rho_opt if k % 2 else core.random_density_operator(rng)
        p, lam = float(10 ** rng.uniform(-6, 0)), float(rng.uniform(0.0, 1.0))
        embedded = states.pseudo_state(rho, p).matrix
        assert np.max(np.abs(embedded - _old_embedding(rho, p))) <= 1e-16
        assert np.max(np.abs(nmr.depolarize(rho, lam).matrix
                             - _old_depolarization(rho, lam))) <= 1e-16
        assert np.max(np.abs(states.peel_matrix(embedded, p).matrix
                             - _old_peel(embedded, p))) <= 1e-15 / p
        w = witnesses.witness_bar(random_params(rng))
        assert np.max(np.abs(witnesses.pseudo_witness(w, p)
                             - _old_pseudo_witness(w, p))) <= 1e-15 / p


def test_stacked_pauli_coordinates_are_those_of_each_matrix(rng):
    stack = rng.standard_normal((3, 5, 8, 8)) + 1j * rng.standard_normal((3, 5, 8, 8))
    expected = np.array([[core.state_parameters(m) for m in row] for row in stack])
    assert np.array_equal(core._pauli_coordinates(stack), expected)
    # an input whose transpose is contiguous is read, never written
    m = np.asfortranarray(stack[0, 0])
    theta = core.state_parameters(m)
    assert np.array_equal(m, stack[0, 0]) and np.array_equal(theta, expected[0, 0])


def test_ppt_report_verdicts_at_the_tolerance():
    # a cut is PPT down to -tolerance inclusive, and all_ppt follows the cuts
    at_bound = core.PPTReport((0.0, -1e-6, 1.0), 1e-6)
    assert at_bound.all_ppt
    assert at_bound.as_dict() == {"cuts": {
        "1|23": {"min_eigenvalue": 0.0, "ppt": True},
        "2|13": {"min_eigenvalue": -1e-6, "ppt": True},
        "3|12": {"min_eigenvalue": 1.0, "ppt": True}}, "all_ppt": True}
    past = core.PPTReport((0.0, -1.0000001e-6, 1.0), 1e-6).as_dict()
    assert [c["ppt"] for c in past["cuts"].values()] == [True, False, True]
    assert past["all_ppt"] is False
    assert [f.name for f in dataclasses.fields(core.PPTReport)] == ["min_eigenvalues",
                                                                    "tolerance"]


def test_loose_wrapper_widens():
    # positivity is not checked, and the tolerance stays the one it was given:
    # the defect shows only in the spectrum
    rho = core.DensityOperator.loose(_diag8(1.2, -0.2))
    assert rho.tolerance == 1e-6
    assert rho.eigenvalues()[0] == -0.2
    # only positivity is relaxed: a matrix that is no state is refused
    upper = _diag8(0.5, 0.5)
    upper[0, 1] = 0.1
    for no_state in (upper, np.eye(8) / 4):
        with pytest.raises(ValueError):
            core.DensityOperator.loose(no_state)


def test_loose_estimate_is_not_ppt_by_its_own_negativity():
    # the estimate's lowest eigenvalue lies below every cut's minimum: the PPT
    # verdict at the default tolerance (the state's own, 1e-6) must not count
    # the estimate's negativity as slack
    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (g + g.conj().T) / 2
    rho = core.DensityOperator.loose(np.eye(8) / 8 + 0.1 * (h - np.trace(h) / 8 * np.eye(8)))
    report = core.is_ppt(rho)
    lows = report.min_eigenvalues
    assert rho.eigenvalues()[0] < min(lows) and max(lows) < -1e-6
    assert report.tolerance == 1e-6
    assert not any(c["ppt"] for c in report.as_dict()["cuts"].values())


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


_SHORT = {"x": 1}
_LONG = {"x": list(range(50)), "y": "long"}


@pytest.mark.parametrize("old, new", [(_LONG, _SHORT), (_SHORT, _LONG)],
                         ids=["longer-to-shorter", "shorter-to-longer"])
def test_write_json_overwrites_in_place(tmp_path, old, new):
    path = tmp_path / "out.json"
    core.write_json(old, path)
    inode = path.stat().st_ino
    core.write_json(new, path)
    assert path.read_text() == core.json_text(new)
    assert path.stat().st_ino == inode


def test_write_json_keeps_the_old_file_when_encoding_fails(tmp_path):
    path = tmp_path / "out.json"
    core.write_json(_LONG, path)
    with pytest.raises(TypeError):
        core.write_json({"x": object()}, path)
    assert path.read_text() == core.json_text(_LONG)


def test_json_text_refuses_non_finite_floats(tmp_path):
    # JSON has no Infinity or NaN: no file or standard output may hold them
    path = tmp_path / "out.json"
    core.write_json(_LONG, path)
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match=f"not JSON compliant: {value}$"):
            core.write_json({"trace_distance": value}, path)
    assert path.read_text() == core.json_text(_LONG)


def test_json_text_refuses_a_cycle():
    loop = {"x": [1.0]}
    loop["x"].append(loop)
    with pytest.raises(ValueError, match="Circular reference detected"):
        core.json_text(loop)


# strings the C encoder must escape, and the child boundaries the writer rewrites
_STRINGS = st.lists(st.sampled_from(['"', "\\", "\n", "\u00e9", "\u2603", "},", "],", "{", "[",
                                     "},\n  {", "x"]) | st.text(max_size=3),
                    max_size=4).map("".join)
_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 5e-324, 1e308, -1e308]))
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64)
            | _STRINGS)
# dict keys: the stdlib writes an int, float, bool or None key as a string
_OTHER_KEYS = st.none() | st.booleans() | st.integers() | _FLOATS


def _dicts(values, **sizes):
    """Dicts with str keys, with other keys alone, or with both mixed."""
    return st.one_of(*(st.dictionaries(keys, values, **sizes)
                       for keys in (_STRINGS, _OTHER_KEYS, _STRINGS | _OTHER_KEYS)))


def _containers(children):
    lists = st.lists(children, max_size=4)
    flat_dict = _dicts(_JSON_SCALARS, min_size=1, max_size=3)
    flat_list = st.lists(_JSON_SCALARS, min_size=1, max_size=3)
    return (lists | lists.map(tuple) | _dicts(children, max_size=4)
            | st.lists(flat_dict, min_size=1, max_size=4)
            | st.lists(flat_list | flat_list.map(tuple), min_size=1, max_size=4))


_TREES = st.recursive(_JSON_SCALARS, _containers, max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_text_is_the_stdlib_indented_text(payload):
    # the oracle is the stdlib's own indenting encoder, which json_text bypasses
    assert core.json_text(payload) == json.dumps(payload, indent=1, allow_nan=False) + "\n"


def test_write_json_writes_through_links(tmp_path):
    target, link, hard = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "hard.json"
    core.write_json(_LONG, target)
    link.symlink_to(target)
    os.link(target, hard)
    core.write_json(_SHORT, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == hard.read_text() == core.json_text(_SHORT)


def test_write_json_new_file_mode(tmp_path):
    old = os.umask(0o027)
    try:
        core.write_json(_SHORT, tmp_path / "new.json")
    finally:
        os.umask(old)
    assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_write_json_never_truncates_to_zero(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, *args):
        flags.append(flag)
        return real_open(path, flag, *args)

    monkeypatch.setattr(os, "open", spy)
    core.write_json(_LONG, tmp_path / "out.json")
    core.write_json(_SHORT, tmp_path / "out.json")
    assert len(flags) == 2 and not any(flag & os.O_TRUNC for flag in flags)


def test_write_json_to_a_fifo(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
    reader.start()
    core.write_json(_LONG, fifo)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [core.json_text(_LONG)]


def test_read_json_refuses_new_text_over_an_old_tail(tmp_path):
    # the file a writer killed between its write and its trim leaves behind
    path = tmp_path / "out.json"
    old, new = core.json_text(_LONG), core.json_text(_SHORT)
    path.write_text(new + old[len(new):])
    with pytest.raises(ValueError, match="Extra data"):
        core.read_json(path)
