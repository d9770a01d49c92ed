"""Mutant kill matrix for the invariant registry ``checks.CHECKS``.

Each mutant replaces one module attribute that the package looks up at call
time (as ``module.attr`` or as a module global) with a wrong version.  Before
a mutant counts, its probe must read differently with the patch than without:
a patch that misses the call sites the registry uses would otherwise pass as
a survivor, or as a kill for the wrong reason.  The registry then runs in
order, each entry on its own ``checks.entry_rng(name, 0)`` as ``pseudobound
verify`` runs it, and stops at the first entry that fails (a ``CheckFailed``
or any other exception, which ``verify`` also counts as a failure).  That
entry must be the one the row names.  The readout table and the default
layout are built once per process from module globals that some mutants
patch, so each row builds them anew under its patch and none outlives it.
The unmutated entries are run by ``test_acceptance.py``.

The witness optimization (criterion 06) is left out: it takes seconds, and no
mutant here reaches the product-state search.
"""

import dataclasses

import numpy as np
import pytest

from pseudobound import checks, core, nmr, states, tomography, witnesses
from conftest import A_OPT

PARAMS = states.StateParams.symmetric(A_OPT)
FAMILY = states.bound_entangled_state(PARAMS)

_is_ppt = core.is_ppt
_peel_matrix = states.peel_matrix
_reconstruct = tomography.reconstruct
_seed_orders = nmr._seed_orders
_preparation_unitary = nmr.preparation_unitary
_x_state_forms = states._x_state_forms
_default_layout = tomography._default_layout
_fit_rows = tomography._fit_rows
_readout_table = tomography._readout_table


# the partial transposes' one shared index, mutated: every cut gets the full
# transpose, or the cut labelled by qubit q transposes qubit q mod 3 + 1
_FULL_TRANSPOSE_INDEX = np.tile(np.arange(64).reshape(8, 8).T.reshape(64), (3, 1))
_ROTATED_INDEX = np.roll(core._PT_INDEX, -1, axis=0)


def _loose_is_ppt(rho, tolerance=None):
    return _is_ppt(rho, tolerance=1e-2)


def _overpeel(matrix, p):
    return _peel_matrix(matrix, 1.01 * p)


def _unit_trace_mix(op, t):
    # identity mixing with tr(X) taken as 1: right for a state, wrong for the
    # witness, whose trace is 4
    return t * core._as_matrix(op) + (1.0 - t) / 8 * np.eye(8)


def _inflated_covariance(dataset):
    result = _reconstruct(dataset)
    return dataclasses.replace(result, covariance=1.5 * result.covariance)


def _flipped_order(k):
    def seed_orders(a):
        orders = _seed_orders(a)
        orders[k] = -orders[k]
        return orders
    return seed_orders


def _budget_only_fraction(a, kappa):
    # the old rule: refuse only where the z-order budget is not positive, so
    # that a negative three-spin weight passes as an exact synthesis
    orders = _seed_orders(a)
    budget = (orders[6] / nmr.THREE_SPIN_AMPLITUDE
              + np.sum(orders[3:6] / nmr.TWO_SPIN_AMPLITUDES) - orders[0])
    if budget <= 0:
        raise ValueError(f"z-order budget {budget:.3g} is not positive")
    return float(kappa / budget)


def _matrix_space_weights(inputs, target):
    # the solver that read the deviations back off 8x8 matrices near Id/8: its
    # weights carry that background's rounding, about 2e-16/kappa
    dev = np.column_stack([np.real(np.diag(s.state.matrix)) for s in inputs]) - 1.0 / 8.0
    t = np.real(np.diag(target.state.matrix)) - 1.0 / 8.0
    gram = dev.T @ dev
    n = np.diag(gram)
    if not np.all(n > 0):
        raise ValueError("an input state has no deviation from Id/8")
    overlap = np.abs(gram - np.diag(n)) / np.sqrt(np.outer(n, n))
    if np.max(overlap) > 1e-9:
        raise ValueError(f"input deviations are not orthogonal (overlap {np.max(overlap):.1e})")
    q = core.simplex_projection(dev.T @ t / n, n)
    mix_dev = dev @ q
    denom = float(t @ t)
    achieved = target.scale * float(mix_dev @ t) / denom if denom > 0 else 0.0
    return nmr.WeightSolution(weights=q, residual=float(np.linalg.norm(mix_dev - t)),
                              achieved_p=achieved)


def _flipped_unitary():
    # negating the |111> row keeps the sequence unitary and its factors a
    # rotation and a population permutation, but flips the GHZ corner it prepares
    u = _preparation_unitary()
    u[7] = -u[7]
    return u


def _one_qubit_spectrum(params):
    # the flip-flop sum taken as three times the first qubit's share: right on a
    # symmetric triple only
    a, g, eps = params.state_params.a1, witnesses._GHZ_WEIGHT, params.epsilon
    s = 3 * a / (1.0 + a * a)
    return (g - eps) - (g + s), (g - eps) + (g + s)


def _asymmetric_spectrum():
    return witnesses.witness_spectrum_extremes(
        witnesses.WitnessParams(states.StateParams(0.2, 0.5, 1.5), 0.1))


def _half_block_eigenvalue(m):
    # the GHZ block's eigenvalue 2/N given as 1/N
    spectrum, root = _x_state_forms(m)
    spectrum[spectrum == 2.0 * m[0, 7]] = m[0, 7]
    return np.sort(spectrum), root


def _whole_corner_root(m):
    # the root's GHZ block sqrt(1/N) [[1, 1], [1, 1]], which squares to twice the block
    spectrum, root = _x_state_forms(m)
    root[np.ix_((0, 7), (0, 7))] = np.sqrt(m[0, 7])
    return spectrum, root


def _unshifted_mix_state(rho, t):
    # E_t's spectrum taken as t lam, without the (1 - t) tr/8 of the identity part
    return core.DensityOperator.with_spectrum(core.mix_with_identity(rho, t),
                                              t * rho.eigenvalues())


def _rolled_layout():
    # the default layout's rows, and so their squares, rolled by one experiment
    return tuple(np.roll(a, len(tomography._ROW_LABELS), axis=0) for a in _default_layout())


def _unsquared_layout():
    # the rows kept in place of their squares
    rows, _ = _default_layout()
    return rows, rows


def _kept_rows_for_every_whole_layout(dataset):
    # the default layout's rows for any whole experiments with one sigma each,
    # not only for the default records
    rows, squares = _fit_rows(dataset)
    return (rows, squares) if squares is None else _default_layout()


def _reversed_rows():
    # the rows a fit reads for the default records in reverse experiment order
    dataset = tomography.generate_dataset(FAMILY)
    reverse = (a.reshape(-1, 8)[::-1].ravel() for a in (dataset.record, dataset.value,
                                                           dataset.sigma))
    return tomography._fit_rows(tomography.TomographyDataset(*reverse))[0]


def _family_known_forms():
    rho = states.bound_entangled_state(PARAMS)
    return np.concatenate([rho.eigenvalues(), rho.known_root.ravel()])


def _kept_layout():
    return np.concatenate([a.ravel()
                           for a in tomography._fit_rows(tomography.generate_dataset(FAMILY))])


def _mixed_spectrum():
    return core.mix_state(FAMILY, 0.5).eigenvalues()


def _ppt_verdicts():
    ghz = np.outer(states.ghz(+1), states.ghz(+1).conj())
    bell_12 = np.zeros((8, 8))
    bell_12[np.ix_([0, 6], [0, 6])] = 0.5
    noisy_ghz = 0.2016 * ghz + 0.7984 * np.eye(8) / 8
    return [cut["ppt"] for m in (ghz, bell_12, noisy_ghz)
            for cut in core.is_ppt(core.DensityOperator(m)).as_dict()["cuts"].values()]


def _peeled():
    return states.peel_matrix(states.pseudo_state(FAMILY, 0.5).matrix, 0.5).matrix


def _pseudo_witness():
    return witnesses.pseudo_witness(witnesses.witness_bar(PARAMS), 0.5)


def _covariance():
    dataset = tomography.generate_dataset(FAMILY, sigma=1e-3, seed=1)
    return tomography.reconstruct(dataset).covariance


def _seed_coefficients():
    spec = nmr.target_diagonal(A_OPT, 1e-5)
    return [*spec.single_spin, *spec.two_spin, spec.three_spin]


def _fractions():
    out = []
    for a in (0.7207, 0.7208, 1.0):
        try:
            out.append(nmr.matched_fraction(a, nmr.DEFAULT_KAPPA_H))
        except ValueError:
            out.append(-1.0)
    return out


def _weights_at_the_smallest_kappa():
    kappa = nmr.KAPPA_RANGE[0]
    seed = nmr.target_diagonal(A_OPT, nmr.matched_fraction(A_OPT, kappa))
    return nmr.solve_temporal_weights(nmr.initial_states(kappa), seed).weights


def _prepared():
    return nmr.prepare_pseudo_state(nmr.target_diagonal(A_OPT, 1e-5)).matrix


# name, (module, attribute, replacement), probe, the first registry entry to fail
MUTANTS = [
    ("full transpose", (core, "_PT_INDEX", _FULL_TRANSPOSE_INDEX), _ppt_verdicts,
     "PPT negative control: GHZ"),
    ("rotated cut-to-label mapping", (core, "_PT_INDEX", _ROTATED_INDEX),
     _ppt_verdicts, "PPT negative control: Bell pair and |0>"),
    ("is_ppt tolerance 1e-2", (core, "is_ppt", _loose_is_ppt), _ppt_verdicts,
     "PPT boundary control: noisy GHZ"),
    ("witness spectrum from one qubit's share",
     (witnesses, "witness_spectrum_extremes", _one_qubit_spectrum), _asymmetric_spectrum,
     "witness spectrum"),
    ("peeling with 1.01 p", (states, "peel_matrix", _overpeel), _peeled,
     "pseudo state peel round trip"),
    ("identity mixing with tr(X) taken as 1", (witnesses, "mix_with_identity", _unit_trace_mix),
     _pseudo_witness, "pseudo witness identity"),
    ("family block eigenvalue 1/N", (states, "_x_state_forms", _half_block_eigenvalue),
     _family_known_forms, "known spectra"),
    ("family root corner sqrt(1/N)", (states, "_x_state_forms", _whole_corner_root),
     _family_known_forms, "known spectra"),
    ("E_t spectrum without its identity shift", (core, "mix_state", _unshifted_mix_state),
     _mixed_spectrum, "known spectra"),
    ("kept rows rolled by one experiment", (tomography, "_default_layout", _rolled_layout),
     _kept_layout, "tomography design rank and round trip"),
    ("kept squares that are the unsquared rows",
     (tomography, "_default_layout", _unsquared_layout), _kept_layout, "known spectra"),
    ("kept rows for every whole-experiment layout",
     (tomography, "_fit_rows", _kept_rows_for_every_whole_layout), _reversed_rows,
     "whole-experiment covariance"),
    ("H detection swapped onto the F qubit",
     (tomography, "_DETECT_SLOTS", {**tomography._DETECT_SLOTS, "H": (2, 1, 0)}),
     _readout_table, "readout table is exact"),
    ("X(pi/2) sends Z to +Y", (tomography, "_PAULI_MAPS",
                               {**tomography._PAULI_MAPS, "X": ((0, 1, 3, 2), (1, 1, 1, 1))}),
     _readout_table, "readout table is exact"),
    ("covariance x1.5", (tomography, "reconstruct", _inflated_covariance), _covariance,
     "whole-experiment covariance"),
    *((f"seed order {label} sign", (nmr, "_seed_orders", _flipped_order(k)), _seed_coefficients,
       "temporal averaging weld") for k, label in enumerate(nmr._Z_ORDERS)),
    ("preparation |111> row sign", (nmr, "preparation_unitary", _flipped_unitary), _prepared,
     "temporal averaging weld"),
    ("matched fraction on the budget's sign only", (nmr, "matched_fraction", _budget_only_fraction),
     _fractions, "temporal synthesis is exact on its domain"),
    ("weights solved on 8x8 matrices", (nmr, "solve_temporal_weights", _matrix_space_weights),
     _weights_at_the_smallest_kappa, "temporal synthesis is exact on its domain"),
]


def _first_failure():
    for name, check in checks.CHECKS:
        if name == "witness optimization":
            continue
        try:
            check(checks.entry_rng(name, 0))
        except Exception:
            return name
    return None


def _clear_tables():
    _readout_table.cache_clear()
    _default_layout.cache_clear()


@pytest.fixture(autouse=True)
def _fresh_tables():
    # set up before monkeypatch, so torn down after it: the tables built under
    # a patch are dropped once the patch is undone
    yield
    _clear_tables()


@pytest.mark.parametrize("patch, probe, killer", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_takes_effect_and_is_killed(monkeypatch, patch, probe, killer):
    before = probe()
    monkeypatch.setattr(*patch)
    _clear_tables()
    assert not np.array_equal(probe(), before), "the mutant did not take effect"
    assert _first_failure() == killer
