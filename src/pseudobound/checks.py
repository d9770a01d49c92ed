"""One registry of invariant checks, read by ``pseudobound verify`` and pytest.

Each ``CHECKS`` entry is ``(name, fn)``: ``fn(rng)`` returns a one-line
detail and raises :class:`CheckFailed` when its invariant does not hold.
Entries that are acceptance criteria keep the criterion's sample counts and
tolerances; criterion 08 is too slow for ``verify`` and lives in the tests.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import core, nmr, pipeline, states, tomography, witnesses
from .states import A_OPT
from .witnesses import EPS_OPT

_PARAMS = states.StateParams.symmetric(A_OPT)
_W_PARAMS = witnesses.WitnessParams(_PARAMS, EPS_OPT)


class CheckFailed(AssertionError):
    """An invariant does not hold; the message says where."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def family_ppt(rng) -> str:
    report = core.is_ppt(states.bound_entangled_state(_PARAMS))
    _require(report.all_ppt and min(report.min_eigenvalues) >= -1e-10, f"working point {report}")
    for _ in range(30):
        params = states.StateParams(*rng.uniform(0.1, 3.0, size=3))
        _require(core.is_ppt(states.bound_entangled_state(params)).all_ppt,
                 f"NPT at {params.as_tuple()}")
    return "working point and 30 random triples PPT on all cuts"


def _pure(vector) -> core.DensityOperator:
    return core.DensityOperator(np.outer(vector, np.conj(vector)))


def _require_verdicts(name: str, rho: core.DensityOperator, minimum) -> None:
    # each cut's partial-transpose minimum against its closed form minimum(label);
    # the verdict must be PPT exactly where that is not negative
    for label, cut in core.is_ppt(rho).as_dict()["cuts"].items():
        lo, closed = cut["min_eigenvalue"], minimum(label)
        _require(cut["ppt"] is (closed >= 0) and abs(lo - closed) <= 1e-12,
                 f"{name}: cut {label} min eigenvalue {lo:.3e}, closed form {closed:.3e}, "
                 f"ppt {cut['ppt']}")


def ghz_npt(rng) -> str:
    # negative control: GHZ is NPT under every partial transpose (maximally
    # entangled across each cut, minimum -1/2), PPT under the full one
    _require_verdicts("GHZ", _pure(states.ghz(+1)), lambda label: -0.5)
    return "GHZ NPT on 1|23, 2|13 and 3|12"


def bell_pair_npt(rng) -> str:
    # a Bell pair on two qubits, |0> on the third: PPT (minimum 0) exactly on the
    # third qubit's cut, so every wrong cut-to-label mapping flips a verdict
    for third, pair in ((3, (1, 2)), (2, (1, 3)), (1, (2, 3))):
        vector = np.zeros(8)
        vector[0] = vector[sum(4 >> (q - 1) for q in pair)] = np.sqrt(0.5)
        ppt_cut = core.CUT_LABELS[third - 1]
        _require_verdicts(f"Bell({pair[0]},{pair[1]}) with |0> on {third}", _pure(vector),
                          lambda label: 0.0 if label == ppt_cut else -0.5)
    return "Bell(1,2), Bell(1,3), Bell(2,3) with |0>: PPT only on the cut of the |0> qubit"


def noisy_ghz_boundary(rng) -> str:
    # GHZ mixed with Id/8 at weight q: every cut's partial-transpose minimum is
    # (1-q)/8 - q/2, here 1e-3 below and above zero, so a PPT tolerance far
    # above the state's own 1e-10 reads the NPT side as PPT
    for q in (0.2016, 0.1984):
        _require_verdicts(f"GHZ at q={q}", states.pseudo_state(_pure(states.ghz(+1)), q),
                          lambda label: (1 - q) / 8 - q / 2)
    return "noisy GHZ NPT at q=0.2016 and PPT at q=0.1984 on every cut, minima -/+1.0e-3"


def witness_zero_trace(rng) -> str:
    worst = 0.0
    for _ in range(100):
        params = states.StateParams(*rng.uniform(0.1, 3.0, size=3))
        val = abs(witnesses.expectation(witnesses.witness_bar(params),
                                        states.bound_entangled_state(params)))
        _require(val <= 1e-12, f"|tr(Wbar rho)| = {val:.2e} at {params.as_tuple()}")
        worst = max(worst, val)
    at_opt = witnesses.expectation(witnesses.witness(_W_PARAMS),
                                   states.bound_entangled_state(_PARAMS))
    _require(abs(at_opt + EPS_OPT) <= 1e-4, f"<W> = {at_opt:.6f} at the working point")
    return f"max |tr(Wbar rho)| = {worst:.2e}, <W> = {at_opt:.4f} at the working point"


def witness_spectrum(rng) -> str:
    lo, hi = witnesses.witness_spectrum_extremes(_W_PARAMS)
    detail = f"spectrum [{lo:.4f}, {hi:.4f}]"
    _require(-1.040 <= lo <= -1.028 and 1.815 <= hi <= 1.825, detail)
    closed = -3 * A_OPT / (1 + A_OPT * A_OPT) - EPS_OPT
    _require(abs(lo - closed) < 1e-10, f"{detail}, closed form {closed:.12f}")
    # the closed form against the dense spectrum on asymmetric triples
    for _ in range(20):
        params = witnesses.WitnessParams(states.StateParams(*rng.uniform(0.1, 3.0, size=3)),
                                         float(rng.uniform(0.0, 0.5)))
        vals = core.eigvalsh(witnesses.witness(params))
        for got, want in zip(witnesses.witness_spectrum_extremes(params), (vals[0], vals[-1])):
            _require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                     f"extreme {got:.15g}, dense {want:.15g} at {params}")
    return f"{detail}, 20 random triples match the dense spectrum"


def pseudo_witness(rng) -> str:
    for _ in range(20):
        rho = core.random_density_operator(rng)
        p = float(rng.uniform(1e-6, 1.0))
        wmat = witnesses.witness_bar(states.StateParams(*rng.uniform(0.1, 3.0, size=3)))
        lhs = witnesses.expectation(witnesses.pseudo_witness(wmat, p),
                                    states.pseudo_state(rho, p))
        rhs = witnesses.expectation(wmat, rho)
        _require(abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)),
                 f"identity off by {abs(lhs - rhs):.2e} at p={p:.2e}")
    return "20 random (state, p) pairs"


def peel_round_trip(rng) -> str:
    worst = 0.0
    for _ in range(20):
        rho = core.random_density_operator(rng)
        p = float(rng.uniform(1e-6, 1.0))
        peeled = states.peel_matrix(states.pseudo_state(rho, p).matrix, p)
        worst = max(worst, float(np.max(np.abs(peeled.matrix - rho.matrix))))
    _require(worst <= 1e-9, f"max round-trip error {worst:.2e}")
    return f"max round-trip error {worst:.2e}"


def family_rank(rng) -> str:
    r = core.numeric_rank(states.bound_entangled_state(_PARAMS).matrix)
    _require(r == 7, f"numeric rank {r}")
    return f"numeric rank {r}"


def known_layout(rng) -> str:
    # the rows, squares and whole-experiment layout a simulated dataset is given,
    # against those derived from its record indices, and its fit against the fit
    # of the same arrays through the constructor, which derives them
    table = tomography._readout_table().reshape(-1, 63)
    sigmas = (0.0, 1e-6, 1e-3, 1e-1)
    for sigma in sigmas:
        given = tomography.generate_dataset(core.random_density_operator(rng), sigma=sigma,
                                            seed=int(rng.integers(1 << 31)))
        rows, squares = given._layout
        derived = table[given.record]
        _require(np.array_equal(rows, derived), f"sigma={sigma:g}: given rows off the table's")
        _require(np.array_equal(squares, derived * derived),
                 f"sigma={sigma:g}: given squares off the squared rows")
        _require(tomography._whole_experiments(given),
                 f"sigma={sigma:g}: given a layout that is not whole experiments")
        fit = tomography.reconstruct(given)
        again = tomography.reconstruct(
            tomography.TomographyDataset(given.record, given.value, given.sigma))
        _require(np.array_equal(fit.theta, again.theta)
                 and np.array_equal(fit.covariance, again.covariance)
                 and fit.residual_norm == again.residual_norm,
                 f"sigma={sigma:g}: the given layout fits otherwise than the derived one")
    return (f"{len(sigmas)} simulated datasets' given rows, squares and layout equal the "
            f"derived ones and fit bit for bit alike")


def _require_known_spectrum(name: str, rho: core.DensityOperator, bound: float = 1e-15) -> float:
    # the spectrum a construction gave against the dense one, to bound max(1, |lam|)
    m = rho.matrix
    dense = np.linalg.eigvalsh((m + m.conj().T) / 2)
    gap = float(np.max(np.abs(rho.eigenvalues() - dense) / np.maximum(1.0, np.abs(dense))))
    _require(gap <= bound, f"{name}: given spectrum off the dense one by {gap:.1e} relative")
    return gap


def known_spectra(rng) -> str:
    # the closed forms the states are built with, against the dense solvers; the
    # family rank above keeps its own dense count
    worst = 0.0
    triples = [_PARAMS.as_tuple(), *([a] * 3 for a in rng.uniform(0.1, 3.0, 10)),
               *rng.uniform(0.1, 3.0, size=(10, 3)).tolist()]
    for triple in triples:
        family = states.bound_entangled_state(states.StateParams(*triple))
        worst = max(worst, _require_known_spectrum(f"family at {triple}", family))
        m, vals, root = family.matrix, family.eigenvalues(), family.known_root
        _require(np.count_nonzero(vals == 0.0) == 1, f"family at {triple}: spectrum {vals}")
        # the Hermitian root with the non-negative spectrum sqrt(vals) whose square is m
        # is the PSD root: its square is m to an ulp of each entry (a flat 1e-16 is
        # less than an ulp of a population above 1/2), where the dense root carries
        # the square root of its null eigenvalue's rounding
        square_gap = np.abs(root @ root - m) <= np.spacing(np.abs(m))
        root_vals = np.linalg.eigvalsh(root)
        dense = float(np.max(np.abs(root - core.matrix_sqrt_psd(m))))
        _require(np.array_equal(root, root.conj().T) and bool(np.all(square_gap))
                 and np.all(np.abs(root_vals - np.sqrt(vals)) <= 1e-15)
                 and dense <= 2.0 * np.sqrt(np.finfo(float).eps * vals[-1]),
                 f"family at {triple}: root squares to m at {np.count_nonzero(square_gap)}/64 "
                 f"entries, spectrum {root_vals}, {dense:.1e} off the dense root")
    # the identity mixing E_t of validated states, its endpoints and the report's chain
    family = states.bound_entangled_state(_PARAMS)
    for rho, t in [*((core.random_density_operator(rng), float(t)) for t in rng.uniform(0, 1, 10)),
                   (family, 0.0), (family, 1.0), (family, 2.3e-5)]:
        worst = max(worst, _require_known_spectrum(f"E_t at t={t:.3g}",
                                                   core.mix_state(rho, t)))
    for name, rho in (("pseudo state", states.pseudo_state(family, 2.3e-5)),
                      ("depolarized", nmr.depolarize(family, 0.16)),
                      ("depolarized pseudo state",
                       states.pseudo_state(nmr.depolarize(family, 0.16), 2.3e-5))):
        worst = max(worst, _require_known_spectrum(name, rho))
    # the clipped spectrum of a noisy estimate's projection, which rebuilds the
    # matrix V diag(clipped) V^dag: its rounding moves the dense spectrum by up to
    # about n^2 eps lam_max, n = 8 (at most 5 eps, 13.6 eps lam_max, in 6000 draws)
    for sigma in (1e-3, 1e-1):
        rec = tomography.reconstruct(tomography.generate_dataset(
            core.random_density_operator(rng), sigma=sigma, seed=int(rng.integers(1 << 31))))
        projected = tomography.project_to_physical(rec.rho_hat)
        worst = max(worst, _require_known_spectrum(
            f"projection at sigma={sigma:g}", projected,
            64 * np.finfo(float).eps * projected.eigenvalues()[-1]))
    # the diagonal NMR states and the prepared state, which keeps the seed's spectrum
    p = nmr.matched_fraction(A_OPT, nmr.DEFAULT_KAPPA_H)
    seed, five = nmr.target_diagonal(A_OPT, p), nmr.initial_states(nmr.DEFAULT_KAPPA_H)
    mixed = nmr.mix_states(five, nmr.solve_temporal_weights(five, seed).weights)
    for name, rho in (("seed", seed.state), ("mixed inputs", mixed),
                      ("prepared", nmr.prepare_pseudo_state(seed)),
                      *((f"input {k}", spec.state) for k, spec in enumerate(five))):
        worst = max(worst, _require_known_spectrum(name, rho))
    return (f"{len(triples)} family spectra and roots, 16 E_t maps, 2 projections and "
            f"8 NMR states match the dense solvers, spectra to {worst:.1e} relative")


def preparation(rng) -> str:
    u = nmr.preparation_unitary()
    unitary = float(np.max(np.abs(u @ u.conj().T - np.eye(8))))
    v_sel, v_cnot = nmr.factor_preparation()
    product = float(np.max(np.abs(v_cnot @ v_sel - u)))
    mods = np.abs(v_cnot)
    perm = bool(np.all(np.isclose(mods, 0.0, atol=1e-14) | np.isclose(mods, 1.0, atol=1e-14)))
    detail = f"unitarity {unitary:.1e}, factorization {product:.1e}, population-permutation {perm}"
    _require(unitary < 1e-14 and product < 1e-14 and perm, detail)
    return detail


def temporal_weld(rng) -> str:
    p = nmr.matched_fraction(A_OPT, nmr.DEFAULT_KAPPA_H)
    seed_spec = nmr.target_diagonal(A_OPT, p)
    five = nmr.initial_states(nmr.DEFAULT_KAPPA_H)
    sol = nmr.solve_temporal_weights(five, seed_spec)
    _require(sol.residual <= 1e-10, f"weights residual {sol.residual:.1e}")
    u = nmr.preparation_unitary()
    family = states.bound_entangled_state(_PARAMS)
    prepared = u @ nmr.mix_states(five, sol.weights).matrix @ u.conj().T
    expected = states.pseudo_state(family, sol.achieved_p).matrix
    gap = float(np.max(np.abs(prepared - expected)))
    _require(gap <= 1e-12, f"weld gap {gap:.1e}")
    # the seed built from its closed-form z-orders against the reference, the
    # pseudo state at the same p that the gate sequence must reach
    conjugated = u @ seed_spec.state.matrix @ u.conj().T
    seed_gap = float(np.max(np.abs(conjugated - states.pseudo_state(family, p).matrix)))
    _require(seed_gap <= 1e-15, f"conjugated seed off the pseudo state by {seed_gap:.1e}")
    coefficients = (*seed_spec.single_spin[:2], seed_spec.three_spin)
    _require(all(abs(c - ref) <= 0.01 for c, ref in zip(coefficients, (-0.78, -0.21, 3.85))),
             f"seed coefficients {coefficients}")
    return f"weights residual {sol.residual:.1e}, weld gap {gap:.1e}, seed gap {seed_gap:.1e}"


def synthesis_domain(rng) -> str:
    # on (0, A_MAX] the matched fraction's weights are (p/kappa) * order / amplitude,
    # all non-negative, and the solver reaches them; solved on z-orders, they
    # carry no rounding of the Id/8 background, so one absolute bound holds
    # across KAPPA_RANGE
    amplitudes = np.array([nmr.THREE_SPIN_AMPLITUDE, *nmr.TWO_SPIN_AMPLITUDES, -1.0])
    worst = np.zeros(3)
    domain = (*np.linspace(nmr.A_MAX / 24, nmr.A_MAX, 24), A_OPT)
    for kappa, a in product((nmr.KAPPA_RANGE[0], nmr.DEFAULT_KAPPA_H, nmr.KAPPA_RANGE[1]), domain):
        p = nmr.matched_fraction(a, kappa)
        seed = nmr.target_diagonal(a, p)
        sol = nmr.solve_temporal_weights(nmr.initial_states(kappa, a=a), seed)
        orders = np.array(seed.orders)
        exact = p / kappa * orders[[6, 3, 4, 5, 0]] / amplitudes
        # the seed's deviation from Id/8 in the residual's norm
        deviation = p * float(np.linalg.norm(orders / nmr._Z_WEIGHT)) / np.sqrt(8.0)
        errors = np.array([np.max(np.abs(sol.weights - exact)), abs(sol.achieved_p / p - 1.0),
                           sol.residual / deviation])
        _require(exact.min() >= -1e-15 and np.all(errors <= 1e-15),
                 f"kappa={kappa:g}, a={a:.4g}: weights {exact}, weight/p/residual errors {errors}")
        worst = np.maximum(worst, errors)
    # just past A_MAX the three-spin weight is negative: no matched fraction
    try:
        p = nmr.matched_fraction(0.7208, nmr.DEFAULT_KAPPA_H)
    except ValueError:
        p = None
    _require(p is None, f"a=0.7208 outside the domain, yet matched fraction {p}")
    return (f"25 a in (0, {nmr.A_MAX:.6f}] at 3 kappa: weight/p/residual errors at most "
            f"{worst[0]:.1e}/{worst[1]:.1e}/{worst[2]:.1e}; a=0.7208 refused")


def separable_boundary(rng) -> str:
    params = states.StateParams(1.0, 1.0, 1.0)
    rho = states.bound_entangled_state(params)
    eps = witnesses.certified_epsilon(1.0, restarts=100, seed=11)
    detected = witnesses.expectation(
        witnesses.witness_bar(params) - eps * np.eye(8), rho) < -1e-9
    detail = f"flag {params.entangled_regime}, eps {eps:.2e}, detected {detected}"
    _require((not params.entangled_regime) and (not detected)
             and core.is_ppt(rho).all_ppt and abs(eps) < 1e-6, detail)
    return detail


def witness_optimization(rng) -> str:
    report = witnesses.optimize_parameters(search_range=(0.05, 1.0),
                                           restarts=250, seed=7)
    detail = (f"a {report.a:.4f}, eps {report.epsilon_certified:.4f}, "
              f"q* {report.noise_threshold:.4f} over {report.total_restarts} restarts")
    _require(report.total_restarts >= 10_000 and 0.33 <= report.a <= 0.36
             and 0.10 <= report.epsilon_certified <= 0.11
             and abs(report.noise_threshold - 0.786) <= 0.005, detail)
    return detail


def tomography_round_trip(rng) -> str:
    a = tomography.design_matrix()
    rank = int(np.linalg.matrix_rank(a))
    _require(rank == 63, f"rank {rank} ({a.shape[0]} rows)")
    worst = 0.0
    for _ in range(50):
        rho = core.random_density_operator(rng)
        rec = tomography.reconstruct(tomography.generate_dataset(rho, sigma=0.0))
        dist = core.trace_distance(rec.rho_hat, rho)
        _require(dist <= 1e-8, f"round-trip trace distance {dist:.2e}")
        worst = max(worst, dist)
    return f"rank {rank} ({a.shape[0]} rows), worst trace distance {worst:.2e}"


def diagonal_normal_matrix(rng) -> str:
    # the closed-form fit in tomography.reconstruct rests on this
    table = tomography._readout_table()
    grams = np.einsum("erk,erl->ekl", table, table)   # one Gram per experiment
    diag = np.diagonal(grams, axis1=1, axis2=2)
    off = np.max(np.abs(grams - diag[:, :, None] * np.eye(63)), axis=(1, 2))
    scale = diag.max(axis=1)
    for (setting, detect), o, d in zip(tomography._EXPERIMENTS, off, scale):
        _require(o <= 1e-12 * d, f"Gram of ({setting}, {detect}) off-diagonal {o:.1e}")
    worst = float(np.max(off / scale))
    full = np.sum(tomography.design_matrix() ** 2, axis=0)
    detail = (f"{len(tomography._EXPERIMENTS)} block Grams diagonal to {worst:.1e}, "
              f"design diagonal in [{full.min():.2f}, {full.max():.2f}]")
    _require(16 - 1e-9 <= full.min() and full.max() <= 96 + 1e-9, detail)
    return detail


def whole_experiment_covariance(rng) -> str:
    # one sigma over whole experiments: the covariance is sigma^2 / diag(A^T A)
    sigma = 1e-3
    rec = tomography.reconstruct(
        tomography.generate_dataset(core.random_density_operator(rng), sigma=sigma))
    expected = np.diag(sigma ** 2 / np.sum(tomography.design_matrix() ** 2, axis=0))
    gap = float(np.max(np.abs(rec.covariance - expected)) / np.max(expected))
    _require(gap <= 1e-12, f"covariance off sigma^2/diag(A^T A) by {gap:.1e} relative")
    return f"covariance equals sigma^2/diag(A^T A) to {gap:.1e} relative"


def error_propagation(rng) -> str:
    rho = states.bound_entangled_state(_PARAMS)
    rec = tomography.reconstruct(tomography.generate_dataset(rho, sigma=1e-3, seed=3))
    w = witnesses.witness(_W_PARAMS)
    s_w = tomography.propagate_witness_error(rec, w)
    s_id = tomography.propagate_witness_error(rec, np.eye(8))
    s_shift = tomography.propagate_witness_error(rec, w + 3.7 * np.eye(8))
    s_scaled = tomography.propagate_witness_error(rec, 2.0 * w)
    detail = f"sigma_W {s_w:.2e}, identity {s_id:.1e}"
    _require(s_id == 0.0 and abs(s_shift - s_w) < 1e-12 and abs(s_scaled - 2 * s_w) < 1e-12,
             detail)
    return detail


def metric_sandwich(rng) -> str:
    for _ in range(100):
        a, b = core.random_density_operator(rng), core.random_density_operator(rng)
        f = core.uhlmann_fidelity(a, b)
        dt = core.trace_distance(a, b)
        _require(1 - f <= dt + 1e-10 and dt <= np.sqrt(max(0.0, 1 - f * f)) + 1e-10,
                 f"violated at F={f:.4f}, dt={dt:.4f}")
    rho = core.random_density_operator(rng)
    f_self = core.uhlmann_fidelity(rho, rho)
    _require(abs(f_self - 1.0) <= 1e-12, f"F(rho, rho) = {f_self!r}")
    d0, d7 = (core.DensityOperator(np.diag(np.eye(8)[k])) for k in (0, 7))
    dt, f = core.trace_distance(d0, d7), core.uhlmann_fidelity(d0, d7)
    _require(dt == 1.0 and f == 0.0, f"orthogonal pure states: dt={dt!r}, F={f!r}")
    return "100 random pairs inside the bounds, exact endpoints"


def projector_spectrum(rng) -> str:
    v = core.random_unitary(rng)[:, :3]
    vals = core.eigvalsh(v @ v.conj().T)
    _require(bool(np.all((np.abs(vals) < 1e-9) | (np.abs(vals - 1) < 1e-9))),
             f"projector eigenvalues {np.round(vals, 12)}")
    return "projector eigenvalues in {0, 1}"


def noisy_report(rng) -> str:
    rep = pipeline.build_report(pipeline.RunConfig())
    m, w = rep["metrics"], rep["witness"]
    detail = (f"F {m['uhlmann_fidelity']:.4f}, dt {m['trace_distance']:.4f}, "
              f"<W> {w['expectation']:+.4f} +/- {w['sigma']:.4f}")
    # calibration context: fidelity near 0.98
    _require(0.97 <= m["uhlmann_fidelity"] <= 0.995 and 0.05 <= m["trace_distance"] <= 0.13
             and w["expectation"] < 0 and rep["ppt"]["all_ppt"] is True
             and 0.005 <= w["sigma"] <= 0.02 and rep["entangled"] is True, detail)
    return detail


def exact_report(rng) -> str:
    # exact data and no depolarization: the pipeline must hand back the family state
    rep = pipeline.build_report(pipeline.RunConfig(sigma=0.0, noise_lambda=0.0))
    dist, w = rep["metrics"]["trace_distance"], rep["witness"]
    detail = f"dt {dist:.1e}, <W> + eps {w['expectation'] + EPS_OPT:.1e}, sigma_W {w['sigma']}"
    _require(dist <= 1e-9 and abs(w["expectation"] + EPS_OPT) <= 1e-9 and w["sigma"] == 0.0,
             detail)
    return detail


def product_bloch_form(rng) -> str:
    # the product-state minimiser descends on this form
    w = witnesses.witness_bar(_PARAMS)
    t = witnesses.bloch_tensor(w)
    worst = 0.0
    for _ in range(50):
        psi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        bloch = [[np.vdot(v, s @ v).real for s in core.PAULIS.values()] for v in psi]
        gap = abs(np.einsum("ijk,i,j,k->", t, *bloch) - witnesses.product_expectation(w, psi))
        _require(gap <= 1e-12, f"Bloch form off by {gap:.1e} at {np.round(psi, 4).tolist()}")
        worst = max(worst, gap)
    return f"50 random product states at the working point, worst gap {worst:.1e}"


def working_point_closed_form(rng) -> str:
    # the symmetric product-state minimum is the lower of the |101> vertex and the
    # product |psi>^3; they meet at a* + 1/a* = 1 + sqrt5, at eps* = a*/(1 + sqrt5),
    # where psi = (cos(theta/2), sin(theta/2)) has cos(theta) = 2 - sqrt5
    r5 = np.sqrt(5.0)
    a_star = (1 + r5 - np.sqrt(2 + 2 * r5)) / 2
    wbar, half = witnesses.witness_bar(states.StateParams.symmetric(a_star)), np.arccos(2 - r5) / 2
    gaps = [witnesses.product_expectation(wbar, vectors) - a_star / (1 + r5)
            for vectors in (np.eye(2)[[1, 0, 1]], [[np.cos(half), np.sin(half)]] * 3)]
    bound = A_OPT ** 2 / (1 + A_OPT ** 2)
    detail = (f"a* {a_star:.15f}: |101> and |psi>^3 off eps* by {gaps[0]:.1e} and "
              f"{gaps[1]:.1e}; EPS_OPT {EPS_OPT} <= {bound:.6f}")
    _require(max(map(abs, gaps)) <= 1e-15 and EPS_OPT <= bound, detail)
    return detail


CHECKS = (
    ("state family PPT", family_ppt),  # criterion 01
    ("PPT negative control: GHZ", ghz_npt),
    ("PPT negative control: Bell pair and |0>", bell_pair_npt),
    ("PPT boundary control: noisy GHZ", noisy_ghz_boundary),
    ("witness zero-trace identity", witness_zero_trace),  # criterion 02
    ("witness spectrum", witness_spectrum),  # criterion 03
    ("pseudo witness identity", pseudo_witness),
    ("pseudo state peel round trip", peel_round_trip),
    ("state family rank", family_rank),  # criterion 04
    # before "known spectra", whose projections fit simulated datasets: a wrong
    # given layout is named here, not as an unfit projection there
    ("known layout", known_layout),
    ("known spectra", known_spectra),
    ("preparation unitary and factorization", preparation),
    ("temporal averaging weld", temporal_weld),  # criterion 05
    ("temporal synthesis is exact on its domain", synthesis_domain),
    ("separable boundary behaviour", separable_boundary),
    ("witness optimization", witness_optimization),  # criterion 06
    ("tomography design rank and round trip", tomography_round_trip),  # criterion 07
    ("diagonal tomography normal matrix", diagonal_normal_matrix),
    ("whole-experiment covariance", whole_experiment_covariance),
    ("witness error propagation", error_propagation),
    ("fidelity/trace-distance sandwich", metric_sandwich),  # criterion 10
    ("projector spectrum", projector_spectrum),
    ("end-to-end noisy report", noisy_report),  # criterion 09
    ("end-to-end exact report", exact_report),
    ("product-state Bloch form", product_bloch_form),
    ("working point closed form", working_point_closed_form),
)
