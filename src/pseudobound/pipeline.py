"""The report pipeline: ``build_report`` takes one ``RunConfig`` from preparation to
the paper's two claims, PPT on every cut and a negative witness expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, nmr, states, tomography, witnesses

REPORT_SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Defaults are the working point of the whole pipeline."""

    a: float = states.A_OPT
    epsilon: float = witnesses.EPS_OPT
    p: float = nmr.DEFAULT_P
    sigma: float = 0.010          # measurement noise relative to the deviation
    noise_lambda: float = 0.16    # depolarization of the embedded state
    seed: int = 0


def build_report(cfg: RunConfig) -> dict:
    """prepare -> noise -> simulate -> reconstruct -> peel -> certify."""
    if cfg.p <= 0:
        raise ValueError(
            f"--p {cfg.p!r} must be positive: the peel step divides the reconstructed "
            "deviation by p and is undefined at p = 0")
    # measurement noise is quoted relative to the deviation amplitude, so
    # the absolute record sigma scales with p
    sigma_abs = cfg.sigma * cfg.p
    lo, hi = tomography.SIGMA_RANGE
    if not (sigma_abs == 0.0 or lo <= sigma_abs <= hi):
        raise ValueError(
            f"--sigma {cfg.sigma!r} times --p {cfg.p!r} must be 0 or within "
            f"[{lo:g}, {hi:g}], so that the record weight 1/sigma^2 stays a normal float")
    params = states.StateParams.symmetric(cfg.a)
    wparams = witnesses.WitnessParams.symmetric(cfg.a, cfg.epsilon)
    rho_ideal = states.bound_entangled_state(params)
    w = witnesses.witness(wparams)

    embedded = nmr.depolarize(rho_ideal, cfg.noise_lambda)
    ps = states.pseudo_state(embedded, cfg.p)

    dataset = tomography.generate_dataset(ps.rho, sigma=sigma_abs, seed=cfg.seed)
    result = tomography.reconstruct(dataset)
    peeled = states.peel_matrix(result.rho_hat.matrix, cfg.p)

    ppt = core.is_ppt(peeled, tolerance=1e-6)
    wexp = witnesses.expectation(w, peeled)
    werr = tomography.propagate_witness_error(
        result, witnesses.pseudo_witness(w, cfg.p))
    fid = core.uhlmann_fidelity(rho_ideal, peeled)
    dist = core.trace_distance(rho_ideal, peeled)

    trw8 = float(np.real(np.trace(w))) / 8.0
    modeled_wexp = (1 - cfg.noise_lambda) * (-cfg.epsilon) + cfg.noise_lambda * trw8
    imag_max = float(np.max(np.abs(np.imag(peeled.matrix))))

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": {
            "a": cfg.a, "epsilon": cfg.epsilon, "p": cfg.p,
            "sigma": cfg.sigma, "noise_lambda": cfg.noise_lambda,
            "seed": cfg.seed,
        },
        "ppt": {"cuts": ppt.as_dict(), "all_ppt": ppt.all_ppt},
        "witness": {
            "expectation": wexp,
            "sigma": werr,
            "detected": wexp < 0,
            "ideal_expectation": -cfg.epsilon,
            "modeled_expectation": modeled_wexp,
        },
        "metrics": {
            "uhlmann_fidelity": fid,
            "trace_distance": dist,
            "max_imaginary_element": imag_max,
        },
        "reconstruction": {
            "residual_norm": result.residual_norm,
            "min_eigenvalue_peeled": float(peeled.eigenvalues()[0]),
        },
        "entangled": bool(ppt.all_ppt and wexp < 0),
    }
