"""The report pipeline: ``build_report`` takes one ``RunConfig`` from preparation to
the paper's two claims, PPT on every cut and a negative witness expectation.
"""

from __future__ import annotations

import math
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
    if not math.isfinite(1.0 / cfg.p):
        raise ValueError(
            f"--p {cfg.p!r} must have a finite reciprocal: the peel step divides the "
            "reconstructed deviation by p")
    if cfg.p > 1.0:
        raise ValueError(f"--p {cfg.p!r} must be at most 1: it is the weight of the state "
                         "in the pseudo state (1-p) Id/8 + p rho")
    # measurement noise is quoted relative to the deviation amplitude, so
    # the absolute record sigma scales with p; only --sigma 0 means exact data
    sigma_abs = cfg.sigma * cfg.p
    lo, hi = tomography.SIGMA_RANGE
    if not (cfg.sigma == 0.0 or lo <= sigma_abs <= hi):
        raise ValueError(
            f"--sigma {cfg.sigma!r} times --p {cfg.p!r} must be 0 or within "
            f"[{lo:g}, {hi:g}], so that the record weight 1/sigma^2 stays a normal float")
    params = states.StateParams.symmetric(cfg.a)
    wparams = witnesses.WitnessParams(params, cfg.epsilon)
    rho_ideal = states.bound_entangled_state(params)
    w = witnesses.witness(wparams)

    embedded = nmr.depolarize(rho_ideal, cfg.noise_lambda)
    ps = states.pseudo_state(embedded, cfg.p)

    dataset = tomography.generate_dataset(ps, sigma=sigma_abs, seed=cfg.seed)
    result = tomography.reconstruct(dataset)
    peeled = states.peel_matrix(result.rho_hat.matrix, cfg.p)

    ppt = core.is_ppt(peeled)
    wexp = witnesses.expectation(w, peeled)
    # the pseudo witness E_{1/p}(W) has the Pauli coordinates of W over p
    werr = tomography.propagate_witness_error(result, w) / cfg.p
    fid = core.uhlmann_fidelity(rho_ideal, peeled)
    dist = core.trace_distance(rho_ideal, peeled)

    trw8 = float(w.trace().real) / 8.0
    modeled_wexp = (1 - cfg.noise_lambda) * (-cfg.epsilon) + cfg.noise_lambda * trw8
    imag_max = float(np.abs(peeled.matrix.imag).max())

    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": {
            "a": cfg.a, "epsilon": cfg.epsilon, "p": cfg.p,
            "sigma": cfg.sigma, "noise_lambda": cfg.noise_lambda,
            "seed": cfg.seed,
        },
        "ppt": ppt.as_dict(),
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
