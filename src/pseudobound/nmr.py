"""Liquid-state NMR preparation pipeline for the pseudo bound-entangled state.

The register is the CHF group of a three-spin molecule: carbon is qubit 1,
hydrogen qubit 2, fluorine qubit 3.  Preparation runs in three stages:
five experimentally accessible diagonal spin-order states are mixed with
non-negative weights (temporal averaging) into a specific diagonal seed
state, and a fixed unitary (a line-selective rotation followed by two
controlled-NOT-like gates) turns that seed into the pseudo bound-entangled
target.  Gradient-based spatial averaging is modelled as ideal, i.e. the
five input states are taken as exactly diagonal.

The seven z-orders of a diagonal state are seven of its Pauli coordinates
in ``core``: the seed expansion reads them and the five inputs are built
from them through that one map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DensityOperator, _as_matrix, parameters_to_matrix, pauli_labels,
                   simplex_projection, state_parameters)
from .states import A_OPT, StateParams, PseudoState, bound_entangled_state, pseudo_state

DEFAULT_KAPPA_H = 8.4e-5
DEFAULT_P = DEFAULT_KAPPA_H / 3.61   # what the five inputs reach (matched_fraction)


# ---------------------------------------------------------------------------
# preparation unitary and its gate factorization


def preparation_unitary() -> np.ndarray:
    """Total gate sequence mapping the diagonal seed to the entangled target.

    Column 4 sends |100> to the GHZ coherence; the remaining columns are
    basis states up to phases, plus a population swap in the qubit-1=1
    sector.
    """
    u = np.zeros((8, 8), dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    u[0, 0] = r
    u[0, 4] = r
    u[7, 0] = -r
    u[7, 4] = r
    u[1, 1] = 1j
    u[2, 2] = -1j
    u[3, 3] = 1.0
    u[4, 7] = 1.0
    u[5, 6] = 1j
    u[6, 5] = -1j
    return u


def factor_preparation() -> tuple[np.ndarray, np.ndarray]:
    """Split the preparation into (selective rotation, CNOT-like remainder).

    The first factor rotates by -pi/2 about y inside span{|000>, |100>} and
    leaves every other basis state alone.  The second factor is defined as
    the exact remainder, and only permutes populations (its entries have
    modulus 0 or 1).
    """
    v_sel = np.eye(8, dtype=complex)
    r = 1.0 / np.sqrt(2.0)
    # exp(-i * theta * I_y) at theta = -pi/2, in the (|000>, |100>) block
    v_sel[0, 0] = r
    v_sel[0, 4] = r
    v_sel[4, 0] = -r
    v_sel[4, 4] = r
    u = preparation_unitary()
    v_cnotlike = u @ v_sel.conj().T
    return v_sel, v_cnotlike


# ---------------------------------------------------------------------------
# diagonal seed state and product-operator coefficients

# z1, z2, z3, z1z2, z1z3, z2z3, z1z2z3 as Pauli labels; a product of k spin operators
# I_z is the Pauli product over 2^k, so its coefficient is 8 * 2^k * theta / scale
_Z_ORDERS = ("ZII", "IZI", "IIZ", "ZZI", "ZIZ", "IZZ", "ZZZ")
_Z_INDEX = [pauli_labels().index(label) for label in _Z_ORDERS]
_Z_WEIGHT = np.array([2.0 ** label.count("Z") for label in _Z_ORDERS])


@dataclass(frozen=True)
class DiagonalStateSpec:
    """Diagonal seed state and its z-product-operator expansion.

    The state is Id/8 + (scale/8) * sum(coefficient * operator); the
    coefficients are stored in the fixed term order z1, z2, z3, z1z2,
    z1z3, z2z3, z1z2z3.
    """

    single_spin: tuple[float, float, float]
    two_spin: tuple[float, float, float]
    three_spin: float
    scale: float
    state: DensityOperator


def expand_diagonal_state(state, scale: float) -> DiagonalStateSpec:
    """Read the z-product-operator coefficients off a diagonal state.

    Coefficients are the Pauli coordinates of its real diagonal at the seven
    z-orders, in units of scale/8; an off-diagonal above 1e-12 is a ValueError.
    """
    matrix = _as_matrix(state)
    off = float(np.max(np.abs(matrix - np.diag(np.diag(matrix)))))
    if off > 1e-12:
        raise ValueError(f"state is not diagonal (off-diagonal {off:.3e} > 1e-12)")
    diagonal = np.diag(np.real(np.diag(matrix))).astype(complex)
    coeffs = (8.0 * _Z_WEIGHT * state_parameters(diagonal)[_Z_INDEX] / scale).tolist()
    return DiagonalStateSpec(
        single_spin=tuple(coeffs[0:3]),
        two_spin=tuple(coeffs[3:6]),
        three_spin=coeffs[6],
        scale=scale,
        state=DensityOperator(diagonal),
    )


def target_diagonal(params: StateParams, p: float) -> DiagonalStateSpec:
    """Diagonal seed whose image under the preparation is the pseudo state.

    Obtained by conjugating the pseudo state with the inverse preparation;
    the result must come out diagonal, which ``expand_diagonal_state``
    checks rather than assumes.  Coefficients are read off by trace inner
    products against the orthogonal z-product-operator basis.
    """
    if not params.is_symmetric:
        raise ValueError("seed-state expansion is defined for symmetric triples")
    if not 0.0 < p < 1.0:
        raise ValueError(f"fraction p={p} outside (0, 1)")
    target = pseudo_state(bound_entangled_state(params), p).rho.matrix
    u = preparation_unitary()
    return expand_diagonal_state(u.conj().T @ target @ u, p)


def _seed_orders(params: StateParams) -> np.ndarray:
    """The seed's seven z-order coefficients, in the order of ``_Z_ORDERS``.

    They do not depend on p: the Pauli coordinates of the seed at fraction
    p are p times those of the preparation-conjugated family state.
    """
    if not params.is_symmetric:
        raise ValueError("seed-state expansion is defined for symmetric triples")
    u = preparation_unitary()
    deviation = u.conj().T @ bound_entangled_state(params).matrix @ u
    return 8.0 * _Z_WEIGHT * state_parameters(deviation)[_Z_INDEX]


# ---------------------------------------------------------------------------
# the five accessible diagonal states and temporal averaging

THREE_SPIN_AMPLITUDE = 3.77
TWO_SPIN_AMPLITUDES = (-2.0, -1.88, -2.0)   # on z1z2, z1z3, z2z3


def single_spin_ratio(a: float = A_OPT) -> float:
    """Ratio of the H/F to the C single-spin coefficient in the seed state.

    The fifth input state must carry its three z-orders in exactly this
    ratio for temporal averaging to reproduce the seed without residual;
    at the working point it is about 0.272 (quoted as 0.27 to two digits).
    """
    orders = _seed_orders(StateParams.symmetric(a))
    return float(orders[1] / orders[0])


def _check_kappa(kappa: float) -> None:
    if not 0.0 < kappa <= 1e-3:
        raise ValueError(f"kappa={kappa} outside (0, 1e-3]")


def initial_states(scale: float, a: float = A_OPT) -> list[DensityOperator]:
    """The five diagonal spin-order states used for temporal averaging.

    ``scale`` is kappa, the proton polarization, in (0, 1e-3]; each state
    is Id/8 plus a single spin-order term (three-spin order, the three
    two-spin orders, and a fixed single-spin combination).
    """
    _check_kappa(scale)
    r = single_spin_ratio(a)
    # one row of z-order coefficients per state, in the order of _Z_ORDERS
    orders = np.zeros((5, len(_Z_ORDERS)))
    orders[0, 6] = THREE_SPIN_AMPLITUDE
    orders[[1, 2, 3], [3, 4, 5]] = TWO_SPIN_AMPLITUDES
    orders[4, :3] = (-1.0, -r, -r)
    thetas = np.zeros((5, 63))
    thetas[:, _Z_INDEX] = scale * orders / (8.0 * _Z_WEIGHT)
    out = []
    for theta in thetas:
        m = parameters_to_matrix(theta)
        if np.min(np.real(np.diag(m))) < 0:
            raise ValueError(f"scale {scale} too large: state loses positivity")
        out.append(DensityOperator(m))
    return out


def matched_fraction(params: StateParams, kappa: float) -> float:
    """The pseudo-state fraction the five inputs can synthesize exactly.

    Matching each spin-order component of the seed against the one input
    state that provides it forces the weights, and their normalization
    fixes p; at the working point p is kappa/3.61 to three digits.  Above
    a of about 1.39 that normalization is not positive and no fraction
    exists: ``ValueError``, as for kappa outside (0, 1e-3].
    """
    _check_kappa(kappa)
    orders = _seed_orders(params)
    budget = (
        orders[6] / THREE_SPIN_AMPLITUDE
        + orders[3] / TWO_SPIN_AMPLITUDES[0]
        + orders[4] / TWO_SPIN_AMPLITUDES[1]
        + orders[5] / TWO_SPIN_AMPLITUDES[2]
        + orders[0] / -1.0
    )
    if budget <= 0:
        raise ValueError(
            f"the five input states cannot synthesize the seed at a={params.a1:g} "
            f"(z-order budget {budget:.3g} is not positive); pass --p to choose "
            "the pseudo-state fraction")
    return float(kappa / budget)


@dataclass(frozen=True)
class WeightSolution:
    """Temporal-averaging weights with diagnostics."""

    weights: np.ndarray
    residual: float
    achieved_p: float


def solve_temporal_weights(states: list[DensityOperator],
                           target: DiagonalStateSpec) -> WeightSolution:
    """Non-negative weights summing to one that best mix the inputs into the seed.

    Frobenius-norm objective with simplex constraints.  With sum(q) = 1 the
    Id/8 background cancels; the inputs carry disjoint spin orders, so
    their deviations d_k are orthogonal and the problem separates.  With
    t the target's deviation, n_k = |d_k|^2 and c_k = <d_k, t>/n_k the
    weights are ``core.simplex_projection(c, n)``.  Inputs with zero or
    non-orthogonal deviations are refused; an inconsistent target is
    reported through the residual, not raised.
    """
    if len(states) == 0:
        raise ValueError("no input states")
    dev = np.column_stack([np.real(np.diag(s.matrix)) for s in states]) - 1.0 / 8.0
    t = np.real(np.diag(target.state.matrix)) - 1.0 / 8.0
    gram = dev.T @ dev
    n = np.diag(gram)
    if not np.all(n > 0):
        raise ValueError("an input state has no deviation from Id/8")
    overlap = np.abs(gram - np.diag(n)) / np.sqrt(np.outer(n, n))
    if np.max(overlap) > 1e-9:
        raise ValueError(
            f"input deviations are not orthogonal (relative overlap {np.max(overlap):.1e})")

    q = simplex_projection(dev.T @ t / n, n)
    mix_dev = dev @ q
    denom = float(t @ t)
    achieved = target.scale * float(mix_dev @ t) / denom if denom > 0 else 0.0
    residual = float(np.linalg.norm(mix_dev - t))
    return WeightSolution(weights=q, residual=residual, achieved_p=achieved)


def mix_states(states: list[DensityOperator], weights: np.ndarray) -> DensityOperator:
    m = sum(w * s.matrix for w, s in zip(weights, states))
    return DensityOperator(m)


def prepare_pseudo_state(seed: DiagonalStateSpec) -> PseudoState:
    """The ideal prepared state: the seed (scale p) conjugated by the gate sequence."""
    u = preparation_unitary()
    m = u @ seed.state.matrix @ u.conj().T
    return PseudoState(DensityOperator(m), seed.scale)


# ---------------------------------------------------------------------------
# simple noise model


def depolarize(rho: DensityOperator, lam: float) -> DensityOperator:
    """(1 - lam) rho + lam Id/8."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarization weight {lam} outside [0, 1]")
    m = (1.0 - lam) * rho.matrix + lam * np.eye(8) / 8
    return DensityOperator(m, tolerance=rho.tolerance)
