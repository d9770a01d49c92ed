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
in ``core``.  The seed and the five inputs are held as z-orders and a scale,
and the weights are solved on those.  The seed's are the closed form
``_seed_orders``, which also gives the matched fraction and the fifth
input's ratio; ``_z_order_matrix`` builds a matrix where one is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DensityOperator, mix_with_identity, parameters_to_matrix, pauli_labels,
                   simplex_projection)
from .states import A_OPT, StateParams

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
    """The diagonal state Id/8 + (scale/8) * sum(orders[k] * operator k).

    ``orders`` holds the seven z-orders in the fixed term order z1, z2, z3,
    z1z2, z1z3, z2z3, z1z2z3; the matrix ``state`` is built on first use.
    """

    orders: tuple[float, ...]
    scale: float

    single_spin = property(lambda self: self.orders[0:3])
    two_spin = property(lambda self: self.orders[3:6])
    three_spin = property(lambda self: self.orders[6])

    @cached_property
    def state(self) -> DensityOperator:
        return DensityOperator(_z_order_matrix(self.orders, self.scale))


def _z_order_matrix(orders, scale: float) -> np.ndarray:
    """Id/8 + (scale/8) * sum(orders[k] * operator k), in the order of ``_Z_ORDERS``."""
    theta = np.zeros(63)
    theta[_Z_INDEX] = scale * np.asarray(orders) / (8.0 * _Z_WEIGHT)
    return parameters_to_matrix(theta)


def target_diagonal(a: float, p: float) -> DiagonalStateSpec:
    """Diagonal seed whose image under the preparation is the pseudo state at ``a``.

    Built at scale p, within (0, 1], from the closed-form z-orders
    ``_seed_orders``, so its coefficients do not depend on p.  It equals the
    pseudo state conjugated by the inverse preparation, the reference it is
    tested against.
    """
    orders = _seed_orders(a)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"fraction p={p} outside (0, 1]")
    return DiagonalStateSpec(tuple(orders.tolist()), p)


def _seed_orders(a: float) -> np.ndarray:
    """The seed's z-order coefficients (the same at every p), in ``_Z_ORDERS`` order.

    The z-orders of the family state conjugated by the inverse preparation,
    in closed form: (d, b, b, 2d, 2d, 2b, e), written in u = 1/(1+a^2) and
    s = a/(1+a^2) as ``witness_bar`` is, so every positive float gives
    finite values.  An ``a`` outside ``PARAM_RANGE`` is refused as the
    family's triple is, through ``StateParams``.
    """
    StateParams.symmetric(a)
    u, s = 1.0 / (1.0 + a * a), a / (1.0 + a * a)
    m = 3.0 + 2.0 * s
    d, b = 2.0 * (1.0 - 2.0 * u - 2.0 * s) / m, -2.0 * (1.0 - 2.0 * s) / m
    return np.array([d, b, b, 2.0 * d, 2.0 * d, 2.0 * b, 48.0 * u / m - 8.0])


# ---------------------------------------------------------------------------
# the five accessible diagonal states and temporal averaging

THREE_SPIN_AMPLITUDE = 3.77
TWO_SPIN_AMPLITUDES = (-2.0, -1.88, -2.0)   # on z1z2, z1z3, z2z3

# The largest a at which the five inputs synthesize the seed: the seed's
# three-spin order 48u/m - 8, and with it that input's weight, is negative
# exactly where 3a^2 + 2a - 3 > 0.  The other four weights are non-negative
# up to a = 1 + sqrt(2).
A_MAX = (np.sqrt(10.0) - 1.0) / 3.0


def single_spin_ratio(a: float = A_OPT) -> float:
    """Ratio of the H/F to the C single-spin coefficient in the seed state.

    The fifth input state must carry its three z-orders in exactly this
    ratio for temporal averaging to reproduce the seed without residual;
    at the working point it is about 0.272 (quoted as 0.27 to two digits).
    Where the C order is zero (a = 1 + sqrt(2) to rounding): ValueError.
    """
    d, b = _seed_orders(a)[:2]
    if d == 0.0:
        raise ValueError(f"the single-spin ratio diverges at a={a!r} (zero C order)")
    return float(b / d)


# kappa, the proton polarization, that the inputs and ``prepare --kappa``
# accept: the range the CLI documents and keeps as its contract
KAPPA_RANGE = (1e-7, 1e-3)


def _check_kappa(kappa: float) -> None:
    lo, hi = KAPPA_RANGE
    if not lo <= kappa <= hi:
        raise ValueError(f"kappa={kappa} outside [{lo:g}, {hi:g}]")


def initial_states(kappa: float, a: float = A_OPT) -> list[DiagonalStateSpec]:
    """The five diagonal spin-order states used for temporal averaging.

    Each has scale ``kappa``, the proton polarization, within ``KAPPA_RANGE``,
    and a single spin-order term (three-spin order, the three two-spin
    orders, and a fixed single-spin combination).  Only the last can lose
    positivity, where r diverges near a = 1 + sqrt(2): ValueError.
    """
    _check_kappa(kappa)
    r = single_spin_ratio(a)
    # its smallest population is 1/8 - (kappa/16)(1 + 2|r|): the three signs combine freely
    if kappa * (1.0 + 2.0 * abs(r)) > 2.0:
        raise ValueError(f"single-spin input loses positivity at a={a:g}, r={r:.3g}")
    # one row of z-order coefficients per state, in the order of _Z_ORDERS
    orders = np.zeros((5, len(_Z_ORDERS)))
    orders[0, 6] = THREE_SPIN_AMPLITUDE
    orders[[1, 2, 3], [3, 4, 5]] = TWO_SPIN_AMPLITUDES
    orders[4, :3] = (-1.0, -r, -r)
    return [DiagonalStateSpec(tuple(row.tolist()), kappa) for row in orders]


def matched_fraction(a: float, kappa: float) -> float:
    """The pseudo-state fraction the five inputs can synthesize exactly.

    Matching each spin-order component of the seed against the one input
    state that provides it forces the weights, (p/kappa) * order / amplitude,
    and their normalization fixes p; at the working point p is kappa/3.61
    to three digits.  All five weights are non-negative exactly for
    a <= ``A_MAX``; above it the three-spin order is negative and no
    fraction is reached exactly: ``ValueError``, as for kappa outside
    ``KAPPA_RANGE``.
    """
    orders = _seed_orders(a)   # refuses an a outside PARAM_RANGE first
    _check_kappa(kappa)
    if a > A_MAX:
        raise ValueError(
            f"the five input states cannot synthesize the seed at a={a:g}: "
            f"its three-spin order is negative above a = (sqrt(10) - 1)/3 = {A_MAX:.12g}; "
            "pass --p to choose the pseudo-state fraction")
    # each input's weight is p/kappa times its order over its amplitude
    budget = (orders[6] / THREE_SPIN_AMPLITUDE + np.sum(orders[3:6] / TWO_SPIN_AMPLITUDES)
              - orders[0])
    return float(kappa / budget)


@dataclass(frozen=True)
class WeightSolution:
    """Temporal-averaging weights with diagnostics."""

    weights: np.ndarray
    residual: float
    achieved_p: float


def solve_temporal_weights(inputs: list[DiagonalStateSpec],
                           target: DiagonalStateSpec) -> WeightSolution:
    """Non-negative weights summing to one that best mix the inputs into the seed.

    Frobenius-norm objective on the diagonal with simplex constraints, read
    off z-orders alone.  With sum(q) = 1 the Id/8 background cancels.  The
    operators' diagonals are orthogonal sign vectors, so a deviation has
    norm |x|/sqrt(8) in its row x = scale * orders / 2^k, and inputs sharing
    no z-order separate the problem: with t the target's row, n_k = |x_k|^2
    and c_k = <x_k, t>/n_k the weights are ``core.simplex_projection(c, n)``.
    An all-zero input row, or two inputs sharing a z-order, are refused; an
    inconsistent target is not, and shows in the residual |mix - t|/sqrt(8).
    ``achieved_p`` fits the target's orders to the mixture, free of its scale.
    """
    if len(inputs) == 0:
        raise ValueError("no input states")
    x = np.array([s.scale * np.array(s.orders) for s in inputs]) / _Z_WEIGHT
    if not np.all(np.any(x, axis=1)):
        raise ValueError("an input state has no deviation from Id/8")
    if np.any(np.count_nonzero(x, axis=0) > 1):
        raise ValueError("input deviations are not orthogonal: two share a z-order")
    o = np.array(target.orders) / _Z_WEIGHT
    n = np.sum(x * x, axis=1)
    q = simplex_projection(target.scale * (x @ o) / n, n)
    mix = q @ x
    achieved = float(mix @ o) / float(o @ o) if np.any(o) else 0.0
    residual = float(np.linalg.norm(mix - target.scale * o)) / math.sqrt(8.0)
    return WeightSolution(weights=q, residual=residual, achieved_p=achieved)


def mix_states(inputs: list[DiagonalStateSpec], weights: np.ndarray) -> DensityOperator:
    return DensityOperator(sum(w * s.state.matrix for w, s in zip(weights, inputs)))


def prepare_pseudo_state(seed: DiagonalStateSpec) -> DensityOperator:
    """The ideal prepared state: the seed (scale p) conjugated by the gate sequence."""
    u = preparation_unitary()
    return DensityOperator(u @ seed.state.matrix @ u.conj().T)


# ---------------------------------------------------------------------------
# simple noise model


def depolarize(rho: DensityOperator, lam: float) -> DensityOperator:
    """(1 - lam) rho + lam Id/8: the identity mixing E_{1-lam}."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarization weight {lam} outside [0, 1]")
    return DensityOperator(mix_with_identity(rho, 1.0 - lam))
