"""Entanglement witnesses for the PPT-entangled three-qubit family.

The base operator pairs each population of the state family with a weight
chosen so its expectation vanishes exactly on the matching family member,
and carries a negative GHZ coherence.  Subtracting epsilon times the
identity then makes the expectation on the matching member strictly
negative while staying non-negative on every separable state, provided
epsilon does not exceed the minimum of the base operator over product
states.  On a product state the base operator is a real trilinear form in
the three single-qubit Bloch vectors; that minimum is estimated by block
coordinate descent on those vectors, each block step a closed form, run
from many random starts at once as one batch of array operations.  The
value returned is the best local minimum found: an upper bound on the
product-state minimum, not a certified lower bound, so a witness built
from it is valid only if no start missed the global minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DensityOperator, check_hermitian, check_operator, eigvalsh, state_parameters
from .states import StateParams, ghz

# the identity shift at the working point states.A_OPT; it sits 2.43e-5 below
# eps* = a*/(1 + sqrt5) = a*^2/(1 + a*^2) = 0.1069243111, its closed form at a*
EPS_OPT = 0.1069
GRID_POINTS = 24         # coarse scan of optimize_parameters
REFINE_ITERATIONS = 24   # golden-section steps after the scan


@dataclass(frozen=True)
class WitnessParams:
    """State-family triple plus the identity shift epsilon."""

    a1: float
    a2: float
    a3: float
    epsilon: float

    def __post_init__(self):
        StateParams(self.a1, self.a2, self.a3)   # the family's own check of the triple
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and non-negative, got {self.epsilon}")

    @classmethod
    def symmetric(cls, a: float, epsilon: float) -> "WitnessParams":
        return cls(a, a, a, epsilon)

    @property
    def state_params(self) -> StateParams:
        return StateParams(self.a1, self.a2, self.a3)


def witness_bar(params: StateParams) -> np.ndarray:
    """Base witness: zero expectation on the matching family member.

    Diagonal weights 1/(1+a_i^2) and a_i^2/(1+a_i^2) sit on the six
    intermediate basis states; the GHZ-minus projector plus a flip-flop
    coefficient -sum_i a_i/(1+a_i^2) fills the (|000>, |111>) corner.
    The trace is 4 for every parameter triple.
    """
    a1, a2, a3 = params.as_tuple()
    minus = ghz(-1)
    w = np.outer(minus, minus.conj())
    # (basis index of the 1/(1+a^2) state, of the a^2/(1+a^2) state, parameter)
    for low, high, a in ((1, 6, a1), (2, 5, a2), (4, 3, a3)):
        w[low, low] += 1.0 / (1.0 + a * a)
        w[high, high] += a * a / (1.0 + a * a)
    s = sum(a / (1.0 + a * a) for a in (a1, a2, a3))
    w[0, 7] -= s
    w[7, 0] -= s
    return w


def witness(params: WitnessParams) -> np.ndarray:
    """Full witness: base operator minus epsilon times the identity."""
    return witness_bar(params.state_params) - params.epsilon * np.eye(8)


def pseudo_witness(w, p: float) -> np.ndarray:
    """Rescale a witness for pseudo states: (W - (1-p) tr(W)/8 * Id) / p.

    Subtracting the identity contribution to the expectation (which scales
    with tr(W)) and dividing by p makes the expectation on the pseudo state
    equal the original witness expectation on the embedded deviation state,
    for any witness normalization.  At p = 1 the witness is unchanged.
    """
    m = check_operator(w)
    if p <= 0.0:
        raise ValueError("pseudo witness is undefined at p = 0")
    shift = (1.0 - p) / 8 * float(np.real(np.trace(m)))
    return (m - shift * np.eye(8)) / p


def expectation(w, rho: DensityOperator) -> float:
    """tr(W rho) for a Hermitian observable, returned as a real number."""
    m = check_operator(w)
    check_hermitian(m, 1e-9, "witness")
    val = complex(np.trace(m @ rho.matrix))
    return float(val.real)


# ---------------------------------------------------------------------------
# minimum over pure product states


@dataclass(frozen=True)
class ProductStateMinimum:
    """Best product-state expectation found, with the optimizing states."""

    value: float
    states: np.ndarray          # (3, 2) single-qubit vectors


def product_expectation(w, single_qubit_states) -> float:
    """<abc| W |abc> for three single-qubit vectors."""
    m = check_operator(w)
    a, b, c = (np.asarray(s, dtype=complex) for s in single_qubit_states)
    psi = np.kron(np.kron(a, b), c)
    return float(np.real(psi.conj() @ m @ psi))


def bloch_tensor(w) -> np.ndarray:
    """T[i, j, k] = Re tr(W s_i x s_j x s_k) / 8 with s = (Id, X, Y, Z).

    <abc| W |abc> = sum T[i, j, k] a_i b_j c_k for the qubits' Bloch vectors
    (1, x, y, z); only the Hermitian part of W enters.
    """
    m = check_operator(w)
    return np.concatenate(([np.trace(m).real / 8.0], state_parameters(m))).reshape(4, 4, 4)


def _state_vectors(r: np.ndarray) -> np.ndarray:
    """Unit vectors of Bloch 4-vectors: [1+z, x+iy] if z >= 0, else [-(x-iy), z-1]."""
    x, y, z = r[..., 1], r[..., 2], r[..., 3]
    v = np.where((z >= 0)[..., None], np.stack([1.0 + z, x + 1j * y], axis=-1),
                 np.stack([-(x - 1j * y), z - 1.0], axis=-1))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


_OTHERS = ((1, 2), (0, 2), (0, 1))


def min_over_product_states(w_bar, restarts: int = 200, seed: int = 0,
                            max_sweeps: int = 200) -> ProductStateMinimum:
    """Best local minimum of <abc| W |abc> over pure product states.

    Block coordinate descent on the Bloch vectors r = (1, x, y, z) from
    ``restarts`` random starts, all at once.  With two qubits held fixed the
    trilinear form ``bloch_tensor`` is g_0 + g . r in the third, minimal at
    r = -g/|g| (|0> when g = 0) with value g_0 - |g|, so no sweep raises the
    value.  A start stops when a sweep lowers it by less than 1e-14 relative,
    or after ``max_sweeps`` sweeps; the lowest final value wins, the first
    start on ties.  The starts are one seeded draw, start by start, so the
    result is deterministic and non-increasing in ``restarts``.  Only the
    Hermitian part of W enters.  The value is the best local minimum found:
    an upper bound on the product-state minimum, not a certified lower bound.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_sweeps < 1:
        raise ValueError("need at least one sweep")
    t = bloch_tensor(w_bar)
    # blocks[q][(j, k), i]: T with qubit q in i, the other two jointly in (j, k)
    blocks = [np.moveaxis(t, q, -1).reshape(16, 4) for q in range(3)]

    draws = np.random.default_rng(seed).standard_normal((restarts, 3, 2, 2))
    psi = draws[..., 0, :] + 1j * draws[..., 1, :]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    coherence = 2.0 * psi[..., 0].conj() * psi[..., 1]
    cur = np.stack([np.ones(coherence.shape), coherence.real, coherence.imag,
                    np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2], axis=-1)

    states = np.empty_like(cur)
    values = np.empty(restarts)
    active = np.arange(restarts)        # starts still descending, rows of cur
    value = np.full(restarts, np.inf)
    for _sweep in range(max_sweeps):
        for q in range(3):
            x, y = (cur[:, o] for o in _OTHERS[q])
            g = (x[:, :, None] * y[:, None, :]).reshape(-1, 16) @ blocks[q]
            size = np.sqrt(np.einsum("ij,ij->i", g[:, 1:], g[:, 1:]))
            val = g[:, 0] - size
            flat = size == 0.0
            g[flat, 3], size[flat] = -1.0, 1.0
            cur[:, q, 1:] = -g[:, 1:] / size[:, None]
        done = value - val < 1e-14 * np.maximum(1.0, np.abs(val))
        states[active[done]] = cur[done]
        values[active[done]] = val[done]
        active, cur, value = active[~done], cur[~done], val[~done]
        if active.size == 0:
            break
    states[active] = cur                # starts that ran out of sweeps
    values[active] = value

    best = int(np.argmin(values))
    return ProductStateMinimum(value=float(values[best]), states=_state_vectors(states[best]))


# ---------------------------------------------------------------------------
# robustness and parameter optimization


def white_noise_threshold(w, rho_be: DensityOperator) -> float:
    """Smallest admixture q of the state into Id/8 still detected by W.

    Solves tr(W [(1-q) Id/8 + q rho]) = 0 in closed form.  Requires the
    witness to detect the state at q = 1.
    """
    m = check_operator(w)
    noise_term = float(np.real(np.trace(m))) / 8
    state_term = expectation(m, rho_be)
    if state_term >= 0:
        raise ValueError("witness does not detect the state at q = 1")
    if noise_term <= 0:
        return 0.0
    return float(noise_term / (noise_term - state_term))


@dataclass(frozen=True)
class RobustnessReport:
    """Outcome of the symmetric-parameter witness optimization."""

    a: float
    epsilon_certified: float
    noise_threshold: float
    trace: tuple[tuple[float, float, float], ...] = field(default_factory=tuple)
    total_restarts: int = 0

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "epsilon_certified": self.epsilon_certified,
            "noise_threshold": self.noise_threshold,
            "total_restarts": self.total_restarts,
            "trace": [
                {"a": a, "epsilon": e, "noise_threshold": q} for a, e, q in self.trace
            ],
        }


def certified_epsilon(a: float, restarts: int = 200, seed: int = 0) -> float:
    """Best product-state minimum found for the base witness of a symmetric triple."""
    return min_over_product_states(
        witness_bar(StateParams.symmetric(a)), restarts=restarts, seed=seed
    ).value


def optimize_parameters(search_range: tuple[float, float] = (0.05, 1.0),
                        restarts: int = 250, seed: int = 0) -> RobustnessReport:
    """Pick the symmetric triple whose certified witness tolerates the most noise.

    The base witness has trace 4 and vanishes on the matching state, so the
    white-noise threshold of W_bar - eps Id is 1 - 2 eps in closed form (1,
    no tolerance, where eps collapses to zero on the separable boundary)
    and is minimized where the certified epsilon is maximized.  A grid scan
    brackets the optimum, golden-section steps polish it; each epsilon is
    an independent multi-start minimization with its own derived seed, so
    the search is deterministic.  Objective ties within 1e-9 break toward
    the smaller parameter.
    """
    lo, hi = float(search_range[0]), float(search_range[1])
    if not (0 < lo < hi < np.inf):
        raise ValueError(f"bad search range {search_range}: need finite 0 < lo < hi")

    trace: list[tuple[float, float, float]] = []
    evaluations = 0

    def objective(a: float) -> float:
        nonlocal evaluations
        eps = certified_epsilon(a, restarts=restarts, seed=seed + 7919 * evaluations)
        evaluations += 1
        q = 1.0 - 2.0 * max(eps, 0.0)
        trace.append((a, eps, q))
        return q

    grid = np.linspace(lo, hi, GRID_POINTS)
    values = [objective(a) for a in grid]
    best_idx = int(np.argmin(values))
    left = grid[max(best_idx - 1, 0)]
    right = grid[min(best_idx + 1, GRID_POINTS - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(REFINE_ITERATIONS):
        if f1 < f2 or (abs(f1 - f2) <= 1e-9 and x1 < x2):
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = objective(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = objective(x2)

    best_a, best_eps, best_q = min(trace, key=lambda rec: (rec[2], rec[0]))
    return RobustnessReport(
        a=float(best_a),
        epsilon_certified=float(best_eps),
        noise_threshold=float(best_q),
        trace=tuple(trace),
        total_restarts=evaluations * restarts,
    )


def witness_spectrum_extremes(params: WitnessParams) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the full witness."""
    vals = eigvalsh(witness(params))
    return float(vals[0]), float(vals[-1])
