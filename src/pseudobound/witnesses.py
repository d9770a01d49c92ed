"""Entanglement witnesses for the PPT-entangled three-qubit family.

The base operator pairs each population of the state family with a weight
chosen so its expectation vanishes exactly on the matching family member,
and carries a negative GHZ coherence.  Subtracting epsilon times the
identity then makes the expectation on the matching member strictly
negative while staying non-negative on every separable state, provided
epsilon does not exceed the minimum of the base operator over product
states.  That minimum is estimated here by block coordinate descent over
the three single-qubit states, run from many random starts at once as one
batch of array operations.  The value returned is the best local minimum
found: an upper bound on the product-state minimum, not a certified lower
bound, so a witness built from it is valid only if no start missed the
global minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DensityOperator, check_hermitian, check_operator, eigvalsh
from .states import StateParams, ghz

EPS_OPT = 0.1069   # the identity shift at the working point states.A_OPT
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
    restarts: int


def product_expectation(w, single_qubit_states) -> float:
    """<abc| W |abc> for three single-qubit vectors."""
    m = check_operator(w)
    a, b, c = (np.asarray(s, dtype=complex) for s in single_qubit_states)
    psi = np.kron(np.kron(a, b), c)
    return float(np.real(psi.conj() @ m @ psi))


# For each qubit: the axes of W reshaped to (2,)*6 that put that qubit's
# bra and ket index first and the other two qubits (in order) after them.
_QUBIT_FIRST = ((0, 3, 1, 2, 4, 5), (1, 4, 0, 2, 3, 5), (2, 5, 0, 1, 3, 4))
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _ground_states(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimal eigenpairs of a stack of 2x2 Hermitian matrices.

    Rows whose eigenvector formula degenerates (zero off-diagonal with the
    lower diagonal entry first) fall back to the matching basis vector.
    """
    a = m[:, 0, 0].real
    d = m[:, 1, 1].real
    b = m[:, 0, 1]
    lo = (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(b))
    v = np.stack([b, lo - a], axis=-1)
    norm = np.linalg.norm(v, axis=-1)
    degenerate = norm < 1e-14
    v /= np.where(degenerate, 1.0, norm)[:, None]
    if degenerate.any():
        v[degenerate] = np.where((a <= d)[degenerate, None], [1.0, 0.0], [0.0, 1.0])
    return lo, v


def min_over_product_states(w_bar, restarts: int = 200, seed: int = 0,
                            max_sweeps: int = 200) -> ProductStateMinimum:
    """Best local minimum of <abc| W |abc> over pure product states.

    Block coordinate descent from ``restarts`` random starts, run on all
    starts at once: with two qubits held fixed the optimal third is the
    ground state of an effective 2x2 Hamiltonian, so each sweep over the
    three qubits is exact per block and never increases the value.  A
    start stops when a sweep lowers its value by less than 1e-14 relative,
    or after ``max_sweeps`` sweeps; the lowest final value wins, the first
    start on ties.  Starts are drawn in one block from the seeded
    generator, start by start, so the result is deterministic and
    non-increasing in the number of restarts.

    The value is the best local minimum found, which is an upper bound on
    the true product-state minimum, not a certified lower bound.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if max_sweeps < 1:
        raise ValueError("need at least one sweep")
    m = check_operator(w_bar)
    w6 = m.reshape((2,) * 6)
    # blocks[q][(k, l), (i, j)]: the entry of W with qubit q in row i and
    # column j, the other two qubits jointly in row k and column l
    blocks = [w6.transpose(axes).reshape(4, 16).T for axes in _QUBIT_FIRST]

    draws = np.random.default_rng(seed).standard_normal((restarts, 3, 2, 2))
    cur = draws[..., 0, :] + 1j * draws[..., 1, :]      # (restarts, 3, 2)
    cur /= np.linalg.norm(cur, axis=-1, keepdims=True)

    states = np.empty_like(cur)
    values = np.empty(restarts)
    active = np.arange(restarts)        # starts still descending, rows of cur
    value = np.full(restarts, np.inf)
    for _sweep in range(max_sweeps):
        for q in range(3):
            x, y = (cur[:, o] for o in _OTHERS[q])
            u = (x[:, :, None] * y[:, None, :]).reshape(-1, 4)
            pairs = (u.conj()[:, :, None] * u[:, None, :]).reshape(-1, 16)
            val, cur[:, q] = _ground_states((pairs @ blocks[q]).reshape(-1, 2, 2))
        done = value - val < 1e-14 * np.maximum(1.0, np.abs(val))
        states[active[done]] = cur[done]
        values[active[done]] = val[done]
        active, cur, value = active[~done], cur[~done], val[~done]
        if active.size == 0:
            break
    states[active] = cur                # starts that ran out of sweeps
    values[active] = value

    best = int(np.argmin(values))
    return ProductStateMinimum(
        value=float(values[best]),
        states=states[best].copy(),
        restarts=restarts,
    )


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
