"""Entanglement witnesses for the PPT-entangled three-qubit family.

The base operator pairs each population of the state family with a weight
chosen so its expectation vanishes exactly on the matching family member,
and carries a negative GHZ coherence.  Subtracting epsilon times the
identity then makes the expectation on the matching member strictly
negative while staying non-negative on every separable state, provided
epsilon does not exceed the minimum of the base operator over product
states.  That minimum is certified numerically here by multi-start block
coordinate descent over the three Bloch spheres.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DensityOperator, check_operator, eigvalsh
from .states import StateParams, bound_entangled_state, ghz


@dataclass(frozen=True)
class WitnessParams:
    """State-family triple plus the identity shift epsilon."""

    a1: float
    a2: float
    a3: float
    epsilon: float

    def __post_init__(self):
        if min(self.a1, self.a2, self.a3) <= 0:
            raise ValueError("witness parameters must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

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


def pseudo_witness(w, p: float, dim: int | None = None) -> np.ndarray:
    """Rescale a witness for pseudo states: (W - (1-p) tr(W)/d * Id) / p.

    Subtracting the identity contribution to the expectation (which scales
    with tr(W)) and dividing by p makes the expectation on the pseudo state
    equal the original witness expectation on the embedded deviation state,
    for any witness normalization.  At p = 1 the witness is unchanged.
    """
    m = check_operator(w)
    d = m.shape[0] if dim is None else int(dim)
    if p <= 0.0:
        raise ValueError("pseudo witness is undefined at p = 0")
    shift = (1.0 - p) / d * float(np.real(np.trace(m)))
    return (m - shift * np.eye(d)) / p


def expectation(w, rho: DensityOperator) -> float:
    """tr(W rho) for a Hermitian observable, returned as a real number."""
    m = check_operator(w)
    if m.shape[0] != rho.dim:
        raise ValueError("dimension mismatch")
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > 1e-9:
        raise ValueError(f"witness is not Hermitian (defect {defect:.3e})")
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


def _ground_state_2x2(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Closed-form minimal eigenpair of a 2x2 Hermitian matrix."""
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    mid = (a + d) / 2.0
    rad = np.hypot((a - d) / 2.0, abs(b))
    lo = mid - rad
    v = np.array([b, lo - a], dtype=complex)
    norm = np.linalg.norm(v)
    if norm < 1e-14:
        v = np.array([1.0, 0.0], dtype=complex) if a <= d else np.array([0.0, 1.0], dtype=complex)
    else:
        v = v / norm
    return float(lo), v


def _effective_2x2(w6: np.ndarray, states: list[np.ndarray], qubit: int) -> np.ndarray:
    a, b, c = states
    if qubit == 0:
        return np.einsum("ibcjef,b,c,e,f->ij", w6, b.conj(), c.conj(), b, c)
    if qubit == 1:
        return np.einsum("aicdjf,a,c,d,f->ij", w6, a.conj(), c.conj(), a, c)
    return np.einsum("abidej,a,b,d,e->ij", w6, a.conj(), b.conj(), a, b)


def product_expectation(w, single_qubit_states) -> float:
    """<abc| W |abc> for three single-qubit vectors."""
    m = check_operator(w)
    a, b, c = (np.asarray(s, dtype=complex) for s in single_qubit_states)
    psi = np.kron(np.kron(a, b), c)
    return float(np.real(psi.conj() @ m @ psi))


def min_over_product_states(w_bar, restarts: int = 200, seed: int = 0,
                            max_sweeps: int = 200) -> ProductStateMinimum:
    """Minimize <abc| W |abc> over pure product states.

    Multi-start block coordinate descent: with two qubits held fixed the
    optimal third is the ground state of an effective 2x2 Hamiltonian, so
    each sweep is exact per block and monotonically non-increasing.  Starts
    are drawn sequentially from the seeded generator, which makes the
    result deterministic and non-increasing in the number of restarts.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    m = check_operator(w_bar)
    if m.shape[0] != 8:
        raise ValueError("product-state minimization expects an 8x8 operator")
    w6 = np.asarray(m).reshape(2, 2, 2, 2, 2, 2)
    rng = np.random.default_rng(seed)

    best_value = np.inf
    best_states: list[np.ndarray] | None = None
    for _ in range(restarts):
        states = []
        for _q in range(3):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            states.append(v / np.linalg.norm(v))
        value = np.inf
        for _sweep in range(max_sweeps):
            for q in range(3):
                eff = _effective_2x2(w6, states, q)
                val, vec = _ground_state_2x2(eff)
                states[q] = vec
            if value - val < 1e-14 * max(1.0, abs(val)):
                value = val
                break
            value = val
        if value < best_value:
            best_value = value
            best_states = [s.copy() for s in states]

    assert best_states is not None
    return ProductStateMinimum(
        value=float(best_value),
        states=np.array(best_states),
        restarts=restarts,
    )


# ---------------------------------------------------------------------------
# robustness and parameter optimization


def white_noise_threshold(w, rho_be: DensityOperator) -> float:
    """Smallest admixture q of the state into Id/d still detected by W.

    Solves tr(W [(1-q) Id/d + q rho]) = 0 in closed form.  Requires the
    witness to detect the state at q = 1.
    """
    m = check_operator(w)
    d = m.shape[0]
    noise_term = float(np.real(np.trace(m))) / d
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
    """Product-state minimum of the base witness for a symmetric triple."""
    return min_over_product_states(
        witness_bar(StateParams.symmetric(a)), restarts=restarts, seed=seed
    ).value


def optimize_parameters(search_range: tuple[float, float] = (0.05, 1.0),
                        restarts: int = 250, seed: int = 0,
                        grid_points: int = 24,
                        refine_iterations: int = 24) -> RobustnessReport:
    """Pick the symmetric triple whose certified witness tolerates the most noise.

    For a symmetric triple the base-witness expectation vanishes on the
    matching state, so the noise threshold is minimized exactly where the
    certified epsilon is maximized.  A coarse grid scan brackets the
    optimum, golden-section refinement polishes it; every epsilon
    evaluation is an independent multi-start minimization with its own
    derived seed, so the whole search is deterministic.  Objective ties
    within 1e-9 break toward the smaller parameter.
    """
    lo, hi = float(search_range[0]), float(search_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"bad search range {search_range}")
    if grid_points < 3:
        raise ValueError("grid needs at least 3 points")

    trace: list[tuple[float, float, float]] = []
    evaluations = 0

    def objective(a: float) -> float:
        nonlocal evaluations
        eps = certified_epsilon(a, restarts=restarts, seed=seed + 7919 * evaluations)
        evaluations += 1
        params = StateParams.symmetric(a)
        w = witness_bar(params) - eps * np.eye(8)
        try:
            q = white_noise_threshold(w, bound_entangled_state(params))
        except ValueError:
            # certified epsilon collapses to zero (separable boundary of the
            # family): the witness tolerates no noise at all
            q = 1.0
        trace.append((a, eps, q))
        return q

    grid = np.linspace(lo, hi, grid_points)
    values = [objective(a) for a in grid]
    best_idx = int(np.argmin(values))
    left = grid[max(best_idx - 1, 0)]
    right = grid[min(best_idx + 1, grid_points - 1)]

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(refine_iterations):
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
