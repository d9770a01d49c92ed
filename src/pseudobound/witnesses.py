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

import math
from dataclasses import dataclass

import numpy as np

from .core import (MAX_ENTRY, DensityOperator, _pauli_coordinates, check_hermitian,
                   check_operator, mix_with_identity)
from .states import PAIRS, PARAM_RANGE, StateParams, _peel_weight

# the identity shift at the working point states.A_OPT; it sits 2.43e-5 below
# eps* = a*/(1 + sqrt5) = a*^2/(1 + a*^2) = 0.1069243111, its closed form at a*
EPS_OPT = 0.1069
GRID_POINTS = 24         # coarse scan of optimize_parameters
REFINE_ITERATIONS = 24   # golden-section steps after the scan


@dataclass(frozen=True)
class WitnessParams:
    """The witness W_bar(a) - epsilon Id: the family triple it is built for, and epsilon.

    ``StateParams`` checks the triple when it is made, so only epsilon is checked here:
    it must lie within [0, ``core.MAX_ENTRY``], so that tr(W) = 4 - 8 epsilon stays finite.
    """

    state_params: StateParams
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= MAX_ENTRY:
            raise ValueError(f"epsilon must lie within [0, {MAX_ENTRY:g}], got {self.epsilon}")


# |<000|GHZ->|^2 = (1/sqrt2)^2 as the outer product of ghz(-1) rounds it
_GHZ_WEIGHT = (1.0 / math.sqrt(2.0)) * (1.0 / math.sqrt(2.0))


def witness_bar(params: StateParams) -> np.ndarray:
    """Base witness: zero expectation on the matching family member.

    Diagonal weights 1/(1+a_i^2) and a_i^2/(1+a_i^2) sit on the six
    intermediate basis states, on the populations a_i and 1/a_i of
    ``states.PAIRS``; the GHZ-minus projector plus a flip-flop coefficient
    -sum_i a_i/(1+a_i^2) fills the (|000>, |111>) corner.  The trace is 4
    for every parameter triple.
    """
    w = np.zeros((8, 8), dtype=complex)
    s = 0.0
    for (i, j), a in zip(PAIRS, params.as_tuple()):
        aa = a * a
        w[i, i] = 1.0 / (1.0 + aa)
        w[j, j] = aa / (1.0 + aa)
        s += a / (1.0 + aa)
    w[0, 0] = w[7, 7] = _GHZ_WEIGHT
    w[0, 7] = w[7, 0] = -_GHZ_WEIGHT - s
    return w


def witness(params: WitnessParams) -> np.ndarray:
    """Full witness: base operator minus epsilon times the identity."""
    w = witness_bar(params.state_params)
    w.reshape(64)[::9] -= params.epsilon   # the diagonal, as a view
    return w


def pseudo_witness(w, p: float) -> np.ndarray:
    """Rescale a witness for pseudo states: E_{1/p}(W) = (W - (1-p) tr(W)/8 * Id) / p.

    E_t is self-adjoint, so tr(E_{1/p}(W) E_p(rho)) = tr(W rho) for any witness
    normalization; p must lie in (0, 1] with a finite 1/p.
    """
    return mix_with_identity(w, _peel_weight(p, "pseudo witness"))


def expectation(w, rho: DensityOperator) -> float:
    """tr(W rho) for a Hermitian observable, returned as a real number."""
    m = check_operator(w)
    check_hermitian(m, 1e-9, "witness")
    return float(np.einsum("ij,ji->", m, rho.matrix).real)


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
    return np.concatenate(([np.trace(m).real / 8.0], _pauli_coordinates(m))).reshape(4, 4, 4)


def _state_vectors(r: np.ndarray) -> np.ndarray:
    """Unit vectors of the rows of (n, 4) Bloch 4-vectors.

    [1+z, x+iy] if z >= 0, else [-(x-iy), z-1]: the pole the vector is
    nearer keeps the norm away from zero, and a pole gives [1, 0] or
    [0, -1] exactly.
    """
    out = np.empty((len(r), 2), dtype=complex)
    for q, (_, x, y, z) in enumerate(r.tolist()):
        w = 1.0 + z if z >= 0 else z - 1.0
        norm = math.sqrt(x * x + y * y + w * w)
        up, down = (w, complex(x, y)) if z >= 0 else (complex(-x, y), w)
        out[q] = up / norm, down / norm
    return out


_OTHERS = ((1, 2), (0, 2), (0, 1))
_NEGATE_BLOCH = np.array([[1.0], [-1.0], [-1.0], [-1.0]])
MAX_RESTARTS = 10**5     # the descent peaks at about 0.68 KB per start (tracemalloc, 10^5 starts)
MAX_SWEEPS = 200         # sweeps a start may run before it stops


def min_over_product_states(w_bar, restarts: int = 200, seed: int = 0) -> ProductStateMinimum:
    """Best local minimum of <abc| W |abc> over pure product states.

    Block coordinate descent on the Bloch vectors r = (1, x, y, z) from
    ``restarts`` random starts (at most ``MAX_RESTARTS``), all at once.
    With two qubits held fixed the trilinear form ``bloch_tensor`` is
    g_0 + g . r in the third, minimal at r = -g/|g| (|0> when g = 0) with
    value g_0 - |g|, so no sweep raises the value.  A start stops when a
    sweep lowers it by less than 1e-14 max(1, |value|), or after
    ``MAX_SWEEPS`` sweeps; the lowest final value wins, the first start on
    ties.  The descent runs on W scaled by a power of two, which is exact,
    so that the field of a huge or tiny W neither overflows nor underflows;
    the stopping rule stays in W's units.  The
    starts are one seeded draw, start by start, so the result is
    deterministic and non-increasing in ``restarts``.  Only the Hermitian
    part of W enters.  The value is the best local minimum found: an upper
    bound on the product-state minimum, not a certified lower bound.

    Every array is contiguous in (qubit, component, start) order.  The
    starts' Bloch vectors come from the draw in real arithmetic, into one
    array packing the vectors, last values and start indices.  Once per
    packing the descent makes its buffers: the (4, 4, n) outer products of
    the held qubits with their (16, n) view, the field g, its squares and
    norms, and each block step's views of the packed vectors.  A block step
    is one (4, 16) x (16, n) product of a block of T with those outer
    products, and every operation of a sweep writes into the buffers: a
    sweep that stops no start allocates only its stop mask.  Stopped starts
    leave by one ``compress`` of the packing, and only then are the buffers
    made anew.  With the few hundred starts a call runs, its time follows
    the number of sweeps and the NumPy calls in each, not the number of
    starts.  Values match the one-start-at-a-time descent of the tests
    within 1e-14 relative, not bit for bit: the products sum in another
    order.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts {restarts} exceeds MAX_RESTARTS = {MAX_RESTARTS}")
    m = check_operator(w_bar)
    # the descent runs on 2^-e W, its largest real or imaginary part in [1/2, 1);
    # every step scales exactly with W, so the stopping rule is W's (``unit`` is
    # 1 in W's units) and the value is scaled back.  e >= -1021 keeps 2^-e finite.
    e = max(int(np.frexp(np.abs(m.view(float)).max())[1]), -1021)
    unit = math.ldexp(1.0, -e)
    t = bloch_tensor(m * unit)
    # blocks[q][i, (j, k)]: T with qubit q in i, the other two jointly in (j, k);
    # rows 1-3 negated, so that a block step's g[1:] is -g, the update direction
    blocks = [t.transpose(q, j, k).reshape(4, 16) * _NEGATE_BLOCH for q, (j, k) in
              enumerate(_OTHERS)]

    draws = np.random.default_rng(seed).standard_normal((restarts, 3, 2, 2))
    # the starts still descending, packed as rows 0-11 the Bloch vectors
    # (qubit, component), row 12 the last sweep's value, row 13 the start's index
    packed = np.empty((14, restarts))
    cur, value, start = packed[:12].reshape(3, 4, restarts), packed[12], packed[13]
    value[:], start[:] = np.inf, np.arange(restarts)    # value inf: sweep 1 stops none
    (re0, re1), (im0, im1) = np.ascontiguousarray(draws.transpose(2, 3, 1, 0))
    cur[:, 0] = 1.0
    p0, p1 = re0 * re0 + im0 * im0, re1 * re1 + im1 * im1
    inv = 1.0 / (p0 + p1)
    np.multiply(p0 - p1, inv, out=cur[:, 3])
    inv += inv
    np.multiply(re0 * re1 + im0 * im1, inv, out=cur[:, 1])
    np.multiply(re0 * im1 - im0 * re1, inv, out=cur[:, 2])

    stops, n = [], 0                    # (start, value, vectors) of each stop's best start
    for sweep in range(MAX_SWEEPS):
        if packed.shape[1] != n:        # a new packing: its views and buffers
            n = packed.shape[1]
            cur, value, start = packed[:12].reshape(3, 4, n), packed[12], packed[13]
            outer, g, squares = np.empty((4, 4, n)), np.empty((4, n)), np.empty((3, n))
            products, field = outer.reshape(16, n), g[1:]
            size, val, slack = np.empty(n), np.empty(n), np.empty(n)
            steps = [(q, cur[j, :, None], cur[k, None], cur[q, 1:]) for q, (j, k) in
                     enumerate(_OTHERS)]
        for q, held_j, held_k, new in steps:
            np.multiply(held_j, held_k, out=outer)
            np.matmul(blocks[q], products, out=g)
            np.sqrt(np.add.reduce(np.multiply(field, field, out=squares), out=size), out=size)
            if q == 2:
                np.subtract(g[0], size, out=val)    # before the g = 0 patch below
            if np.count_nonzero(size) < n:
                flat = size == 0.0
                g[3, flat], size[flat] = 1.0, 1.0
            np.divide(field, size, out=new)
        # done: the sweep lowered the value by less than 1e-14 max(1, |value|) in W's
        # units; value holds the drop until it takes val below
        np.multiply(np.maximum(np.abs(val, out=slack), unit, out=slack), 1e-14, out=slack)
        done = np.subtract(value, val, out=value) < slack
        if sweep == MAX_SWEEPS - 1:
            done[:] = True              # the starts that ran out of sweeps stop too
        value[:] = val
        if np.count_nonzero(done):
            i = int(np.argmin(np.where(done, val, np.inf)))
            stops.append((start[i], val[i], cur[:, :, i].copy()))
            packed = packed.compress(~done, axis=1)
            if not packed.size:
                break
    # in start order, argmin keeps the first start on ties, as over all starts at once
    stops.sort(key=lambda stop: stop[0])
    _, best_value, best_r = stops[int(np.argmin([stop[1] for stop in stops]))]
    return ProductStateMinimum(value=math.ldexp(float(best_value), e),
                               states=_state_vectors(best_r))


# ---------------------------------------------------------------------------
# robustness and parameter optimization


@dataclass(frozen=True)
class RobustnessReport:
    """Outcome of the symmetric-parameter witness optimization."""

    a: float
    epsilon_certified: float
    noise_threshold: float
    trace: tuple[tuple[float, float, float], ...]
    total_restarts: int

    def as_dict(self) -> dict:
        return {
            "a": self.a,
            "epsilon_certified": self.epsilon_certified,
            "noise_threshold": self.noise_threshold,
            "total_restarts": self.total_restarts,
            "trace": [{"a": a, "epsilon": e, "noise_threshold": q} for a, e, q in self.trace],
        }


def certified_epsilon(a: float, restarts: int = 200, seed: int = 0) -> float:
    """Best product-state minimum found for the base witness of a symmetric triple."""
    wbar = witness_bar(StateParams.symmetric(a))
    return min_over_product_states(wbar, restarts=restarts, seed=seed).value


def optimize_parameters(search_range: tuple[float, float] = (0.05, 1.0),
                        restarts: int = 250, seed: int = 0) -> RobustnessReport:
    """Pick the symmetric triple whose certified witness tolerates the most noise.

    The base witness has trace 4 and vanishes on the matching state, so the
    white-noise threshold of W_bar - eps Id is 1 - 2 eps in closed form (1,
    no tolerance, where eps collapses to zero on the separable boundary)
    and is minimized where the certified epsilon is maximized.  A grid scan
    brackets the optimum, golden-section steps polish it; each epsilon is
    an independent multi-start minimization, the k-th (from 0, in the order
    of ``trace``) seeded ``seed + 7919 k``, so the search is deterministic
    and ``total_restarts`` is ``restarts`` times the length of the trace.
    Objective ties within 1e-9 break toward the smaller parameter.
    """
    lo, hi = float(search_range[0]), float(search_range[1])
    # every point the search evaluates lies in [lo, hi], so this is the one check
    # that each is a valid state parameter
    a_lo, a_hi = PARAM_RANGE
    if not (a_lo <= lo < hi <= a_hi):
        raise ValueError(f"bad search range {(lo, hi)}: need {a_lo:g} <= lo < hi <= {a_hi:g}, "
                         f"the state parameter range")

    trace: list[tuple[float, float, float]] = []

    def objective(a: float) -> float:
        eps = certified_epsilon(a, restarts=restarts, seed=seed + 7919 * len(trace))
        q = 1.0 - 2.0 * max(eps, 0.0)
        trace.append((a, eps, q))
        return q

    grid = np.linspace(lo, hi, GRID_POINTS).tolist()   # Python floats: the trace is wire data
    values = [objective(a) for a in grid]
    best_idx = int(np.argmin(values))
    left = grid[max(best_idx - 1, 0)]
    right = grid[min(best_idx + 1, GRID_POINTS - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = right - invphi * (right - left)
    x2 = left + invphi * (right - left)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(REFINE_ITERATIONS):
        if f1 < f2 or abs(f1 - f2) <= 1e-9:   # a tie keeps the left point, x1 < x2
            right, x2, f2 = x2, x1, f1
            x1 = right - invphi * (right - left)
            f1 = objective(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + invphi * (right - left)
            f2 = objective(x2)

    best_a, best_eps, best_q = min(trace, key=lambda rec: (rec[2], rec[0]))
    return RobustnessReport(a=float(best_a), epsilon_certified=float(best_eps),
                            noise_threshold=float(best_q), trace=tuple(trace),
                            total_restarts=len(trace) * restarts)


def witness_spectrum_extremes(params: WitnessParams) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the full witness, in closed form: (g - eps) -/+ (g + s).

    W is the (|000>, |111>) block [[g - eps, -(g + s)], [-(g + s), g - eps]],
    g = 1/2 and s = sum_i a_i/(1+a_i^2), beside six diagonal entries u_i - eps
    and 1 - u_i - eps with u_i = 1/(1+a_i^2).  Those lie in [-eps, 1 - eps] and
    s > 0, so the block's eigenvalues -s - eps and 1 + s - eps are the extremes.
    No matrix is built and nothing is diagonalised; with g = ``_GHZ_WEIGHT``,
    1/2 as the witness rounds it, the values agree with ``np.linalg.eigvalsh``
    of ``witness(params)`` within 1e-15 max(1, |lambda|).
    """
    g, eps = _GHZ_WEIGHT, float(params.epsilon)
    s = float(sum(a / (1.0 + a * a) for a in params.state_params.as_tuple()))
    return (g - eps) - (g + s), (g - eps) + (g + s)
