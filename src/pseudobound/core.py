"""Dense linear algebra for the three-qubit register.

Operators are plain 8x8 complex ndarrays in big-endian qubit ordering:
qubit 1 (the carbon spin) is the most significant bit of the basis index,
so |b1 b2 b3> lives at index 4*b1 + 2*b2 + b3.  ``check_operator`` is the
one place that enforces that shape.  Density operators get a thin
validated wrapper so that every state constructed anywhere in the package
is certified Hermitian, unit-trace and positive semidefinite (within
tolerance) on creation.  A validated state carries its spectrum, the
validation's one eigensolve, and its Pauli coordinates, worked out on first
use; a state is diagonalised and mapped to Pauli coordinates at most once.

The 63 Pauli coordinates tr(op P_k)/8 of an 8x8 operator (``state_parameters``,
inverted by ``parameters_to_matrix``) are the one map that the tomography
readout model, its error propagation and the NMR seed expansion use.  The
other jobs shared by several modules are done here once too: the
Hermiticity test ``check_hermitian``, ``simplex_projection`` (the NMR
weights and the physical projection), ``_as_matrix`` and ``json_text``, the
one JSON text format of files and standard output.

Everything here is a pure function of its inputs; wrapped matrices are
frozen read-only, so values are safe to share between threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def check_operator(matrix) -> np.ndarray:
    """Coerce to a complex matrix and enforce the operator invariants.

    The matrix must be 8x8, the register's shape, with finite entries.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (8, 8):
        raise ValueError(f"operator must be 8x8, got shape {m.shape}")
    if not np.isfinite(m).all():   # complex: both parts
        raise ValueError("operator entries must be finite")
    return m


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, DensityOperator):
        return op.matrix
    return check_operator(op)


def check_hermitian(m: np.ndarray, tolerance: float, what: str) -> None:
    """Raise ValueError if max|m - m^dag| exceeds ``tolerance`` (absolute)."""
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > tolerance:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e} > tol {tolerance:.1e})")


def simplex_projection(c, n=None) -> np.ndarray:
    """Minimizer of sum_k n_k (q_k - c_k)^2 over the probability simplex.

    With positive weights ``n`` (all ones by default) the minimizer is
    q_k = max(0, c_k - mu/n_k), mu fixed by sum(q) = 1 on the longest
    prefix, in descending n_k c_k, whose weights stay positive.
    """
    c = np.asarray(c, dtype=float)
    n = np.ones_like(c) if n is None else np.asarray(n, dtype=float)
    order = np.argsort(-(n * c))
    # mu per prefix; the one-entry prefix's weight is positive up to rounding
    mu = (np.cumsum(c[order]) - 1.0) / np.cumsum(1.0 / n[order])
    positive = np.append(c[order] - mu / n[order] > 0, False)
    support = max(int(np.argmin(positive)), 1)
    return np.maximum(c - mu[support - 1] / n, 0.0)


def tensor(*ops) -> np.ndarray:
    """Kronecker product of 2x2 arrays, leftmost factor most significant."""
    return reduce(np.kron, ops)


def eigvalsh(h) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, ascending.

    Raises if the input deviates from Hermiticity by more than 1e-9
    (absolute).
    """
    m = _as_matrix(h)
    check_hermitian(m, 1e-9, "matrix")
    return np.linalg.eigvalsh(m)


def matrix_sqrt_psd(h, tolerance: float = 1e-10) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues in [-tolerance, 0) are clipped to zero; anything more
    negative is an error.
    """
    m = _as_matrix(h)
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    if vals[0] < -tolerance:
        raise ValueError(f"matrix not PSD: eigenvalue {vals[0]:.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class DensityOperator:
    """Validated density matrix.

    ``tolerance`` bounds the admissible Hermiticity defect, trace defect
    and most negative eigenvalue.  Exact synthetic states keep the tight
    default; noisy reconstructed states should go through
    :meth:`DensityOperator.loose`, which widens the tolerance to cover a
    negative eigenvalue.

    The validation's eigensolve is kept as ``spectrum``, and the Pauli
    coordinates are worked out on first use (``parameters``); both are
    read-only arrays, computed at most once per state.
    """

    matrix: np.ndarray
    tolerance: float = 1e-10
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, widen: bool = False):
        # the one validation pass; loose() calls it with widen=True
        tol = self.tolerance
        m = check_operator(self.matrix)
        check_hermitian(m, tol, "state")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > (tol if widen else max(tol, 1e-12)):
            raise ValueError(f"trace {tr:.8g} != 1 beyond tol {tol:.1e}")
        spectrum = np.linalg.eigvalsh((m + m.conj().T) / 2)
        spectrum.setflags(write=False)
        lowest = float(spectrum[0])
        if widen:
            object.__setattr__(self, "tolerance", max(tol, -lowest * (1 + 1e-9) + 1e-15))
        elif lowest < -tol:
            raise ValueError(f"negative eigenvalue {lowest:.3e} beyond tol {tol:.1e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def loose(cls, matrix) -> "DensityOperator":
        """Wrap a matrix that may violate positivity, widening the tolerance.

        Unprojected estimates legitimately have small negative eigenvalues,
        so only positivity is relaxed: a Hermiticity or trace defect beyond
        1e-6 means the matrix is no state and raises ValueError.  A positivity
        defect is not an error and raises no warning: it stays visible as
        ``eigenvalues()[0] < 0`` and as a ``tolerance`` widened past 1e-6.
        """
        # skip __init__ so that the matrix is validated once, by the widening pass
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "tolerance", 1e-6)
        rho.__post_init__(widen=True)
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending, read-only: the one validation eigensolve.

        It is that of the Hermitian part (m + m^dag)/2, which equals
        ``np.linalg.eigvalsh(matrix)`` bit for bit when the matrix is exactly
        Hermitian; a matrix Hermitian only within tolerance gets the spectrum
        of its Hermitian part.
        """
        return self.spectrum

    @cached_property
    def parameters(self) -> np.ndarray:
        """The 63 Pauli coordinates ``state_parameters(matrix)``, read-only."""
        theta = state_parameters(self.matrix)
        theta.setflags(write=False)
        return theta


def maximally_mixed() -> DensityOperator:
    return DensityOperator(np.eye(8, dtype=complex) / 8)


def partial_transpose(rho, transposed) -> np.ndarray:
    """Transpose the given qubit subsystems (1-based indices) of an operator."""
    m = _as_matrix(rho)
    subsystems = tuple(sorted(set(int(q) for q in transposed)))
    if not subsystems:
        raise ValueError("no subsystem to transpose")
    if any(q < 1 or q > 3 for q in subsystems):
        raise ValueError(f"subsystem indices {subsystems} out of range 1..3")
    arr = m.reshape((2,) * 6)
    for q in subsystems:
        arr = np.swapaxes(arr, q - 1, q + 2)
    return arr.reshape(m.shape)


@dataclass(frozen=True)
class Bipartition:
    """A bipartite cut of the register, named by the transposed side."""

    transposed: tuple[int, ...]

    def __post_init__(self):
        subs = tuple(sorted(set(int(q) for q in self.transposed)))
        if not subs or len(subs) >= 3:
            raise ValueError("transposed side must be a non-empty proper subset")
        if any(q < 1 or q > 3 for q in subs):
            raise ValueError(f"qubit indices {subs} out of range")
        object.__setattr__(self, "transposed", subs)

    @property
    def label(self) -> str:
        rest = [q for q in (1, 2, 3) if q not in self.transposed]
        return "".join(map(str, self.transposed)) + "|" + "".join(map(str, rest))


THREE_QUBIT_CUTS = (Bipartition((1,)), Bipartition((2,)), Bipartition((3,)))


@dataclass(frozen=True)
class CutResult:
    cut: Bipartition
    min_eigenvalue: float
    ppt: bool


@dataclass(frozen=True)
class PPTReport:
    cuts: tuple[CutResult, ...]
    tolerance: float

    @property
    def all_ppt(self) -> bool:
        return all(c.ppt for c in self.cuts)

    def as_dict(self) -> dict:
        return {
            c.cut.label: {"min_eigenvalue": c.min_eigenvalue, "ppt": c.ppt}
            for c in self.cuts
        }


def is_ppt(rho: DensityOperator, tolerance: float | None = None) -> PPTReport:
    """PPT verdict for every bipartite cut of a three-qubit state.

    ``tolerance`` must be finite and non-negative; it defaults to the
    state's own.
    """
    tol = rho.tolerance if tolerance is None else tolerance
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"PPT tolerance {tol} must be finite and non-negative")
    # one eigensolve of the (3, 8, 8) stack; row k belongs to THREE_QUBIT_CUTS[k]
    stack = np.stack([partial_transpose(rho, cut.transposed) for cut in THREE_QUBIT_CUTS])
    lows = np.linalg.eigvalsh(stack)[:, 0].tolist()
    return PPTReport(tuple(CutResult(cut, lo, lo >= -tol)
                           for cut, lo in zip(THREE_QUBIT_CUTS, lows)), tol)


def numeric_rank(h) -> int:
    """Count of eigenvalues above 1e-7 x the largest."""
    vals = eigvalsh(h)
    return int(np.sum(vals > 1e-7 * max(float(vals[-1]), 0.0)))


def uhlmann_fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Square-root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    The clip level for small negative eigenvalues follows the declared
    tolerances of the arguments, so loosely wrapped reconstructed states
    compare cleanly against exact ones.
    """
    slack = max(1e-8, rho.tolerance, sigma.tolerance)
    root = matrix_sqrt_psd(rho.matrix, tolerance=slack)
    inner = root @ sigma.matrix @ root
    inner = (inner + inner.conj().T) / 2
    f = float(np.real(np.trace(matrix_sqrt_psd(inner, tolerance=slack))))
    # clipping the negative part of a loosely-validated input can push the
    # trace slightly past 1; the admissible overshoot scales with the slack
    if f > 1 + max(1e-7, 2.0 * np.sqrt(slack)):
        raise ValueError(f"fidelity {f} exceeds 1 beyond numerical slack")
    return min(max(f, 0.0), 1.0)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma."""
    vals = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.sum(np.abs(vals)) / 2)


def pauli_labels() -> list[str]:
    """The 63 non-identity three-qubit Pauli labels, IIX to ZZZ."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]


def pauli_product(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by a string like 'XIZ'."""
    return tensor(*(PAULIS[c] for c in label))


@lru_cache(maxsize=None)
def parameter_basis() -> np.ndarray:
    """The 63 non-identity Pauli products flattened into a (63, 64) array.

    A state is Id/8 + sum_k theta_k * P_k with theta_k = tr(rho P_k)/8.
    """
    basis = np.stack([pauli_product(lbl).ravel() for lbl in pauli_labels()])
    basis.setflags(write=False)
    return basis


def state_parameters(op) -> np.ndarray:
    """Pauli coordinates tr(op P_k)/8 of any 8x8 operator, real part.

    The identity part tr(op)/8 * Id is subtracted first: it is orthogonal
    to every P_k, and removing it keeps the ~1/8 background of a pseudo
    state from swamping the sums of its tiny deviation.
    """
    m = _as_matrix(op)
    # tr(dev P) = sum_ij dev_ij P_ji: the flattened rows of P meet dev transposed
    dev = m.T.copy()
    dev.flat[::9] -= np.trace(m) / 8.0
    return np.real(parameter_basis() @ dev.ravel()) / 8.0


def parameters_to_matrix(theta) -> np.ndarray:
    """The unit-trace operator Id/8 + sum_k theta_k * P_k."""
    return np.eye(8, dtype=complex) / 8.0 + (theta @ parameter_basis()).reshape(8, 8)


# ---------------------------------------------------------------------------
# random objects for sampling-based checks


def random_density_operator(rng: np.random.Generator) -> DensityOperator:
    """Haar-ish random density matrix from a complex Gaussian factor."""
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar random unitary via QR with phase fixing."""
    z = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


# ---------------------------------------------------------------------------
# JSON wire format for matrices: {"dim": 8, "re": [[...]], "im": [[...]]}


def read_json(path):
    """Parse a JSON file; nesting too deep for the parser is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def json_text(payload) -> str:
    """``payload`` as indented JSON text ending in a newline."""
    return json.dumps(payload, indent=1) + "\n"


def write_json(payload, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(payload))


def matrix_to_json(matrix) -> dict:
    m = check_operator(matrix)
    return {
        "dim": int(m.shape[0]),
        "re": np.real(m).tolist(),
        "im": np.imag(m).tolist(),
    }


def matrix_from_json(blob: dict) -> np.ndarray:
    if not isinstance(blob, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        dim = int(blob["dim"])
        re = np.asarray(blob["re"], dtype=float)
        im = np.asarray(blob["im"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"matrix JSON lacks key {exc}") from None
    except (TypeError, OverflowError):
        raise ValueError("matrix JSON entries must be numbers") from None
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError("matrix JSON shape does not match declared dim")
    return check_operator(re + 1j * im)
