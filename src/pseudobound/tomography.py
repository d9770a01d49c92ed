"""Seven-setting NMR readout simulation and least-squares state reconstruction.

Only the carbon spin is detected.  Each experiment applies one of seven
spin-selective pi/2 rotation patterns, optionally swaps hydrogen or
fluorine onto carbon, and records the x and y quadratures of the four
J-resolved carbon lines, i.e. the observables sigma_{x,y} on qubit 1
tensored with a basis projector on qubits 2 and 3.  Running all seven
settings with all three detected spins gives 168 linear equations for the
63 real parameters of the traceless deviation.  One cached readout map
per experiment (8 amplitudes x 63 parameters) serves both simulation and
inversion; its rows are the Pauli coordinates (``core.state_parameters``)
of the Heisenberg-picture line observables.  One thin SVD of the weighted
rows gives the estimate, the rank and the parameter covariance that is
propagated to derived quantities such as witness expectations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import (
    DensityOperator,
    PAULIS,
    check_operator,
    parameter_basis,
    parameters_to_matrix,
    read_json,
    state_parameters,
    tensor,
)

SETTINGS = ("Y1E2E3", "E1E2Y3", "E1E2X3", "Y1Y2E3", "E1X2X3", "Y1Y2Y3", "X1X2X3")
DETECT_SPINS = ("C", "H", "F")
LINE_LABELS = ("00", "01", "10", "11")
QUADRATURES = ("x", "y")

_DETECT_QUBIT = {"C": 1, "H": 2, "F": 3}

# the 27 setting ids: one of E, X, Y per spin
_SETTING_IDS = frozenset(f"{a}1{b}2{c}3" for a, b, c in product("EXY", repeat=3))


def parse_setting(setting: str) -> tuple[str, str, str]:
    """Split a setting id like 'Y1E2E3' into per-spin operations."""
    if not isinstance(setting, str) or setting not in _SETTING_IDS:
        raise ValueError(f"bad setting id {setting!r}")
    return setting[0], setting[2], setting[4]


@lru_cache(maxsize=None)
def _single_rotation(op: str) -> np.ndarray:
    # active convention exp(-i * (pi/2) * I_axis); E is the identity
    if op == "E":
        return np.eye(2, dtype=complex)
    sigma = PAULIS["X"] if op == "X" else PAULIS["Y"]
    return (np.eye(2) - 1j * sigma) / np.sqrt(2.0)


def swap_unitary(q1: int, q2: int) -> np.ndarray:
    """Permutation matrix exchanging two qubits of the register."""
    if q1 == q2 or not {q1, q2} <= {1, 2, 3}:
        raise ValueError(f"bad swap pair ({q1}, {q2})")
    u = np.zeros((8, 8), dtype=complex)
    for k in range(8):
        bits = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
        bits[q1 - 1], bits[q2 - 1] = bits[q2 - 1], bits[q1 - 1]
        j = 4 * bits[0] + 2 * bits[1] + bits[2]
        u[j, k] = 1.0
    return u


def readout_unitary(setting: str, detect: str = "C") -> np.ndarray:
    """Total readout transformation for one experiment.

    The per-spin rotations act on the prepared state first; detecting H or
    F then swaps that spin onto carbon just before acquisition.
    """
    ops = parse_setting(setting)
    rot = tensor(*(_single_rotation(op) for op in ops))
    if detect not in _DETECT_QUBIT:
        raise ValueError(f"bad detected spin {detect!r}")
    q = _DETECT_QUBIT[detect]
    if q == 1:
        return rot
    return swap_unitary(1, q) @ rot


# position of each (line, quadrature) amplitude among an experiment's 8
_ROW = {(line, quad): 2 * j + k
        for j, line in enumerate(LINE_LABELS) for k, quad in enumerate(QUADRATURES)}


def measure(rho: DensityOperator, setting: str, detect: str = "C") -> np.ndarray:
    """Quadrature amplitudes of the four carbon lines for one experiment.

    Returns 8 reals ordered (line 00 x, line 00 y, line 01 x, ...).
    """
    return _readout_block(setting, detect) @ state_parameters(rho)


def default_experiments() -> list[tuple[str, str]]:
    """All 21 (setting, detected spin) combinations."""
    return [(s, d) for s in SETTINGS for d in DETECT_SPINS]


# ---------------------------------------------------------------------------
# linear model: the 63 Pauli coordinates of the deviation


@lru_cache(maxsize=None)
def _readout_block(setting: str, detect: str) -> np.ndarray:
    """8 x 63 map from the deviation parameters to one experiment's amplitudes.

    Heisenberg picture: row (line, quad) holds tr(R^dag O R P_k) for the
    readout unitary R, the line observable O and each Pauli product P_k.
    The identity part of a state drops out because every O is traceless.
    """
    r = readout_unitary(setting, detect)
    block = np.empty((len(_ROW), len(parameter_basis())))
    for j, line in enumerate(LINE_LABELS):
        proj = np.zeros((4, 4))
        proj[j, j] = 1.0
        for quad in QUADRATURES:
            obs = np.kron(PAULIS["X"] if quad == "x" else PAULIS["Y"], proj)
            block[_ROW[line, quad]] = 8.0 * state_parameters(r.conj().T @ obs @ r)
    block.setflags(write=False)
    return block


def _rank(singular_values: np.ndarray, shape: tuple[int, int]) -> int:
    """Singular values above numpy's default cutoff, max(shape) * eps * s.max()."""
    s = singular_values
    return int(np.sum(s > s.max() * max(shape) * np.finfo(float).eps))


@dataclass(frozen=True)
class DesignMatrix:
    """Linear map from the 63 deviation parameters to predicted amplitudes."""

    matrix: np.ndarray
    rows: tuple[tuple[str, str, str, str], ...]   # (setting, detect, line, quad)
    rank: int


def design_matrix(experiments: list[tuple[str, str]] | None = None) -> DesignMatrix:
    exps = default_experiments() if experiments is None else list(experiments)
    if not exps:
        raise ValueError("no experiments")
    a = np.vstack([_readout_block(setting, detect) for setting, detect in exps])
    rows = tuple((setting, detect, line, quad)
                 for setting, detect in exps for line, quad in _ROW)
    return DesignMatrix(matrix=a, rows=rows,
                        rank=_rank(np.linalg.svd(a, compute_uv=False), a.shape))


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class TomographyRecord:
    setting: str
    detect: str
    line: str
    quad: str
    value: float
    sigma: float

    def __post_init__(self):
        parse_setting(self.setting)
        if self.detect not in DETECT_SPINS:
            raise ValueError(f"bad detected spin {self.detect!r}")
        if self.line not in LINE_LABELS or self.quad not in QUADRATURES:
            raise ValueError(f"unknown line/quadrature ({self.line!r}, {self.quad!r})")
        if not math.isfinite(self.value):
            raise ValueError(f"record value {self.value} is not finite")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"record sigma {self.sigma} must be finite and non-negative")


@dataclass(frozen=True)
class TomographyDataset:
    records: tuple[TomographyRecord, ...]

    def __post_init__(self):
        if len(self.records) > 168:
            raise ValueError("more records than the full experiment set provides")

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    def sigmas(self) -> np.ndarray:
        return np.array([r.sigma for r in self.records])

    def to_json(self) -> list[dict]:
        return [
            {"setting": r.setting, "detect": r.detect, "line": r.line,
             "quad": r.quad, "value": r.value, "sigma": r.sigma}
            for r in self.records
        ]

    @classmethod
    def from_json(cls, blobs: list[dict]) -> "TomographyDataset":
        if not isinstance(blobs, list):
            raise ValueError("dataset JSON must be an array of records")
        try:
            return cls(tuple(
                TomographyRecord(b["setting"], b["detect"], b["line"], b["quad"],
                                 float(b["value"]), float(b["sigma"]))
                for b in blobs
            ))
        except KeyError as exc:
            raise ValueError(f"dataset record lacks key {exc}") from None
        except (TypeError, OverflowError):
            raise ValueError("dataset records must be objects with numeric "
                             "value and sigma") from None

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "TomographyDataset":
        return cls.from_json(read_json(path))


def generate_dataset(rho: DensityOperator,
                     experiments: list[tuple[str, str]] | None = None,
                     sigma: float = 0.0, seed: int = 0) -> TomographyDataset:
    """Simulated dataset: exact amplitudes plus iid Gaussian noise."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma {sigma} must be finite and non-negative")
    exps = default_experiments() if experiments is None else list(experiments)
    rng = np.random.default_rng(seed)
    records = []
    for setting, detect in exps:
        vals = measure(rho, setting, detect)
        if sigma > 0:
            vals = vals + rng.normal(0.0, sigma, size=vals.shape)
        for (line, quad), v in zip(_ROW, vals):
            records.append(TomographyRecord(setting, detect, line, quad,
                                            float(v), float(sigma)))
    return TomographyDataset(tuple(records))


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructionResult:
    """Least-squares estimate with parameter covariance and fit residual."""

    rho_hat: DensityOperator
    theta: np.ndarray
    covariance: np.ndarray
    residual_norm: float


def reconstruct(dataset: TomographyDataset) -> ReconstructionResult:
    """Solve the overdetermined linear system for the deviation parameters.

    The rows come from the same cached readout map that simulates the
    data.  One thin SVD U S V^T of the rows weighted by 1/sigma gives the
    rank, the estimate V S^-1 U^T (b/sigma) and the covariance
    V S^-2 V^T = (A^T W A)^-1.  All-zero sigmas mean exact data: unit
    weights and a zero covariance.  No positivity projection is applied;
    the estimate is Hermitian and unit-trace by construction.
    """
    if not dataset.records:
        raise ValueError("empty dataset")
    rows = np.vstack([_readout_block(r.setting, r.detect)[_ROW[r.line, r.quad]]
                      for r in dataset.records])
    values = dataset.values()
    sigmas = dataset.sigmas()
    exact = not sigmas.any()
    if not exact and not sigmas.all():
        raise ValueError("datasets mixing exact and noisy records are not supported")
    weights = np.ones_like(sigmas) if exact else 1.0 / sigmas

    u, s, vt = np.linalg.svd(rows * weights[:, None], full_matrices=False)
    rank = _rank(s, rows.shape)
    if rank < 63:
        raise ValueError(f"design matrix rank {rank} < 63 "
                         f"(deficient subspace dimension {63 - rank})")
    scaled = vt.T / s
    theta = scaled @ (u.T @ (values * weights))
    cov = np.zeros((63, 63)) if exact else scaled @ scaled.T

    rho_hat = DensityOperator.loose(parameters_to_matrix(theta), warn=False)
    residual = float(np.linalg.norm(rows @ theta - values))
    return ReconstructionResult(rho_hat=rho_hat, theta=theta, covariance=cov,
                                residual_norm=residual)


def project_to_physical(rho_hat) -> DensityOperator:
    """Frobenius-nearest unit-trace PSD matrix, by spectrum clipping.

    The eigenvalues are clipped against the shifted level that restores
    unit trace (the simplex projection of the spectrum); eigenvectors are
    kept.  PSD unit-trace input passes through unchanged.  Optional
    post-processing only; reconstruction never applies it implicitly.
    """
    m = check_operator(rho_hat if not isinstance(rho_hat, DensityOperator)
                       else rho_hat.matrix)
    m = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    desc = vals[::-1]
    cumulative = np.cumsum(desc)
    levels = (cumulative - 1.0) / np.arange(1, len(desc) + 1)
    keep = int(np.nonzero(desc - levels > 0)[0][-1])
    clipped = np.clip(vals - levels[keep], 0.0, None)
    out = (vecs * clipped) @ vecs.conj().T
    return DensityOperator(out, tolerance=1e-9)


def propagate_witness_error(result: ReconstructionResult, w) -> float:
    """Standard deviation of tr(W rho_hat) from the parameter covariance.

    The identity component of W drops out (it is orthogonal to the
    traceless parameter space), so the error is invariant under shifts
    W -> W + c*Id and scales linearly with W.
    """
    grad = 8.0 * state_parameters(w)
    var = float(grad @ result.covariance @ grad)
    return float(np.sqrt(max(var, 0.0)))
