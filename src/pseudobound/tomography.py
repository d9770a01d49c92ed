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
of the Heisenberg-picture line observables.  Datasets are arrays; record
objects exist only at the JSON boundary.  Every block's Gram matrix is
diagonal, so for whole experiments with one sigma each the weighted fit
is a closed form; any other dataset takes one thin SVD of the weighted
rows.  Both give the estimate, the rank and the parameter covariance that
is propagated to derived quantities such as witness expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product

import numpy as np

from .core import (
    DensityOperator,
    PAULIS,
    _as_matrix,
    parameter_basis,
    parameters_to_matrix,
    read_json,
    simplex_projection,
    state_parameters,
    tensor,
    write_json,
)

SETTINGS = ("Y1E2E3", "E1E2Y3", "E1E2X3", "Y1Y2E3", "E1X2X3", "Y1Y2Y3", "X1X2X3")
DETECT_SPINS = ("C", "H", "F")
LINE_LABELS = ("00", "01", "10", "11")
QUADRATURES = ("x", "y")

_DETECT_QUBIT = {"C": 1, "H": 2, "F": 3}

# the 27 setting ids: one of E, X, Y per spin
_SETTING_IDS = frozenset(f"{a}1{b}2{c}3" for a, b, c in product("EXY", repeat=3))
# every (setting, detected spin) experiment; datasets store indices into it
_EXPERIMENTS = tuple(product(sorted(_SETTING_IDS), DETECT_SPINS))
_EXPERIMENT_INDEX = {exp: k for k, exp in enumerate(_EXPERIMENTS)}


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
_ROW_LABELS = tuple(_ROW)


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


@dataclass(frozen=True, init=False, eq=False)
class TomographyDataset:
    """Measurement records held as four read-only arrays of equal length.

    ``experiment`` indexes ``_EXPERIMENTS`` and ``row`` the amplitude within
    that experiment's 8 (``_ROW``).  :class:`TomographyRecord` objects are
    built only at the boundary: from a tuple of records, by ``records`` and
    by the JSON round trip.
    """

    experiment: np.ndarray
    row: np.ndarray
    value: np.ndarray
    sigma: np.ndarray

    def __init__(self, records: tuple[TomographyRecord, ...]):
        self._fill([_EXPERIMENT_INDEX[r.setting, r.detect] for r in records],
                   [_ROW[r.line, r.quad] for r in records],
                   [r.value for r in records], [r.sigma for r in records])

    @classmethod
    def _from_arrays(cls, experiment, row, value, sigma) -> "TomographyDataset":
        dataset = cls.__new__(cls)
        dataset._fill(experiment, row, value, sigma)
        return dataset

    def _fill(self, experiment, row, value, sigma) -> None:
        if len(value) > 168:
            raise ValueError("more records than the full experiment set provides")
        for name, data, dtype in (("experiment", experiment, np.intp), ("row", row, np.intp),
                                  ("value", value, float), ("sigma", sigma, float)):
            array = np.asarray(data, dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def _labelled(self):
        # (setting, detect, line, quad, value, sigma) per record, as Python scalars
        for e, r, v, s in zip(self.experiment.tolist(), self.row.tolist(),
                              self.value.tolist(), self.sigma.tolist()):
            yield (*_EXPERIMENTS[e], *_ROW_LABELS[r], v, s)

    @property
    def records(self) -> tuple[TomographyRecord, ...]:
        return tuple(TomographyRecord(*labels) for labels in self._labelled())

    def __eq__(self, other):
        if not isinstance(other, TomographyDataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("experiment", "row", "value", "sigma"))

    def to_json(self) -> list[dict]:
        return [dict(zip(_RECORD_KEYS, labels)) for labels in self._labelled()]

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
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "TomographyDataset":
        return cls.from_json(read_json(path))


_RECORD_KEYS = tuple(f.name for f in fields(TomographyRecord))


def generate_dataset(rho: DensityOperator,
                     experiments: list[tuple[str, str]] | None = None,
                     sigma: float = 0.0, seed: int = 0) -> TomographyDataset:
    """Simulated dataset: exact amplitudes plus iid Gaussian noise.

    One ``normal(0, sigma, 8k)`` draw for k experiments reproduces, bit for
    bit, k consecutive draws of 8.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma {sigma} must be finite and non-negative")
    exps = default_experiments() if experiments is None else list(experiments)
    values = np.array([measure(rho, setting, detect) for setting, detect in exps]).reshape(-1)
    if sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, sigma, size=values.shape)
    n = len(_ROW)
    return TomographyDataset._from_arrays(
        np.repeat([_EXPERIMENT_INDEX[exp] for exp in exps], n), np.tile(np.arange(n), len(exps)),
        values, np.full(values.shape, float(sigma)))


# ---------------------------------------------------------------------------
# reconstruction


@dataclass(frozen=True)
class ReconstructionResult:
    """Least-squares estimate with parameter covariance and fit residual."""

    rho_hat: DensityOperator
    theta: np.ndarray
    covariance: np.ndarray
    residual_norm: float


def _whole_experiments(dataset: TomographyDataset) -> bool:
    """True if the records are whole experiments, in row order, with one sigma each."""
    n = len(_ROW)
    if len(dataset.row) % n:
        return False
    exps, sigmas = dataset.experiment.reshape(-1, n), dataset.sigma.reshape(-1, n)
    return bool((dataset.row.reshape(-1, n) == np.arange(n)).all()
                and (exps == exps[:, :1]).all() and (sigmas == sigmas[:, :1]).all())


def _check_rank(singular_values: np.ndarray, shape: tuple[int, int]) -> None:
    rank = _rank(singular_values, shape)
    if rank < 63:
        raise ValueError(f"design matrix rank {rank} < 63 "
                         f"(deficient subspace dimension {63 - rank})")


def reconstruct(dataset: TomographyDataset) -> ReconstructionResult:
    """Solve the overdetermined linear system for the deviation parameters.

    The rows come from the same cached readout map that simulates the
    data, with weights 1/sigma.  When the records are whole experiments
    with one sigma each, as every generated dataset is, the normal matrix
    A^T W A is diagonal (every block's Gram B^T B is; ``checks`` asserts
    it), so the estimate is (A^T W b) / diag(A^T W A), the covariance
    diag(1/diag(A^T W A)) and the singular values sqrt(diag(A^T W A)).
    Any other dataset (shuffled, partial blocks or a sigma per record)
    takes one thin SVD U S V^T of the weighted rows: the estimate is
    V S^-1 U^T (b/sigma) and the covariance V S^-2 V^T.  All-zero sigmas
    mean exact data: unit weights and a zero covariance.  No positivity
    projection is applied; the estimate is Hermitian and unit-trace by
    construction.
    """
    if not len(dataset.value):
        raise ValueError("empty dataset")
    values, sigmas = dataset.value, dataset.sigma
    exact = not sigmas.any()
    if not exact and not sigmas.all():
        raise ValueError("datasets mixing exact and noisy records are not supported")
    weights = np.ones_like(sigmas) if exact else 1.0 / sigmas
    # only the blocks the dataset uses: building all 81 costs milliseconds
    exps, inverse = np.unique(dataset.experiment, return_inverse=True)
    blocks = np.stack([_readout_block(*_EXPERIMENTS[e]) for e in exps.tolist()])
    rows = blocks[inverse, dataset.row]

    if _whole_experiments(dataset):
        w2 = weights * weights
        gram = w2 @ (rows * rows)   # diag(A^T W A)
        _check_rank(np.sqrt(gram), rows.shape)
        theta = ((values * w2) @ rows) / gram
        cov = np.zeros((63, 63)) if exact else np.diag(1.0 / gram)
    else:
        u, s, vt = np.linalg.svd(rows * weights[:, None], full_matrices=False)
        _check_rank(s, rows.shape)
        scaled = vt.T / s
        theta = scaled @ (u.T @ (values * weights))
        cov = np.zeros((63, 63)) if exact else scaled @ scaled.T

    rho_hat = DensityOperator.loose(parameters_to_matrix(theta))
    residual = float(np.linalg.norm(rows @ theta - values))
    return ReconstructionResult(rho_hat=rho_hat, theta=theta, covariance=cov,
                                residual_norm=residual)


def project_to_physical(rho_hat) -> DensityOperator:
    """Frobenius-nearest unit-trace PSD matrix, by spectrum clipping.

    The spectrum goes through ``core.simplex_projection``, the projection
    that also gives the NMR temporal weights; eigenvectors are kept.  PSD
    unit-trace input passes through unchanged.  Optional post-processing
    only; reconstruction never applies it implicitly.
    """
    m = _as_matrix(rho_hat)
    m = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    out = (vecs * simplex_projection(vals)) @ vecs.conj().T
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
