"""Seven-setting NMR readout simulation and least-squares state reconstruction.

Only the carbon spin is detected.  Each experiment applies one of seven
spin-selective pi/2 rotation patterns, optionally swaps hydrogen or
fluorine onto carbon, and records the x and y quadratures of the four
J-resolved carbon lines, i.e. the observables sigma_{x,y} on qubit 1
tensored with a basis projector on qubits 2 and 3.  Running all seven
settings with all three detected spins gives 168 linear equations for the
63 real parameters of the traceless deviation.  One read-only readout
table (``_readout_table``: 81 experiments x 8 amplitudes x 63 parameters)
serves both simulation and inversion; its rows are the Pauli coordinates
of the Heisenberg-picture line observables.  A dataset is three read-only
arrays (record, value, sigma) from the JSON file or the simulation to the
fit.  One index, experiment * 8 + row, names a record's labels and its row
of the table viewed as (648, 63); the constructor validates the arrays of a
file, and the simulation builds its own without re-checking them and hands
its dataset the rows and squares of the default layout, kept once per
process, so that its fit derives neither.  The
same index names a record's text in a dataset file:
``TomographyDataset.json_text`` formats each record's labels, value and
sigma into one record text cut once from ``core.json_text``, byte for byte
``core.json_text`` of ``to_json()``.  Every
experiment's Gram matrix is diagonal, so for whole experiments with one
sigma each the weighted fit is a closed form; any other dataset takes one
thin SVD of the weighted rows.  Both give the estimate, the rank and the
parameter covariance that is propagated to derived quantities such as
witness expectations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .core import (
    MAX_ENTRY,
    DensityOperator,
    PAULIS,
    _NUMBERS,
    _as_matrix,
    _pauli_coordinates,
    json_text,
    parameters_to_matrix,
    simplex_projection,
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
# every (setting, detected spin) experiment; datasets store indices into it
_EXPERIMENTS = tuple(product(sorted(_SETTING_IDS), DETECT_SPINS))
_EXPERIMENT_INDEX = {exp: k for k, exp in enumerate(_EXPERIMENTS)}


def parse_setting(setting: str) -> tuple[str, str, str]:
    """Split a setting id like 'Y1E2E3' into per-spin operations."""
    if not isinstance(setting, str) or setting not in _SETTING_IDS:
        raise ValueError(f"bad setting id {setting!r}")
    return setting[0], setting[2], setting[4]


def _experiment_index(setting: str, detect: str) -> int:
    """Position of (setting, detect) in ``_EXPERIMENTS``; ValueError names a bad id."""
    try:
        return _EXPERIMENT_INDEX[setting, detect]
    except (KeyError, TypeError):   # TypeError: an unhashable id such as a list
        parse_setting(setting)
        raise ValueError(f"bad detected spin {detect!r}") from None


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
    # the identity with the two qubits' output axes exchanged
    axes = [0, 1, 2]
    axes[q1 - 1], axes[q2 - 1] = axes[q2 - 1], axes[q1 - 1]
    return np.eye(8, dtype=complex).reshape(2, 2, 2, 8).transpose(*axes, 3).reshape(8, 8)


def readout_unitary(setting: str, detect: str = "C") -> np.ndarray:
    """Total readout transformation for one experiment.

    The per-spin rotations act on the prepared state first; detecting H or
    F then swaps that spin onto carbon just before acquisition.
    """
    ops = parse_setting(setting)
    rot = tensor(*(_single_rotation(op) for op in ops))
    if not isinstance(detect, str) or detect not in _DETECT_QUBIT:
        raise ValueError(f"bad detected spin {detect!r}")
    q = _DETECT_QUBIT[detect]
    return rot if q == 1 else swap_unitary(1, q) @ rot


# the (line, quadrature) of each amplitude among an experiment's 8, in order
_ROW_LABELS = tuple(product(LINE_LABELS, QUADRATURES))
# a record's labels (setting, detect, line, quad) at its index experiment * 8 + row,
# which is also its row of the readout table viewed as (648, 63), and the inverse:
# the one table that writes and reads a record's labels
_RECORD_LABELS = tuple((*experiment, *row) for experiment in _EXPERIMENTS for row in _ROW_LABELS)
_RECORD_INDEX = {labels: i for i, labels in enumerate(_RECORD_LABELS)}


def measure(rho: DensityOperator, setting: str, detect: str = "C") -> np.ndarray:
    """Quadrature amplitudes of the four carbon lines for one experiment.

    Returns 8 reals ordered (line 00 x, line 00 y, line 01 x, ...).  The
    state's Pauli coordinates are its cached ``parameters``.  A bad setting
    or detected spin raises ValueError, as in a dataset file.
    """
    return _readout_table()[_experiment_index(setting, detect)] @ rho.parameters


# the 21 (setting, detected spin) experiments of a simulated dataset
_DEFAULT_EXPERIMENTS = tuple(product(SETTINGS, DETECT_SPINS))


def default_experiments() -> list[tuple[str, str]]:
    """All 21 (setting, detected spin) combinations."""
    return list(_DEFAULT_EXPERIMENTS)


# the record index of each of the 168 records of a simulated dataset
_DEFAULT_RECORD = np.array([_RECORD_INDEX[(*experiment, *row)] for experiment
                            in _DEFAULT_EXPERIMENTS for row in _ROW_LABELS], dtype=np.intp)
_DEFAULT_RECORD.setflags(write=False)


# ---------------------------------------------------------------------------
# linear model: the 63 Pauli coordinates of the deviation


@lru_cache(maxsize=None)
def _readout_table() -> np.ndarray:
    """Read-only (81, 8, 63) map from the deviation parameters to every amplitude.

    Entry [e, r, k] is tr(R_e^dag O_r R_e P_k) for the readout unitary R_e
    of experiment ``_EXPERIMENTS[e]``, the line observable O_r of amplitude
    r (``_ROW_LABELS`` order) and each Pauli product P_k: the Heisenberg picture.
    The identity part of a state drops out because every O_r is traceless.
    Each experiment conjugates and projects its 8 observables as one stack;
    one stack of all 648 would hold about 2 MB of intermediates at once.
    """
    obs = np.empty((len(_ROW_LABELS), 8, 8), dtype=complex)
    for r, (line, quad) in enumerate(_ROW_LABELS):
        proj = np.diag([float(line == label) for label in LINE_LABELS])
        obs[r] = np.kron(PAULIS["X"] if quad == "x" else PAULIS["Y"], proj)
    table = np.empty((len(_EXPERIMENTS), len(_ROW_LABELS), 63))
    for e, experiment in enumerate(_EXPERIMENTS):
        u = readout_unitary(*experiment)
        table[e] = 8.0 * _pauli_coordinates(u.conj().T @ obs @ u)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _default_layout() -> tuple[np.ndarray, np.ndarray]:
    """The default layout's (168, 63) readout rows and their squares, read-only.

    The rows are the readout table's at ``_DEFAULT_RECORD``; every simulated
    dataset is given both (``TomographyDataset._trusted``), so that its fit
    gathers and squares nothing.
    """
    rows = _readout_table().reshape(-1, 63)[_DEFAULT_RECORD]
    squares = rows * rows
    rows.setflags(write=False)
    squares.setflags(write=False)
    return rows, squares


def design_matrix() -> np.ndarray:
    """The (168, 63) linear map from the deviation parameters to the default amplitudes.

    The kept rows of ``_default_layout``, read-only: the one gather of the
    default layout, which every simulated dataset's fit reads too.
    """
    return _default_layout()[0]


# ---------------------------------------------------------------------------
# datasets


SIGMA_RANGE = (1e-150, 1e150)
# every readout row has L1 norm 8 and every Pauli coordinate of a state lies
# within MAX_ENTRY, so every exact amplitude lies within this bound
MAX_VALUE = 8 * MAX_ENTRY


def _check_sigmas(sigma: np.ndarray) -> None:
    """Raise ValueError unless each sigma is 0 or within ``SIGMA_RANGE``."""
    lo, hi = SIGMA_RANGE
    valid = (sigma == 0.0) | ((sigma >= lo) & (sigma <= hi))
    if not valid.all():
        raise ValueError(f"record sigma {sigma[~valid][0]} must be 0 or within "
                         f"[{lo:g}, {hi:g}], so that 1/sigma^2 stays a normal float")


@dataclass(frozen=True, init=False, eq=False)
class TomographyDataset:
    """Measurement records held as three read-only arrays (record, value, sigma).

    ``record`` is each record's one index, experiment * 8 + row: its labels'
    position in ``_RECORD_LABELS`` and its row of the readout table viewed as
    (648, 63).  The arrays have equal length.  The constructor is the one validation
    of a dataset from outside the program (a file, or arrays a caller
    passes): equal 1-D lengths, at most 168 records, indices in range,
    each sigma either 0 (exact data) or within ``SIGMA_RANGE``, so that the
    fit weight 1/sigma^2 is a finite normal float, and each value finite and
    within ``MAX_VALUE`` in magnitude, so that the fit stays finite.
    ``generate_dataset``, the one place that simulates data, checks its
    sigma and builds its dataset through ``_trusted`` without these checks.
    """

    record: np.ndarray
    value: np.ndarray
    sigma: np.ndarray
    # (rows, squares) of whole experiments with one sigma each, given by the
    # construction that knows them; None: ``reconstruct`` derives the layout
    _layout = None

    def __init__(self, record, value, sigma):
        for name, data, dtype in (("record", record, np.intp), ("value", value, float),
                                  ("sigma", sigma, float)):
            array = np.array(data, dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        record, value, sigma = self.record, self.value, self.sigma
        if value.ndim != 1 or not record.shape == value.shape == sigma.shape:
            raise ValueError("dataset arrays must be 1-D and of equal length")
        if len(value) > 168:
            raise ValueError("more records than the full experiment set provides")
        # as unsigned integers, negative indices compare above every bound
        if record.view(np.uintp).max(initial=0) >= len(_RECORD_LABELS):
            raise ValueError(f"record index outside [0, {len(_RECORD_LABELS)})")
        _check_sigmas(sigma)
        bounded = np.abs(value) <= MAX_VALUE   # False for NaN too
        if not bounded.all():
            raise ValueError(f"record value {value[~bounded][0]} must be finite and "
                             f"within {MAX_VALUE:g} in magnitude")

    @classmethod
    def _trusted(cls, record: np.ndarray, value: np.ndarray, sigma: np.ndarray,
                 layout: tuple[np.ndarray, np.ndarray]) -> "TomographyDataset":
        """A dataset of arrays that meet the constructor's conditions, made read-only, uncopied.

        ``layout`` holds the facts its construction knows about the records:
        their readout rows and the rows' squares, read-only, for records that
        are whole experiments with one sigma each.  ``reconstruct`` reads
        them instead of gathering, squaring and testing the layout; both are
        taken as given, and ``checks`` compares them with the derived ones.
        """
        dataset = object.__new__(cls)
        for name, array in (("record", record), ("value", value), ("sigma", sigma)):
            array.setflags(write=False)
            object.__setattr__(dataset, name, array)
        object.__setattr__(dataset, "_layout", layout)
        return dataset

    def __eq__(self, other):
        if not isinstance(other, TomographyDataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("record", "value", "sigma"))

    def to_json(self) -> list[dict]:
        labels = map(_RECORD_LABELS.__getitem__, self.record.tolist())
        return _records_json(labels, self.value.tolist(), self.sigma.tolist())

    def json_text(self) -> str:
        """``core.json_text(self.to_json())``, written from the record indices.

        Each record is one format of the record text (``_record_layout``)
        with its index's four labels and one float repr each of its value
        and its sigma.  No non-finite refusal is needed: every value is
        finite and within ``MAX_VALUE`` and every sigma 0 or within
        ``SIGMA_RANGE``, which the constructor checks and
        ``generate_dataset`` guarantees.
        """
        if not len(self.record):
            return json_text([])   # "[]\n"
        start, record, sep, end = _record_layout()
        labels = map(_RECORD_LABELS.__getitem__, self.record.tolist())
        return start + sep.join([record % (*label, value, sigma) for label, value, sigma
                                 in zip(labels, self.value.tolist(), self.sigma.tolist())]) + end

    @classmethod
    def from_json(cls, blobs: list[dict]) -> "TomographyDataset":
        if not isinstance(blobs, list):
            raise ValueError("dataset JSON must be an array of records")
        record, value, sigma = [], [], []
        for b in blobs:
            try:
                labels = b["setting"], b["detect"], b["line"], b["quad"]
                v, s = b["value"], b["sigma"]
                if type(v) not in _NUMBERS or type(s) not in _NUMBERS:   # "1.5", true
                    raise TypeError
                value.append(float(v))
                sigma.append(float(s))
            except KeyError as exc:
                raise ValueError(f"dataset record lacks key {exc}") from None
            except (TypeError, OverflowError):
                raise ValueError("dataset records must be objects with numeric "
                                 "value and sigma") from None
            try:
                record.append(_RECORD_INDEX[labels])
            except (KeyError, TypeError):   # TypeError: an unhashable label such as a list
                _experiment_index(*labels[:2])
                raise ValueError(f"unknown line/quadrature {labels[2:]!r}") from None
        return cls(record, value, sigma)


def _records_json(labels, values, sigmas) -> list[dict]:
    """The wire records of each (setting, detect, line, quad) with its value and sigma."""
    return [{"setting": setting, "detect": detect, "line": line, "quad": quad,
             "value": value, "sigma": sigma}
            for (setting, detect, line, quad), value, sigma in zip(labels, values, sigmas)]


@lru_cache(maxsize=None)
def _record_layout() -> tuple[str, str, str, str]:
    """The constant text of a dataset file: (start, record, sep, end).

    The text of n >= 1 records is ``start``, then each record's
    ``record % (setting, detect, line, quad, value, sigma)`` joined by
    ``sep``, then ``end``.  The pieces are cut from ``core.json_text`` of two
    placeholder records, so that the indented format keeps its one
    definition in ``core``: each label is "%s", which the encoder quotes (a
    label is letters and digits, so it needs no escaping), and the value and
    the sigma are null, made "%r", which writes a float's ``float.__repr__``
    as the encoder does.
    """
    text = json_text(_records_json([("%s",) * 4] * 2, [None] * 2, [None] * 2)).replace("null", "%r")
    # "[\n" record ",\n" record "\n]\n", each record from its " {" to its "}"
    first, close = text.index(" {"), text.index("}") + 1
    second, last = text.index(" {", close), text.rindex("}") + 1
    return text[:first], text[first:close], text[close:second], text[last:]


def generate_dataset(rho: DensityOperator, sigma: float = 0.0,
                     seed: int = 0) -> TomographyDataset:
    """The 21 default experiments' exact amplitudes plus iid Gaussian noise.

    One ``normal(0, sigma, 168)`` draw reproduces, bit for bit, 21
    consecutive draws of 8.  This is the one place that builds simulated
    data.  A sigma that is not finite and non-negative, or not 0 or within
    ``SIGMA_RANGE``, is refused up front, the latter with the message a
    file gets.  The dataset is then built without the validating
    constructor's checks (``TomographyDataset._trusted``): its indices are
    the default layout's, and its exact amplitudes lie within ``MAX_VALUE``
    because a state's entries lie within ``core.MAX_ENTRY``.  It is given
    what the construction knows of that layout, the kept rows and squares
    of ``_default_layout`` for whole experiments with one sigma, so that
    its fit derives none of them.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma {sigma} must be finite and non-negative")
    lo, hi = SIGMA_RANGE
    if not (sigma == 0.0 or lo <= float(sigma) <= hi):
        _check_sigmas(np.array([float(sigma)]))   # raises with a file's message
    values = np.empty((len(_DEFAULT_EXPERIMENTS), len(_ROW_LABELS)))
    for k, (setting, detect) in enumerate(_DEFAULT_EXPERIMENTS):
        values[k] = measure(rho, setting, detect)
    values = values.reshape(-1)
    if sigma > 0:
        values += np.random.default_rng(seed).normal(0.0, sigma, size=values.shape)
    return TomographyDataset._trusted(_DEFAULT_RECORD, values,
                                      np.full(len(_DEFAULT_RECORD), float(sigma)),
                                      _default_layout())


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
    """True if the records are whole experiments, in row order, with one sigma each.

    Each block of 8 record indices must start at a multiple of 8 and run
    consecutively.  The default layout's blocks do, so a block does exactly
    when its offset from the default layout is one multiple of 8 throughout:
    the offsets compare as bytes against each block's first offset rounded
    down to a multiple of 8 and repeated.  The sigmas compare with ==, so
    that 0.0 and -0.0 are one exact sigma.
    """
    n = len(_ROW_LABELS)
    record, sigma = dataset.record, dataset.sigma
    if len(record) % n:
        return False
    offset = record - _DEFAULT_RECORD[:len(record)]
    return (offset.tobytes() == (offset[::n] & -n).repeat(n).tobytes()
            and bool((sigma == sigma[::n].repeat(n)).all()))


_EPS = float(np.finfo(float).eps)


def _check_rank(s: np.ndarray, shape: tuple[int, int]) -> None:
    """Refuse a fit of rank below 63.

    The rank counts the singular values ``s`` above numpy's default cutoff,
    max(shape) * eps * s.max(), as ``np.linalg.matrix_rank`` does.
    """
    rank = int(np.count_nonzero(s > s.max() * max(shape) * _EPS))
    if rank < 63:
        raise ValueError(f"design matrix rank {rank} < 63 "
                         f"(deficient subspace dimension {63 - rank})")


def reconstruct(dataset: TomographyDataset) -> ReconstructionResult:
    """Solve the overdetermined linear system for the deviation parameters.

    Each record's row is read from the readout table that simulates the
    data, at the record's index, with weight 1/sigma.  A simulated dataset
    was given its rows, their squares and the fact that its records are
    whole experiments with one sigma each (``TomographyDataset._trusted``),
    and the fit reads them; any other dataset gathers its rows and tests
    its layout (``_whole_experiments``).  Both then take the one fit below.
    When the records are whole experiments with one sigma each, as every
    generated dataset is, the normal matrix A^T W A is diagonal (every
    experiment's Gram B^T B is; ``checks`` asserts it), so the estimate is
    (A^T W b) / diag(A^T W A), the covariance diag(1/diag(A^T W A)) and
    the singular values sqrt(diag(A^T W A)).  Any other dataset (shuffled,
    partial blocks or a sigma per record) takes one thin SVD U S V^T of the
    weighted rows: the estimate is V S^-1 U^T (b/sigma) and the covariance
    V S^-2 V^T.  All-zero sigmas mean exact data: unit weights and a zero
    covariance.  No positivity projection is applied; the estimate is
    Hermitian and unit-trace by construction, unless its coordinates are so
    large (near ``core.MAX_ENTRY``) that Id/8 is lost to rounding or an entry
    passes the bound: then ValueError names the largest record value and the
    largest fitted coordinate.
    """
    if not len(dataset.value):
        raise ValueError("empty dataset")
    values, sigmas = dataset.value, dataset.sigma
    exact = not sigmas.any()
    if not exact and not sigmas.all():
        raise ValueError("datasets mixing exact and noisy records are not supported")
    weights = np.ones_like(sigmas) if exact else 1.0 / sigmas
    if dataset._layout is not None:
        rows, squares = dataset._layout
    else:
        rows = _readout_table().reshape(-1, 63)[dataset.record]
        squares = rows * rows if _whole_experiments(dataset) else None

    if squares is not None:
        w2 = weights * weights
        # scaled exactly, by a power of two, to a largest weight in [1/2, 1),
        # so that values * w2 stays finite; the covariance is scaled back
        scale = 2.0 ** -math.frexp(w2.max())[1]
        w2 *= scale
        gram = w2 @ squares   # diag(A^T W A) * scale
        _check_rank(np.sqrt(gram), rows.shape)
        theta = ((values * w2) @ rows) / gram
        cov = np.zeros((63, 63)) if exact else np.diag(scale / gram)
    else:
        u, s, vt = np.linalg.svd(rows * weights[:, None], full_matrices=False)
        _check_rank(s, rows.shape)
        scaled = vt.T / s
        theta = scaled @ (u.T @ (values * weights))
        cov = np.zeros((63, 63)) if exact else scaled @ scaled.T

    try:
        rho_hat = DensityOperator.loose(parameters_to_matrix(theta))
    except ValueError as exc:
        raise ValueError(f"record values up to {np.abs(values).max():.4g} in magnitude fit "
                         f"Pauli coordinates up to {np.abs(theta).max():.4g}, which give "
                         f"no state: {exc}") from None
    residual = float(np.linalg.norm(rows @ theta - values))
    return ReconstructionResult(rho_hat=rho_hat, theta=theta, covariance=cov,
                                residual_norm=residual)


def project_to_physical(rho_hat) -> DensityOperator:
    """Frobenius-nearest unit-trace PSD matrix, by spectrum clipping.

    The spectrum goes through ``core.simplex_projection``, the projection
    that also gives the NMR temporal weights; eigenvectors are kept, and the
    state keeps the clipped spectrum, ascending as the spectrum it clips.  PSD
    unit-trace input passes through unchanged.  Optional post-processing
    only; reconstruction never applies it implicitly.
    """
    m = _as_matrix(rho_hat)
    m = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    clipped = simplex_projection(vals)
    return DensityOperator.with_spectrum((vecs * clipped) @ vecs.conj().T, clipped)


def propagate_witness_error(result: ReconstructionResult, w) -> float:
    """Standard deviation of tr(W rho_hat) from the parameter covariance.

    The identity component of W drops out (it is orthogonal to the
    traceless parameter space), so the error is invariant under shifts
    W -> W + c*Id and scales linearly with W.
    """
    grad = 8.0 * state_parameters(w)
    var = float(grad @ result.covariance @ grad)
    return float(np.sqrt(max(var, 0.0)))
