"""Dense linear algebra for the three-qubit register.

Operators are plain 8x8 complex ndarrays in big-endian qubit ordering:
qubit 1 (the carbon spin) is the most significant bit of the basis index,
so |b1 b2 b3> lives at index 4*b1 + 2*b2 + b3.  ``check_operator`` is the
one place that enforces that shape.  Density operators get a thin
validated wrapper so that every state constructed anywhere in the package
is certified Hermitian, unit-trace and positive semidefinite (within
tolerance) on creation.  A state works out its spectrum and its Pauli
coordinates when each is first read and keeps them, so it is diagonalised and
mapped to Pauli coordinates at most once; a validated state reads its spectrum
for the positivity test, and a loosely wrapped one only if a caller does.  A
construction that knows the spectrum in closed form, and perhaps the square
root, hands them over (``DensityOperator.with_spectrum``) and the state makes
no eigensolve: the family member, the identity mixing ``mix_state``, the
physical projection and the NMR states.  A matrix Hermitian only within
tolerance is read through its Hermitian part (m + m^dag)/2 by every spectrum
here, so no result depends on which triangle holds a defect.  The partial
transposes of the three cuts are one permutation of a matrix's 64 entries,
which ``is_ppt`` gathers in one step.

The 63 Pauli coordinates tr(op P_k)/8 of an 8x8 operator (``state_parameters``,
inverted by ``parameters_to_matrix``) are the one map that the tomography
fit, its error propagation and the NMR seed expansion use; its basis, each
Pauli product a phased permutation, is built from the Pauli indices alone.
The other jobs shared by several modules are done here once too: the
Hermiticity test ``check_hermitian``, ``simplex_projection`` (the NMR
weights and the physical projection), ``mix_with_identity`` (the peel and the
pseudo witness) and its map of states ``mix_state`` (the pseudo-state
embedding and depolarization), ``_as_matrix`` and ``json_text``, the one
JSON text format of files and standard output:
exactly ``json.dumps(payload, indent=1)`` plus a newline (ASCII-escaped, one
space per level), written through the stdlib's C encoder.

Everything here is a pure function of its inputs; wrapped matrices are
frozen read-only, so values are safe to share between threads.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
_IDENTITY = np.eye(8)
_IDENTITY.setflags(write=False)
# the largest entry magnitude of a state, the package's 1e150 range convention:
# sums and products of a few such entries stay finite normal floats
MAX_ENTRY = 1e150


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


def check_hermitian(m: np.ndarray, tolerance: float, what: str) -> float:
    """The defect max|m - m^dag|; raise ValueError if it exceeds ``tolerance`` (absolute)."""
    defect = float(np.abs(m - m.conj().T).max())
    if defect > tolerance:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3e} > tol {tolerance:.1e})")
    return defect


def check_tolerance(tolerance: float, what: str) -> None:
    """Raise ValueError unless ``tolerance`` is finite and non-negative."""
    if not 0.0 <= tolerance < np.inf:
        raise ValueError(f"{what} tolerance {tolerance} must be finite and non-negative")


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
    check_tolerance(tolerance, "square-root")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    if vals[0] < -tolerance:
        raise ValueError(f"matrix not PSD: eigenvalue {vals[0]:.3e}")
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Validated density matrix, equal only to itself.

    ``tolerance`` is fixed by the kind of state: 1e-10 for a validated one
    and 1e-6 for one wrapped by :meth:`DensityOperator.loose`.  It bounds
    the admissible Hermiticity defect, trace defect and (validated states
    only) most negative eigenvalue.  Exact synthetic states are validated;
    noisy reconstructed states and matrix files are wrapped loosely, without
    the positivity test.  Entries beyond ``MAX_ENTRY`` in magnitude are
    refused, so that products, eigensolves and trace norms of states stay
    finite.

    The spectrum (``eigenvalues()``) and the Pauli coordinates
    (``parameters``) are worked out on first read and kept; both are
    read-only arrays, computed at most once per state.  The positivity test
    reads the spectrum, so a validated state is diagonalised on construction
    and a loose one only when a caller asks, unless its construction gave the
    spectrum (:meth:`DensityOperator.with_spectrum`), which is then kept in
    the same slot, and perhaps the square root (``known_root``).  Equality
    and hashing are by identity: two states with equal matrices are distinct
    values.
    """

    matrix: np.ndarray
    tolerance = 1e-10   # a class attribute, not a field; loose() sets 1e-6

    def __post_init__(self, positive: bool = True):
        # the one validation pass; loose() calls it with positive=False
        tol = self.tolerance
        m = np.asarray(self.matrix, dtype=complex)
        # one pass over the entries: the bound fails for NaN and inf too, and only
        # a failure runs check_operator, which names a wrong shape or a non-finite entry
        if m.shape != (8, 8) or not (largest := float(np.abs(m).max())) <= MAX_ENTRY:
            check_operator(m)
            raise ValueError(f"state entry of magnitude {largest:.3e} beyond {MAX_ENTRY:g}")
        defect = check_hermitian(m, tol, "state")
        tr = complex(m.trace())
        if abs(tr - 1.0) > tol:
            raise ValueError(f"trace {tr:.8g} != 1 beyond tol {tol:.1e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_exactly_hermitian", defect == 0.0)
        if positive:
            lowest = self.eigenvalues()[0]
            if lowest < -tol:
                raise ValueError(f"negative eigenvalue {lowest:.3e} beyond tol {tol:.1e}")

    @classmethod
    def loose(cls, matrix) -> "DensityOperator":
        """Wrap a matrix that may violate positivity, at tolerance 1e-6.

        Unprojected estimates legitimately have negative eigenvalues, so
        positivity is not checked: a Hermiticity or trace defect beyond 1e-6
        means the matrix is no state and raises ValueError.  A positivity
        defect is not an error and raises no warning: it shows as
        ``eigenvalues()[0] < 0``, and ``is_ppt`` at its default, the
        state's tolerance 1e-6, calls a cut below -1e-6 NPT.
        """
        # skip __init__ so that the matrix is validated once, without the positivity test
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        object.__setattr__(rho, "tolerance", 1e-6)
        rho.__post_init__(positive=False)
        return rho

    @classmethod
    def with_spectrum(cls, matrix, spectrum, root=None) -> "DensityOperator":
        """A validated state whose construction knows its spectrum and perhaps its square root.

        ``spectrum``, ascending, is kept as ``eigenvalues()`` and ``root``, the
        PSD square root, as ``known_root``, so the state makes no eigensolve;
        the one validation pass reads the given spectrum for its positivity
        test.  Both are taken as given: ``checks`` compares each construction's
        closed forms against the dense solvers.
        """
        spectrum = np.array(spectrum, dtype=float)
        if spectrum.shape != (8,):
            raise ValueError(f"spectrum must hold 8 eigenvalues, got shape {spectrum.shape}")
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", matrix)
        rho._keep("_spectrum", spectrum)
        if root is not None:
            rho._keep("_root", np.array(root, dtype=complex))
        rho.__post_init__()
        return rho

    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending, read-only: given at construction or solved on first read.

        A solved spectrum is that of the Hermitian part (m + m^dag)/2, which
        equals ``np.linalg.eigvalsh(matrix)`` bit for bit when the matrix is
        exactly Hermitian; a matrix Hermitian only within tolerance gets the
        spectrum of its Hermitian part.  A validated state reads it for its
        positivity test, so its one eigensolve is made at construction, or
        none if ``with_spectrum`` gave it; a loose state makes it only if a
        reader asks.
        """
        return self._kept("_spectrum", lambda _: np.linalg.eigvalsh(_hermitian_part(self)))

    @property
    def known_root(self) -> np.ndarray | None:
        """The square root ``with_spectrum`` was given, read-only, or None: it is never solved."""
        return self.__dict__.get("_root")

    @property
    def parameters(self) -> np.ndarray:
        """The 63 Pauli coordinates ``state_parameters(matrix)``, read-only."""
        return self._kept("_parameters", state_parameters)

    def _kept(self, name: str, derive) -> np.ndarray:
        """``derive(matrix)``, worked out on first read, frozen and kept in the instance dict.

        Kept by hand: on Python 3.11 a ``functools.cached_property`` locks on each first read.
        """
        value = self.__dict__.get(name)
        if value is None:
            value = self._keep(name, derive(self.matrix))
        return value

    def _keep(self, name: str, value: np.ndarray) -> np.ndarray:
        value.setflags(write=False)
        object.__setattr__(self, name, value)
        return value


def _hermitian_part(op) -> np.ndarray:
    """The Hermitian part (m + m^dag)/2 of a state or matrix, the part every spectrum reads.

    An exactly Hermitian m is its own Hermitian part bit for bit and comes
    back as it is: a state knows whether it is, a bare matrix is compared.
    """
    m = _as_matrix(op)
    exact = (op._exactly_hermitian if isinstance(op, DensityOperator)
             else np.array_equal(m, m.conj().T))
    return m if exact else (m + m.conj().T) / 2


CUT_LABELS = ("1|23", "2|13", "3|12")   # the three cuts, each named by its transposed qubit

# row k: the flat index into an 8x8 matrix of each entry of its transpose on
# qubit k + 1, i.e. the qubit's row and column bits swapped.  Every cut of three
# qubits separates one; transposing the other two gives the full transpose of
# this, with the same spectrum.
_PT_INDEX = np.stack([np.swapaxes(np.arange(64).reshape((2,) * 6), k, k + 3).reshape(64)
                      for k in range(3)])
_PT_INDEX.setflags(write=False)


@dataclass(frozen=True)
class PPTReport:
    """The lowest partial-transpose eigenvalue of each cut, in ``CUT_LABELS`` order.

    A cut is PPT when its eigenvalue is at least ``-tolerance``.
    """

    min_eigenvalues: tuple[float, ...]
    tolerance: float

    @property
    def all_ppt(self) -> bool:
        return min(self.min_eigenvalues) >= -self.tolerance

    def as_dict(self) -> dict:
        """The wire object ``{"cuts": {label: {"min_eigenvalue", "ppt"}}, "all_ppt"}``."""
        cuts = {label: {"min_eigenvalue": lo, "ppt": lo >= -self.tolerance}
                for label, lo in zip(CUT_LABELS, self.min_eigenvalues)}
        return {"cuts": cuts, "all_ppt": self.all_ppt}


def is_ppt(rho: DensityOperator, tolerance: float | None = None) -> PPTReport:
    """PPT verdict for every bipartite cut of a three-qubit state or an 8x8 matrix.

    ``tolerance`` must be finite and non-negative.  It defaults to the
    state's own, fixed by its kind: 1e-10 for a validated state and 1e-6
    for a loosely wrapped one, whose cuts get 1e-6 whatever its own lowest
    eigenvalue.  A bare matrix has no tolerance of its own: without one,
    ValueError.  The cuts are those of the Hermitian part, whose partial
    transposes are the Hermitian parts of the matrix's.
    """
    m = _hermitian_part(rho)
    if tolerance is None and not isinstance(rho, DensityOperator):
        raise ValueError("a bare matrix has no tolerance of its own: pass the PPT tolerance")
    tol = rho.tolerance if tolerance is None else tolerance
    check_tolerance(tol, "PPT")
    # one gather and one eigensolve of the (3, 8, 8) stack; row k transposes qubit k + 1
    stack = m.reshape(64)[_PT_INDEX].reshape(3, 8, 8)
    return PPTReport(tuple(np.linalg.eigvalsh(stack)[:, 0].tolist()), tol)


def numeric_rank(h) -> int:
    """Count of eigenvalues above 1e-7 x the largest."""
    vals = eigvalsh(h)
    return int(np.sum(vals > 1e-7 * max(float(vals[-1]), 0.0)))


def uhlmann_fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Square-root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    The outer trace is the sum of the square roots of the eigenvalues of
    sqrt(rho) sigma sqrt(rho); the outer square root itself is never formed.
    Negative eigenvalues are clipped down to a slack of at least 1e-8, each
    argument's tolerance (1e-10 validated, 1e-6 loose) and just past its own
    lowest eigenvalue ``eigenvalues()[0]``, so a loosely wrapped estimate
    with a negative eigenvalue compares cleanly against an exact state.

    sqrt(rho) is rho's ``known_root`` when its construction gave one, as the
    family member's does, and ``matrix_sqrt_psd`` of it otherwise; sigma is
    read through its Hermitian part.

    Conditioning: when sqrt(rho) sigma sqrt(rho) is rank-deficient (a
    rank-deficient rho or sigma, such as a pure state or the rank-7 family
    state), a structurally zero eigenvalue comes out as rounding of order
    eps = 2.2e-16, and its square root adds about sqrt(eps) = 1.5e-8 to the
    result.  The fidelity then carries about 1e-8 of rounding, and two
    eigensolvers that round that eigenvalue differently give fidelities that
    differ at that level.  A dense square root of a rank-deficient rho adds
    the same again, from its own null eigenvalue; a known root has an exact
    null space, so against the family member only the outer eigensolve
    rounds.
    """
    slack = max(1e-8, *(max(s.tolerance, -s.eigenvalues()[0] * (1 + 1e-9) + 1e-15)
                        for s in (rho, sigma)))
    root = rho.known_root
    if root is None:
        root = matrix_sqrt_psd(rho, tolerance=slack)
    inner = root @ _hermitian_part(sigma) @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if vals[0] < -slack:
        raise ValueError(f"matrix not PSD: eigenvalue {vals[0]:.3e}")
    f = float(np.sqrt(np.maximum(vals, 0.0)).sum())
    # clipping the negative part of a loosely-validated input can push the
    # trace slightly past 1; the admissible overshoot scales with the slack
    if f > 1 + max(1e-7, 2.0 * np.sqrt(slack)):
        raise ValueError(f"fidelity {f} exceeds 1 beyond numerical slack")
    return min(max(f, 0.0), 1.0)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma, read through their Hermitian parts."""
    vals = np.linalg.eigvalsh(_hermitian_part(rho) - _hermitian_part(sigma))
    return float(np.sum(np.abs(vals)) / 2)


def pauli_labels() -> list[str]:
    """The 63 non-identity three-qubit Pauli labels, IIX to ZZZ."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=3)][1:]


def pauli_product(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis named by a string like 'XIZ'."""
    return tensor(*(PAULIS[c] for c in label))


# the three bits of each of the 64 Pauli indices 16 p1 + 4 p2 + p3, qubit 1 first,
# with p = 0, 1, 2, 3 for I, X, Y, Z as in ``pauli_labels``: shape (3, 64)
_PAULI_DIGITS = (np.arange(64) >> np.array([[4], [2], [0]]) & 3).astype(np.int8)
_PAULI_DIGITS.setflags(write=False)


@lru_cache(maxsize=None)
def parameter_basis() -> np.ndarray:
    """The 63 non-identity Pauli products flattened into a (63, 64) array.

    A state is Id/8 + sum_k theta_k * P_k with theta_k = tr(rho P_k)/8.
    Each product is a phased permutation, built from its index alone: X and
    Y flip a qubit's bit and Z and Y give it the sign (-1)^bit, and Y = -i Z X,
    so row i of P holds (-i)^(number of Y) (-1)^(popcount(i & z)) at column
    i XOR x, where x marks the qubits holding X or Y and z those holding Z or
    Y.  Equal to the stack of ``pauli_product`` of each label, the Kronecker
    products that the tests keep as its oracle.
    """
    digits = _PAULI_DIGITS[:, 1:]
    x = np.array([4, 2, 1]) @ ((digits == 1) | (digits == 2))
    z = np.array([4, 2, 1]) @ (digits >= 2)
    i = np.arange(8)
    signed = i & z[:, None]
    parity = (signed ^ signed >> 1 ^ signed >> 2) & 1
    phase = np.array([1, -1j, -1, 1j])[np.count_nonzero(digits == 2, axis=0) % 4]
    basis = np.zeros((63, 64), dtype=complex)
    basis[np.arange(63)[:, None], 8 * i + (i ^ x[:, None])] = phase[:, None] * (1 - 2 * parity)
    basis.setflags(write=False)
    return basis


def state_parameters(op) -> np.ndarray:
    """Pauli coordinates tr(op P_k)/8 of any 8x8 operator, real part.

    The identity part tr(op)/8 * Id is subtracted first: it is orthogonal
    to every P_k, and removing it keeps the ~1/8 background of a pseudo
    state from swamping the sums of its tiny deviation.
    """
    return _pauli_coordinates(_as_matrix(op))


def _pauli_coordinates(m: np.ndarray) -> np.ndarray:
    """``state_parameters`` of one 8x8 matrix or of each in a (..., 8, 8) stack, unchecked.

    The projection is a stacked matrix-vector product, one (63, 64) x (64,)
    per matrix, so a stack's coordinates are bit for bit those of its
    matrices taken one at a time; one (N, 64) x (64, 63) matrix product
    would sum in a different order and round differently.
    """
    # tr(dev P) = sum_ij dev_ij P_ji: the flattened rows of P meet dev transposed
    dev = np.swapaxes(m, -1, -2).copy().reshape(*m.shape[:-2], 64)
    diagonal = dev[..., ::9]   # a view; its sum is the trace
    diagonal -= diagonal.sum(axis=-1, keepdims=True) / 8.0
    return (parameter_basis() @ dev[..., None]).real[..., 0] / 8.0


def parameters_to_matrix(theta) -> np.ndarray:
    """The unit-trace operator Id/8 + sum_k theta_k * P_k."""
    return _IDENTITY / 8.0 + (theta @ parameter_basis()).reshape(8, 8)


def mix_with_identity(op, t: float) -> np.ndarray:
    """E_t(X) = t X + (1 - t) tr(X)/8 Id, the one identity-mixing map, for finite t.

    The pseudo-state embedding is E_p, depolarization by lam is E_{1-lam}, the
    peel is E_{1/p} and the pseudo witness is E_{1/p}(W).  E_t keeps the trace,
    E_s E_t = E_st and E_1 is the identity bit for bit, so E_{1/t} inverts E_t;
    E_t is self-adjoint under tr(A^dag B): tr(E_{1/p}(W) E_p(rho)) = tr(W rho).
    """
    if not -np.inf < t < np.inf:
        raise ValueError(f"identity-mixing weight t={t!r} must be finite")
    return _mixed(_as_matrix(op), t)[0]


def _mixed(m: np.ndarray, t: float) -> tuple[np.ndarray, complex]:
    """E_t(m) and the shift (1 - t) tr(m)/8 that it adds to the diagonal of t m."""
    shift = (1.0 - t) * (m.trace() / 8.0)
    return t * m + shift * _IDENTITY, shift


def mix_state(rho: DensityOperator, t: float) -> DensityOperator:
    """E_t(rho) for t in [0, 1] as a validated state that keeps the spectrum E_t gives it.

    E_t keeps the eigenvectors and maps each eigenvalue lam to
    t lam + (1 - t) tr/8, an order-keeping map for t >= 0, so the state takes
    rho's spectrum so mapped and makes no eigensolve.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"identity-mixing weight t={t!r} of a state must lie in [0, 1]")
    m, shift = _mixed(rho.matrix, t)
    return DensityOperator.with_spectrum(m, t * rho.eigenvalues() + shift.real)


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

# the types json.load gives a JSON number; a bool or a numeric string is none
_NUMBERS = frozenset({int, float})


def read_json(path):
    """Parse a JSON file; nesting too deep for the parser is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def load_json(path, parse):
    """``parse(read_json(path))``: the one loader of input files.

    A ValueError from either, a malformed file or a wrong key, shape or
    value, is raised again with the path in front; an OSError already
    names the path and passes as it is.
    """
    try:
        return parse(read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def json_text(payload) -> str:
    """``payload`` as indented JSON text ending in a newline.

    The text is exactly ``json.dumps(payload, indent=1, allow_nan=False)``
    plus a newline: ASCII-escaped, one space per level.  Any ``indent`` makes
    the stdlib fall back to its pure-Python encoder, so ``_indented`` writes
    the same bytes with most of the work in the C encoder.  A non-finite
    float is a ValueError: JSON has no ``Infinity`` or ``NaN``.
    """
    try:
        return _indented(payload, 0) + "\n"
    except (ValueError, TypeError, RecursionError):
        # the stdlib's own answer: it names a non-finite value, which the C
        # encoder's message does not, it writes a dict key that is not a str,
        # which the plain join refuses, and it detects a cycle, which
        # _indented recurses into
        return json.dumps(payload, indent=1, allow_nan=False) + "\n"


# exact types the C encoder writes as one token, as the indenting encoder does
_SCALARS = frozenset({str, int, float, bool, type(None)})


@lru_cache(maxsize=None)
def _encoder(indent: int):
    """The C encoder's ``encode``, items separated by a newline and ``indent`` spaces."""
    return json.JSONEncoder(separators=(",\n" + " " * indent, ": "), allow_nan=False).encode


def _indented(node, depth: int) -> str:
    """``json.dumps(node, indent=1)`` for a ``node`` nested ``depth`` levels deep.

    A container of exact scalars is one C encoder call, and so is a list of
    non-empty flat containers of one kind (the dataset records, the rows of
    a matrix); any other container is written child by child, where a dict
    key that is not a str is a TypeError.
    """
    is_dict = isinstance(node, dict)
    if not (is_dict or isinstance(node, (list, tuple))) or not node:
        return _encoder(0)(node)   # a scalar, "{}" or "[]"
    pad, inner = "\n" + " " * depth, "\n" + " " * (depth + 1)
    values = node.values() if is_dict else node
    if _SCALARS.issuperset(map(type, values)):
        body = _encoder(depth + 1)(node)[1:-1]
    elif not is_dict and _flat_children(node):
        # one call with the grandchildren's separator, then a newline and indent
        # at each child boundary: a bracket, that separator and a bracket, which
        # the encoder writes nowhere else (it escapes newlines in strings, and
        # no scalar ends in a bracket)
        text = _encoder(depth + 2)(node)
        start, end, leaf = text[1], text[-2], inner + " "
        body = text[2:-2].replace(f"{end},{leaf}{start}", f"{inner}{end},{inner}{start}{leaf}")
        return f"[{inner}{start}{leaf}{body}{inner}{end}{pad}]"
    else:
        children = [_indented(value, depth + 1) for value in values]
        if is_dict:
            # the depth-0 encoder's str path: a key that is not a str is a TypeError
            key = json.encoder.encode_basestring_ascii
            children = [f"{key(k)}: {child}" for k, child in zip(node, children)]
        body = ("," + inner).join(children)
    start, end = "{}" if is_dict else "[]"
    return f"{start}{inner}{body}{pad}{end}"


def _flat_children(node) -> bool:
    """Whether the list ``node`` holds only non-empty flat dicts or only non-empty flat lists."""
    kinds = set(map(type, node))
    if not (kinds == {dict} or kinds <= {list, tuple}) or not all(node):
        return False
    children = map(dict.values, node) if kinds == {dict} else node
    return _SCALARS.issuperset(map(type, itertools.chain.from_iterable(children)))


def write_json(payload, path) -> None:
    """``write_text(json_text(payload), path)``.

    The text is encoded before the file is opened, so a payload that cannot
    be encoded leaves an existing file untouched.
    """
    write_text(json_text(payload), path)


def write_text(text: str, path) -> None:
    """Write ``text`` to ``path``, overwriting it in place: the one writer of output files.

    The file is opened without ``O_TRUNC`` and written from offset 0, then
    trimmed to the new length when it is a regular file (``/dev/null`` and
    FIFOs are never trimmed): truncating to zero first would make ext4 and
    XFS flush the file on close.  Symlinks and hard links are written
    through; a new file gets mode ``0o666 & ~umask``.  Not atomic, as
    truncating first was not: that could leave an empty or short file, this
    can leave new bytes followed by old ones.  Killed between the write and
    the trim, the file holds the whole new text and then the old file's
    tail, which ``read_json`` refuses as extra data (a tail that is a lone
    newline reads as the new payload).
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
        dim = blob["dim"]
        re = np.asarray(blob["re"], dtype=float)
        im = np.asarray(blob["im"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"matrix JSON lacks key {exc}") from None
    except (TypeError, OverflowError):
        raise ValueError("matrix JSON entries must be numbers") from None
    if dim != 8:   # no JSON value but the numbers 8 and 8.0 equals 8
        raise ValueError(f"matrix JSON dim {dim!r} must be 8: the register's operators are 8x8")
    if re.shape != (8, 8) or im.shape != (8, 8):
        raise ValueError("matrix JSON shape does not match declared dim")
    # NumPy reads "0.125" and false as numbers: the entries' own types decide
    if not _NUMBERS.issuperset(map(type, itertools.chain(*blob["re"], *blob["im"]))):
        raise ValueError("matrix JSON entries must be numbers")
    return check_operator(re + 1j * im)
