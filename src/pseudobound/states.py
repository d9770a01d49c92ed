"""Three-qubit bound-entangled state family and the pseudo-state embedding.

The family is diagonal except for a single GHZ coherence between |000> and
|111>.  All members are PPT across every bipartite cut yet entangled
whenever the product of the three parameters differs from one.  Room
temperature NMR only reaches a highly mixed neighbourhood of the identity,
hence the pseudo-state form (1-p)/8 * Id + p * rho with tiny p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityOperator

PRODUCT_ONE_TOLERANCE = 1e-12
A_OPT = 0.3460   # the symmetric working point, found by witness optimization
PARAM_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class StateParams:
    """Parameter triple (a1, a2, a3) of the state family, each within ``PARAM_RANGE``.

    The range keeps a, 1/a and a^2 finite normal floats, so that the state,
    its normalization and the witness can be formed.
    """

    a1: float
    a2: float
    a3: float

    def __post_init__(self):
        lo, hi = PARAM_RANGE
        if not all(lo <= a <= hi for a in self.as_tuple()):
            raise ValueError(f"state parameters a1, a2, a3 must lie within [{lo:g}, {hi:g}], "
                             f"got {self.as_tuple()}")

    @classmethod
    def symmetric(cls, a: float) -> "StateParams":
        return cls(a, a, a)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)

    @property
    def entangled_regime(self) -> bool:
        """True unless a1*a2*a3 = 1, the separable boundary of the family."""
        return abs(self.a1 * self.a2 * self.a3 - 1.0) > PRODUCT_ONE_TOLERANCE

    @property
    def normalization(self) -> float:
        return 2.0 + sum(a + 1.0 / a for a in self.as_tuple())

    @property
    def is_symmetric(self) -> bool:
        return abs(self.a1 - self.a2) < 1e-12 and abs(self.a2 - self.a3) < 1e-12


def ghz(sign: int = +1) -> np.ndarray:
    """(|000> + sign |111>)/sqrt(2) as an 8-vector."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    v[7] = float(sign)
    return v / np.sqrt(2.0)


def bound_entangled_state(params: StateParams) -> DensityOperator:
    """The PPT-entangled family member for the given parameter triple.

    Populations are (1, a1, a2, 1/a3, a3, 1/a2, 1/a1, 1)/N with
    N = 2 + sum(a_i + 1/a_i); the only coherence is the GHZ corner 1/N at
    (|000>, |111>).
    """
    a1, a2, a3 = params.as_tuple()
    n = params.normalization
    diag = np.array([1.0, a1, a2, 1.0 / a3, a3, 1.0 / a2, 1.0 / a1, 1.0]) / n
    m = np.diag(diag.astype(complex))
    m[0, 7] = 1.0 / n
    m[7, 0] = 1.0 / n
    return DensityOperator(m)


@dataclass(frozen=True)
class PseudoState:
    """Mixture (1-p)/8 * Id + p * rho_deviation, the NMR-accessible form."""

    rho: DensityOperator
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing fraction p={self.p} outside [0, 1]")


def pseudo_state(rho_be: DensityOperator, p: float) -> PseudoState:
    """Embed a state into the maximally mixed background with weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing fraction p={p} outside [0, 1]")
    m = (1.0 - p) / 8 * np.eye(8, dtype=complex) + p * rho_be.matrix
    return PseudoState(DensityOperator(m, tolerance=rho_be.tolerance), p)


def peel_identity(ps: PseudoState) -> DensityOperator:
    """Invert the pseudo-state embedding: (rho - (1-p)/8 * Id) / p.

    Exact inputs round-trip to machine precision.  Reconstructed inputs may
    come out slightly non-positive; that is reported as a warning (and the
    wrapper tolerance widened), not an error.  A trace or Hermiticity
    defect is the validated input's rounding amplified by 1/p: ValueError.
    """
    if ps.p <= 0.0:
        raise ValueError("peeling is undefined at p = 0 (no deviation to rescale)")
    m = (ps.rho.matrix - (1.0 - ps.p) / 8 * np.eye(8)) / ps.p
    try:
        return DensityOperator.loose(m, context="peeled state")
    except ValueError as exc:
        raise ValueError(f"peeling at p={ps.p:g} amplifies the rounding of the input "
                         f"state by 1/p = {1.0 / ps.p:.3g}: {exc}") from None


def peel_matrix(matrix, p: float) -> DensityOperator:
    """Peel a raw matrix (e.g. a tomographic estimate) with known p."""
    rho = DensityOperator.loose(matrix)
    return peel_identity(PseudoState(rho, p))
