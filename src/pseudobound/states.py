"""Three-qubit bound-entangled state family and the pseudo-state embedding.

The family is diagonal except for a single GHZ coherence between |000> and
|111>: an X state.  ``PAIRS`` states its population layout once, for
``bound_entangled_state`` and the witness that ``witnesses.witness_bar``
matches to it.  All members are PPT across every bipartite cut yet entangled
whenever the product of the three parameters differs from one.  Room
temperature NMR only reaches a highly mixed neighbourhood of the identity,
hence the pseudo-state form (1-p)/8 * Id + p * rho with tiny p: the
embedding E_p of ``core.mix_with_identity``, which the peel inverts as E_{1/p}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityOperator, mix_with_identity

PRODUCT_ONE_TOLERANCE = 1e-12
# the symmetric working point found by witness optimization; it sits 1.43e-5 below
# a* = (1 + sqrt5 - sqrt(2 + 2 sqrt5))/2 = 0.3460143392, the root of a + 1/a = 1 + sqrt5
A_OPT = 0.3460
PARAM_RANGE = (1e-150, 1e150)
# for each a_i, the basis index of the population a_i and that of 1/a_i; |000> and
# |111> hold 1, and every other index holds exactly one of the six
PAIRS = ((1, 6), (2, 5), (4, 3))


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

    Populations are (1, a1, a2, 1/a3, a3, 1/a2, 1/a1, 1)/N, laid out by
    ``PAIRS``, with N = 2 + sum(a_i + 1/a_i); the only coherence is the GHZ
    corner 1/N at (|000>, |111>).
    """
    m = np.eye(8)
    for (i, j), a in zip(PAIRS, params.as_tuple()):
        m[i, i], m[j, j] = a, 1.0 / a
    m[0, 7] = m[7, 0] = 1.0
    return DensityOperator((m / params.normalization).astype(complex))


def pseudo_state(rho_be: DensityOperator, p: float) -> DensityOperator:
    """Embed a state into the maximally mixed background with weight p: E_p(rho)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing fraction p={p} outside [0, 1]")
    return DensityOperator(mix_with_identity(rho_be, p))


def _peel_weight(p: float, what: str) -> float:
    """1/p, the weight of E_{1/p}; any p outside (0, 1] or with 1/p infinite is refused by name."""
    p = float(p)   # a Python float divides to inf without a warning
    if p == 0.0:
        raise ValueError(f"{what} is undefined at p = 0 (no deviation to rescale)")
    if not (0.0 < p <= 1.0 and np.isfinite(1.0 / p)):
        raise ValueError(f"{what} needs p in (0, 1] with a finite 1/p, got p={p!r}")
    return 1.0 / p


def peel_matrix(matrix, p: float) -> DensityOperator:
    """The one peel, E_{1/p}: invert the embedding of a matrix, e.g. an estimate, with known p.

    It adds about 1e-17/p of rounding per entry.  A non-positive result raises
    no error or warning; ``eigenvalues()[0]`` shows it.  A trace or Hermiticity
    defect is the input's rounding amplified by 1/p: ValueError.
    """
    t = _peel_weight(p, "peeling")
    rho = DensityOperator.loose(matrix)
    try:
        return DensityOperator.loose(mix_with_identity(rho, t))
    except ValueError as exc:
        raise ValueError(f"peeling at p={p:g} amplifies the rounding of the input "
                         f"state by 1/p = {t:.3g}: {exc}") from None
