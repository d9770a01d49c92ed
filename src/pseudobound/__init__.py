"""Pseudo bound entanglement toolkit for a three-qubit NMR register.

Construction and PPT certification of a bound-entangled state family,
witness evaluation and optimization, simulation of the NMR preparation
pipeline (temporal averaging plus a fixed gate sequence), least-squares
state tomography with error propagation, and state-comparison metrics.

Each public name lives in one module and is imported from it:
``from pseudobound import core`` and then ``core.is_ppt``.
"""

__version__ = "0.1.0"
