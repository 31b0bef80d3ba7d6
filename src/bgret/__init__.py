"""Fourier phase retrieval with known background information.

Core model: a real sample X on a known support, surrounded by a known random
background Y, observed only through the Fourier intensities of the combined
object. The package provides the forward model, the PGD/BDR/BDR1/CBDR/HIO
solvers, the constructive uniqueness / stability / robustness machinery built
on non-overlapping autocorrelation shifts, partial-circulant isometry checks,
and a reproducible experiment harness with a CLI front end.
"""

__version__ = "0.1.0"

from .model import (IntensityMeasurements, Method, SolverConfig, SolverRun, SupportMask,
                    assemble)

__all__ = [
    "__version__",
    "IntensityMeasurements", "Method", "SolverConfig", "SolverRun", "SupportMask",
    "assemble",
]
