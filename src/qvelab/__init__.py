"""qvelab: numerical laboratory for sparse Wigner matrices and kernel spectra.

Subpackages
-----------
kernels    step kernels, cut norm, cut distance
qve        quadratic vector equation solver and Stieltjes inversion
trees      rooted planar trees, homomorphism densities, moments
rates      cumulant / Legendre machinery, entropy, tilting exponents
ensembles  sparse Wigner sampling, tilting, spectra, resolvent identities
measures   1-D probability measures and the three spectral metrics
suites     randomized identity / inequality verification suites
cli        batch front-end (``qvelab`` entry point)
"""

from . import ensembles, kernels, measures, qve, rates, suites, trees  # noqa: F401

__version__ = "0.1.0"
