"""Quasi-periodic Maxwell scattering by a bi-periodic layer on a conducting plate.

Library layout:

- :mod:`gratescat.lattice`       mode lattice, quasimomentum, q's Fourier coefficients
- :mod:`gratescat.greens`        quasi-periodic Green's function, dipole-sheet incidence
- :mod:`gratescat.rayleigh_dtn`  Rayleigh sequences, transparent-boundary operator
- :mod:`gratescat.forward`       layer solver, boundary map, scattering solve
- :mod:`gratescat.sturm`         quasi-periodic Sturm-Liouville eigensystem
- :mod:`gratescat.separable`     transverse factors and overlap kernels of separable fields
- :mod:`gratescat.inverse`       reciprocity-gap identity, moments, reconstruction
- :mod:`gratescat.cli`           batch front-end (``gratescat`` command)
- :mod:`gratescat.tables`        the artifact format of every CSV table and summary
"""

from . import errors
from .lattice import ModeSet, Quasimomentum, TrigPoly, build_modeset
from .rayleigh_dtn import (RayleighField, TangentialField, apply_R, efficiencies,
                           energy_forms, inner)
from .greens import (DipoleDensity, PlaneWaveIncidence, green_eval, helmholtz_residual,
                     incident_from_density)
from .forward import (LayerField, MediumProfile, ModalBasis, Slab, assemble_dtn,
                      solve_layer_modes, solve_qpbvp, solve_scattering)
from .sturm import SLProblem, SLSpectrum, check_asymptotics, solve_sl
from .separable import TransverseFactor, build_u, moment_kernels
from .inverse import (MomentTable, ReconstructionResult, extract_moments, reciprocity_gap,
                      reconstruct_difference)

__version__ = "0.1.0"
