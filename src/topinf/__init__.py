"""Inference of parametric reduced-order operators from trajectory data.

The package learns the operator tensor of a linear parametric system

    d/dt xhat(t; mu) = (T nu(mu)) xhat(t; mu),    T in R^{r x r x p},

from reduced trajectory snapshots and their time derivatives, by solving
the regression problem over all parameter samples at once.  Three solvers
are provided (explicit normal equations, stacked least squares, and an
equality-constrained variant that returns exactly symmetric operator
slices), together with the surrounding machinery to run full studies:
finite-element benchmark models (a diffusion problem and a canonical wave
problem), mass-weighted and symplectic block bases, an energy-preserving
Cayley-map time integrator, error and energy-drift metrics, a binary
artifact format, and a five-stage experiment pipeline with a CLI.
"""

__version__ = "0.1.0"

from .errors import *
from .tensors import *
from .linalg import *
from .heat import *
from .wave import *
from .basis import *
from .inference import *
from .rom import *
from .metrics import *
from .storage import *
from .config import *
from .pipeline import *
from . import (basis, config, errors, heat, inference, linalg, metrics, pipeline, rom, storage,
               tensors, wave)

__all__ = ["__version__"] + [
    name
    for module in (errors, tensors, linalg, heat, wave, basis, inference, rom, metrics, storage,
                   config, pipeline)
    for name in module.__all__
]
