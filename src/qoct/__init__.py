"""Quantum optimal control toolkit for finite-dimensional systems.

Solves the coupled state/costate equations of expectation-value control
with exact-exponential stepping, supports both the discontinuous
(canonical) and continuous costate boundary regimes, provides an
analytically exact discrete field gradient with a finite-difference
oracle, and optimizes pulses by L-BFGS on that gradient, started on
two-level systems by one immediate-feedback sweep.

Each module's ``__all__`` names its public API; the package re-exports
those names and nothing else.
"""

from . import analysis, core, functional, gradient, optimizer, propagator
from .analysis import *  # noqa: F403
from .core import *  # noqa: F403
from .functional import *  # noqa: F403
from .gradient import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .propagator import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *core.__all__,
    *functional.__all__,
    *gradient.__all__,
    *optimizer.__all__,
    *propagator.__all__,
]
