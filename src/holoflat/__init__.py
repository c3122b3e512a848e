"""Holomorphic quantization on flat manifolds via tangent-space Gaussian
integration: reproducing-kernel Hilbert spaces of holomorphic functions,
Gauss-Hermite quadrature, ladder operators, and path-integral propagators,
implemented and validated on the circle."""

__version__ = "0.1.0"

from . import cylinder, errors, hilbert, operators, propagator, quadrature, validation
from .errors import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .hilbert import *  # noqa: F401,F403
from .cylinder import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .propagator import *  # noqa: F401,F403
from .validation import *  # noqa: F401,F403

# Each module's __all__ is the one declaration of its public names.
_MODULES = (errors, quadrature, hilbert, cylinder, operators, propagator, validation)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
