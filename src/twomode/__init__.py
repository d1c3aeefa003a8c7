r"""Two-mode Gaussian correlation matrices: physicality, separability, normal forms.

Decide whether a real symmetric 4x4 matrix is a bona fide quantum
correlation matrix of two bosonic modes, classify bona fide matrices as
separable or entangled Gaussian CMs, and construct the symplectic normal
forms (two-mode standard form and the Williamson decomposition) that make
those decisions transparent.

Conventions: hbar-scaled quadratures ordered mode by mode as
(q1, p1, q2, p2), so the vacuum CM is the identity and the symplectic form
is Omega = omega (+) omega with omega = [[0, 1], [-1, 0]].
"""
from . import errors, families, invariants, physicality, separability, standard_form, symplectic
from . import williamson
from .errors import *  # noqa: F403
from .families import *  # noqa: F403
from .invariants import *  # noqa: F403
from .physicality import *  # noqa: F403
from .separability import *  # noqa: F403
from .standard_form import *  # noqa: F403
from .symplectic import *  # noqa: F403
from .williamson import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (symplectic, invariants, physicality, separability, standard_form, williamson,
                families, errors):
    __all__ += _module.__all__
del _module
