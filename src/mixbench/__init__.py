"""Exact simulation of two-path interference in pair scattering.

Three independent routes to the same total scattering amplitude:

- first-quantized enumeration over (anti)symmetrized product terms
  (``states`` + ``engine``),
- a second-quantized ladder-operator evaluation in the occupation basis
  (``oracle``),
- published closed forms with their counting identities (``formulas``).

The ``cli`` module cross-checks the three and reports any disagreement.
The package re-exports each library module's public names, its ``__all__``.
"""

from . import amplitudes, engine, formulas, oracle, states
from .amplitudes import *  # noqa: F403
from .engine import *  # noqa: F403
from .formulas import *  # noqa: F403
from .oracle import *  # noqa: F403
from .states import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *amplitudes.__all__,
    *engine.__all__,
    *formulas.__all__,
    *oracle.__all__,
    *states.__all__,
    "__version__",
]
