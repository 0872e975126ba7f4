"""Generalized information functionals over finite Markov dynamics.

The package groups into five layers: chains and their evolution
(`markov`), convex functions and perspectives (`convexity`), information
functionals (`measures`), monotonicity traces and verdicts
(`monotonicity`), and the worked distortion-bound example (`bounds`).
File formats live in `io`, the command line in `cli`.  Each module's
`__all__` is its public list; the package re-exports exactly those names.
"""

from .errors import *  # noqa: F401,F403
from .markov import *  # noqa: F401,F403
from .convexity import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .monotonicity import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403

__version__ = "0.1.0"
