"""Kicked-top dynamics toolkit.

Classical stroboscopic map on the unit sphere, tangent-space Lyapunov
estimation, a bipartite classical limit, the quantum Floquet map for a
spin-j top, a k-nearest-neighbour mutual information estimator, and the
experiment runners that tie them together.
"""

from . import bipartite, classical, experiments, lyapunov, mutual_info, quantum
from .bipartite import *  # noqa: F403
from .classical import *  # noqa: F403
from .experiments import *  # noqa: F403
from .lyapunov import *  # noqa: F403
from .mutual_info import *  # noqa: F403
from .quantum import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one declaration of what it publishes
__all__ = [
    *bipartite.__all__,
    *classical.__all__,
    *experiments.__all__,
    *lyapunov.__all__,
    *mutual_info.__all__,
    *quantum.__all__,
    "__version__",
]
