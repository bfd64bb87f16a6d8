"""Online sparse CP decomposition.

Each incoming tensor is a FiberSample, its non-zero mode-1 fibers and
their indices. The pipeline per sample: recover the fibers' sparse codes
by hard-thresholded gradient steps, split each code row into its two
paired factors via a rank-1 SVD of its non-zero block, then take one
approximate-gradient step on the dictionary. `run_online` drives the
whole loop; the submodules expose every stage separately. The package
re-exports each library module's `__all__`, the one place a public name
is stated; `sparsecp.cli` is only the entry point and is not imported.
"""

from . import dict_update, linalg, metrics, runner, sparse_coding, synth, tensor_core, tensorio, untangle
from .dict_update import *
from .linalg import *
from .metrics import *
from .runner import *
from .sparse_coding import *
from .synth import *
from .tensor_core import *
from .tensorio import *
from .untangle import *

__version__ = "0.1.0"

_MODULES = (dict_update, linalg, metrics, runner, sparse_coding, synth, tensor_core, tensorio, untangle)
__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
