"""The kernel module and the name of its backend.

The numpy kernels of _kernels_py are the only backend.  `kernels` and
`BACKEND` stay importable here for code that resolves them by name, and
BACKEND fills the `backend` column of bench output.
"""

from . import _kernels_py as kernels

BACKEND = "python"
