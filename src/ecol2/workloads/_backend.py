"""Kernel backend selection.

The compiled extension is preferred when importable; ECOL2_BACKEND forces
the choice ("compiled" or "python").  Forcing "compiled" on a build
without the extension is an error rather than a silent fallback.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np

from . import _kernels_py

_KERNELS = (
    "spectral_evolve", "to_physical", "from_physical", "advection_upwind",
    "advection_lax_wendroff", "wave_leapfrog", "reaction_rk4",
)


def _rowwise(module) -> SimpleNamespace:
    """The compiled kernels, with spectral_evolve also taking a (count, n) stack.

    The extension steps one 1-D state; a stack is stepped row by row.
    """
    evolve = module.spectral_evolve

    def spectral_evolve(v, e_half, e_full, g, nsub):
        if np.ndim(v) == 1:
            return evolve(v, e_half, e_full, g, nsub)
        rows = zip(*np.broadcast_arrays(v, e_half, e_full, g))
        return np.stack([evolve(*row, nsub) for row in rows])

    adapted = SimpleNamespace(**{name: getattr(module, name) for name in _KERNELS})
    adapted.spectral_evolve = spectral_evolve
    return adapted


try:
    from . import _kernels
except ImportError:
    _compiled = None
else:
    _compiled = _rowwise(_kernels)

_requested = os.environ.get("ECOL2_BACKEND")

if _requested in (None, ""):
    kernels = _compiled if _compiled is not None else _kernels_py
elif _requested == "python":
    kernels = _kernels_py
elif _requested == "compiled":
    if _compiled is None:
        raise ImportError(
            "ECOL2_BACKEND=compiled but the compiled kernels are not built"
        )
    kernels = _compiled
else:
    raise ImportError(
        f"ECOL2_BACKEND must be 'compiled' or 'python', got {_requested!r}"
    )

BACKEND = "python" if kernels is _kernels_py else "compiled"


def available_backends() -> dict:
    """Importable kernel modules by name (for equivalence tests, benchmarks)."""
    out = {"python": _kernels_py}
    if _compiled is not None:
        out["compiled"] = _compiled
    return out
