"""Seeded output of every workload against its pinned digests.

The pinned copy, tests/data/seeded_outputs.json, is written by
tests/seeded_outputs.py, which says what it holds and how to regenerate
it.  On the numpy version that wrote it everything must match exactly.
On another version only what follows from integer work is compared
exactly: exit codes, the emission records and `score --r` output.  r and
ecol2 are compared to a relative 1e-9, and a warning names both versions
for the digests left uncompared.
"""

import json
import math
import warnings

import numpy as np

from seeded_outputs import PINNED, collect

# np.sin, np.exp and pocketfft may round differently under another numpy
# build; the masked-row rounding change moved ks r by 2.1e-13 relative
PORTABLE_RTOL = 1e-9


def _digests(run: dict, exact: bool) -> dict:
    """The run's digests that are compared: all of them, or (exact=False)
    those independent of the numpy build."""
    out = {f"records/{k}": v for k, v in run["records"].items()}
    for command, result in run["commands"].items():
        out[f"{command}/exit"] = result["exit"]
        if exact or command == "score":
            out[f"{command}/stdout"] = result["stdout"]
            out[f"{command}/stderr"] = result["stderr"]
    if exact:
        out.update({f"files/{k}": v for k, v in run["files"].items()})
    return out


def test_seeded_output_matches_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    fresh = collect(tmp_path)
    assert sorted(fresh["runs"]) == sorted(pinned["runs"])
    same_numpy = fresh["numpy"] == pinned["numpy"]
    if not same_numpy:
        warnings.warn(
            f"numpy {np.__version__} is installed but {PINNED.name} was written "
            f"under numpy {pinned['numpy']}: stdout and stderr of bench, regions "
            f"and report, run.json and the dataset files are not compared, and r "
            f"and ecol2 only to a relative {PORTABLE_RTOL:g}"
        )
    moved = []
    for name, want in pinned["runs"].items():
        got = fresh["runs"][name]
        for key in ("r", "ecol2"):
            if same_numpy:
                close = got[key] == want[key]
            else:
                close = math.isclose(got[key], want[key], rel_tol=PORTABLE_RTOL)
            if not close:
                moved.append(f"{name} {key}: {want[key]!r} -> {got[key]!r}")
        got_d, want_d = _digests(got, same_numpy), _digests(want, same_numpy)
        for key in sorted(set(got_d) | set(want_d)):
            if got_d.get(key) != want_d.get(key):
                moved.append(f"{name} {key}: {want_d.get(key)} -> {got_d.get(key)}")
    assert not moved, "seeded output moved:\n" + "\n".join(moved)
