"""Carbon-aware accuracy score and field error metrics.

The score divides an accuracy term, a saturating transform of the relative
L2 error, by a cost term built from lifecycle emissions.  Both halves are
dimensionless; emissions enter in kgCO2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, MetricError, ParameterError, shown

# Accuracy weights in [ALPHA_LO, ALPHA_HI] keep the score inside (0, 1)
# for r < 0.1; values outside are legal but flagged.
ALPHA_LO = 10.0
ALPHA_HI = 1000.0

# Relative errors at or above this are reported but flagged inaccurate.
INACCURACY_THRESHOLD = 0.1


@dataclass(frozen=True)
class EcoL2Params:
    """Score weights.

    alpha : accuracy emphasis, > 1 (log base of the error transform)
    beta  : carbon emphasis, >= 0 (0 scores the numerator alone)
    n_infer : number of inference passes the consumer will run, >= 0
    """

    alpha: float = 100.0
    beta: float = 100.0
    n_infer: int = 1

    def __post_init__(self):
        alpha = _finite_real(self.alpha, "alpha", ParameterError)
        if alpha == 1.0:
            raise ParameterError("alpha == 1 makes the error transform singular")
        if not alpha > 1.0:
            raise ParameterError(f"alpha must be > 1, got {alpha}")
        if not _finite_real(self.beta, "beta", ParameterError) >= 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")
        if not (
            isinstance(self.n_infer, int)
            and not isinstance(self.n_infer, bool)
            and self.n_infer >= 0
        ):
            raise ParameterError(f"n_infer must be an integer >= 0, got {self.n_infer}")

    @property
    def alpha_in_calibrated_range(self) -> bool:
        return ALPHA_LO <= self.alpha <= ALPHA_HI


@dataclass(frozen=True)
class CarbonLedger:
    """Lifecycle emissions in kgCO2: c_<stage> per tracking.STAGES entry, in order.

    c_inference is the per-run cost; total() scales it by the number of
    inference passes.
    """

    c_embodied: float = 0.0
    c_developmental: float = 0.0
    c_operational: float = 0.0
    c_inference: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not _finite_real(v, f.name, ParameterError) >= 0:
                raise ParameterError(f"{f.name} must be finite and >= 0, got {v}")

    def total(self, n_infer: int = 1) -> float:
        return (
            self.c_embodied
            + self.c_developmental
            + self.c_operational
            + self.c_inference * n_infer
        )


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics of a prediction against a reference field.

    relative_l2 is None when the reference has zero norm (undefined).
    """

    relative_l2: float | None
    rmse: float
    max_error: float
    mae: float


@dataclass(frozen=True)
class EcoL2Score:
    """Score value with its two factors and any diagnostic flags."""

    value: float
    numerator: float
    denominator: float
    inaccurate: bool
    warnings: tuple[str, ...] = field(default=())


def _finite_real(x, name: str = "r", error: type = DomainError) -> float:
    """x as a float, if it is a finite real number (numpy scalars too, bool
    not); an int beyond the float range is not one."""
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x):
            return float(x)
    except OverflowError:  # math.isfinite converts to float first
        pass
    raise error(f"{name} must be a finite number, got {shown(x)}")


def ecol2_numerator(r: float, alpha: float) -> float:
    """Accuracy term 1 - exp(log_alpha r) for r in (0, 1).

    Equals 1 - r**(1/ln alpha) by change of base.
    """
    r = _finite_real(r)
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in (0, 1), got {r}")
    alpha = _finite_real(alpha, "alpha", ParameterError)
    if not alpha > 1.0:
        # alpha <= 1 flips or degenerates the log base and the term leaves (0, 1)
        raise ParameterError(f"alpha must be > 1 (log base), got {alpha}")
    return 1.0 - math.exp(math.log(r) / math.log(alpha))


def ecol2(
    r: float,
    carbon: CarbonLedger,
    params: EcoL2Params | None = None,
) -> EcoL2Score:
    """Score a solver run from its relative L2 error and carbon ledger.

    r == 0 exactly (a bitwise-perfect prediction) is clamped to machine
    epsilon and flagged rather than rejected; r >= 1 or r < 0 raise.
    """
    params = params or EcoL2Params()
    r = _finite_real(r)
    warnings: list[str] = []
    if r == 0.0:
        r = sys.float_info.epsilon
        warnings.append("r=0 clamped to machine epsilon")
    if not 0.0 < r < 1.0:
        raise DomainError(f"r must lie in [0, 1), got {r}")
    if not params.alpha_in_calibrated_range:
        warnings.append(
            f"alpha={params.alpha:g} outside calibrated range "
            f"[{ALPHA_LO:g}, {ALPHA_HI:g}]; bounds in (0, 1) not guaranteed"
        )
    total = carbon.total(params.n_infer)
    if total == 0.0:
        warnings.append("zero total carbon; score degenerates to its numerator")
    elif params.beta == 0.0:
        warnings.append("beta=0 ignores carbon; score degenerates to its numerator")
    numerator = ecol2_numerator(r, params.alpha)
    denominator = 1.0 + params.beta * total
    return EcoL2Score(
        value=numerator / denominator,
        numerator=numerator,
        denominator=denominator,
        inaccurate=r >= INACCURACY_THRESHOLD,
        warnings=tuple(warnings),
    )


def error_metrics(prediction, reference) -> ErrorReport:
    """Field error metrics of a prediction against a reference of the same shape.

    Runs are averaged before this, by import_field_csv.
    """
    pred = np.asarray(prediction, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if pred.shape != ref.shape:
        raise MetricError(
            f"prediction shape {pred.shape} does not match reference {ref.shape}"
        )
    if pred.size == 0:
        raise MetricError("empty fields")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(ref))):
        raise MetricError("fields must be finite")
    diff = (pred - ref).ravel()
    n = diff.size
    diff_norm = float(np.linalg.norm(diff))
    ref_norm = float(np.linalg.norm(ref.ravel()))
    return ErrorReport(
        relative_l2=diff_norm / ref_norm if ref_norm > 0 else None,
        rmse=diff_norm / math.sqrt(n),
        max_error=float(np.max(np.abs(diff))),
        mae=float(np.mean(np.abs(diff))),
    )
