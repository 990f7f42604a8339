"""Carbon-aware evaluation of computational solvers.

Scores a solver run by dividing a saturating accuracy term (from the
relative L2 error) by one plus the weighted lifecycle emissions, tracks
those emissions per stage, persists them as an append-only record store,
and ships five PDE benchmark workloads to exercise the whole pipeline.
"""

from .errors import (
    DomainError,
    Ecol2Error,
    IngestError,
    LedgerError,
    MetricError,
    ParameterError,
    RegionError,
    SolverError,
    TrackingError,
    ValidationError,
)
from .ingest import import_emissions_csv, import_field_csv
from .ledger import LedgerStore, aggregate, summarize
from .metrics import (
    CarbonLedger,
    EcoL2Params,
    EcoL2Score,
    ErrorReport,
    ecol2,
    ecol2_numerator,
    error_metrics,
)
from .regions import RegionRegistry, default_registry
from .tracking import (
    EmissionRecord,
    PowerModel,
    VirtualClock,
    start_session,
    stop_session,
    what_if_region,
)

__version__ = "0.1.0"

__all__ = [
    "CarbonLedger",
    "DomainError",
    "EcoL2Params",
    "EcoL2Score",
    "Ecol2Error",
    "EmissionRecord",
    "ErrorReport",
    "IngestError",
    "LedgerError",
    "LedgerStore",
    "MetricError",
    "ParameterError",
    "PowerModel",
    "RegionError",
    "RegionRegistry",
    "SolverError",
    "TrackingError",
    "ValidationError",
    "VirtualClock",
    "aggregate",
    "default_registry",
    "ecol2",
    "ecol2_numerator",
    "error_metrics",
    "import_emissions_csv",
    "import_field_csv",
    "start_session",
    "stop_session",
    "summarize",
    "what_if_region",
    "__version__",
]
