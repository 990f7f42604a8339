from .datasets import (
    InitialConditionSpec,
    generate_dataset,
    generate_initial_condition,
)
from .finite_difference import analytic_advection, analytic_reaction, analytic_wave, fd_solve
from .grids import FieldSolution, Grid1D, default_grid, fourier_resample
from .pipeline import WORKLOADS, PipelineResult, run_pipeline
from .spectral import spectral_solve, spectral_solve_batch
from ._backend import BACKEND

__all__ = [
    "BACKEND",
    "FieldSolution",
    "Grid1D",
    "InitialConditionSpec",
    "PipelineResult",
    "WORKLOADS",
    "analytic_advection",
    "analytic_reaction",
    "analytic_wave",
    "default_grid",
    "fd_solve",
    "fourier_resample",
    "generate_dataset",
    "generate_initial_condition",
    "run_pipeline",
    "spectral_solve",
    "spectral_solve_batch",
]
