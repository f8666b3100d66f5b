"""Discrete exterior calculus: simplicial meshes, dual meshes, Whitney and
Sibson interpolation, three discrete Hodge stars, and mixed solvers."""

from .mesh import (
    SimplicialComplex,
    DualMesh,
    build_complex,
    build_dual,
    load_mesh,
    save_mesh,
    quality_report,
)
from .whitney import interpolate, whitney_gram_matrix
from .sibson import DualInterpolation, SibsonCell
from .hodge import (
    HodgeOperator,
    assemble_diag,
    assemble_whitney,
    assemble_dual_inverse,
    hodge_pair,
    condition_estimate,
    sparsity_audit,
    table1_experiment,
)
from .systems import (
    MixedSystem,
    assemble_magnetostatics,
    assemble_darcy,
    assemble_wave,
    solve,
    cross_validate,
)

__all__ = [
    "SimplicialComplex", "DualMesh", "build_complex", "build_dual",
    "load_mesh", "save_mesh", "quality_report",
    "interpolate", "whitney_gram_matrix",
    "DualInterpolation", "SibsonCell",
    "HodgeOperator", "assemble_diag", "assemble_whitney",
    "assemble_dual_inverse", "hodge_pair", "condition_estimate",
    "sparsity_audit", "table1_experiment",
    "MixedSystem", "assemble_magnetostatics", "assemble_darcy",
    "assemble_wave", "solve", "cross_validate",
]

__version__ = "0.1.0"
