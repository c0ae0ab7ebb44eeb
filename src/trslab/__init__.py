"""Krylov trust-region subproblem solver and convergence-bound laboratory."""

from .gltr import GltrResult, gltr_solve
from .lanczos import LanczosFactorization, extend_lanczos, lanczos_run
from .linalg import SymmetricLinearOperator, SymmetricTridiagonal
from .trs import TrsSolution, check_kkt, solve_trs_dense, solve_trs_tridiagonal

__all__ = [
    "GltrResult",
    "LanczosFactorization",
    "SymmetricLinearOperator",
    "SymmetricTridiagonal",
    "TrsSolution",
    "check_kkt",
    "extend_lanczos",
    "gltr_solve",
    "lanczos_run",
    "solve_trs_dense",
    "solve_trs_tridiagonal",
]

__version__ = "0.1.0"
