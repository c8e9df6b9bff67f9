"""Sketching- and sampling-based robust subspace approximation.

Rank-k fitting of point sets under |x|^p and robust (Huber, L1-L2, Fair)
losses, with leverage-score row sampling, sparse right sketches, residual
sampling, end-to-end (1+eps) pipelines, robust regression, an SVD
baseline, and a clique-gadget instance generator for verification.
"""

from .core import (
    LossSpec,
    Subspace,
    entrywise_norm_p,
    m_derivative,
    m_value,
    residual_cost,
    residual_row_norms,
    row_norms,
    v_norm_p,
)
from .sketch import (
    PStableSketch,
    SparseSketch,
    apply_right,
    gaussian_row_norm_estimates,
    make_gaussian_sketch,
    make_pstable_sketch,
    make_sparse_sketch,
    orthonormal_union,
)
from .conditioning import (
    LeverageScores,
    WellConditionedBasis,
    weighted_leverage_scores,
    well_conditioned_basis,
)
from .sampling import (
    SampleDraw,
    SamplingPlan,
    draw,
    make_plan,
)
from .dimreduce import dim_reduce
from .bicriteria import const_approx
from .pipeline import (
    CapExceededError,
    SmallProblem,
    approx_lp,
    approx_m2,
    small_approx,
)
from .regression import irls_solve, m_regress, regression_objective
from .hardness import (
    GadgetInstance,
    brute_force_best_coordinate,
    coordinate_subspace_cost,
    gen_gadget,
    perturbed_simplex_cost,
)
from .oracle import svd_truncation_cost

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
