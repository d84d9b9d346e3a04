"""Focused variable selection for Gaussian spatial lag models.

Fits Y = rho*W*Y + X*beta + eps by maximum likelihood and ranks all candidate
covariate subsets by the focused information criterion (FIC) or its spatially
averaged form (sAFIC).
"""

from .diagnostics import MoranResult, aic, morans_i
from .fic import (
    FicRow,
    delta_hat,
    fic_score,
    fic_terms,
    m_matrix,
    submodel_info,
)
from .focus import FocusEval, FocusSpec, eval_focus, jacobian_fd, wide_beta_jacobian
from .safic import (
    PsiWeights,
    RhoBetaBlocks,
    g_matrix,
    k_empirical,
    median_bandwidth,
    omega_i,
    pointwise_risk,
    psi_kernel,
    psi_uniform,
    rho_beta_blocks,
    safic_score,
    safic_terms,
)
from .simulate import (
    CriterionSpec,
    RunReport,
    SimConfig,
    build_weights,
    default_criteria,
    fic_table,
    generate_dataset,
    monte_carlo,
    safic_table,
)
from .slm import (
    Dataset,
    FisherInfo,
    FitResult,
    Theta,
    concentrated_loglik,
    fit_mle,
    full_loglik,
    observed_info,
    profile_beta,
    profile_sigma2,
    score_vector,
)
from .submodels import SubmodelId, enumerate_submodels
from .weights import SpatialWeights, build_chain_lag1

__version__ = "0.1.0"
