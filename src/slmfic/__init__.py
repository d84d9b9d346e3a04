"""Focused variable selection for Gaussian spatial lag models.

Fits Y = rho*W*Y + X*beta + eps by maximum likelihood and ranks all candidate
covariate subsets by the focused information criterion (FIC) or its spatially
averaged form (sAFIC).  The one-fit oracles the batch engine is checked
against (slm.full_loglik, slm.observed_info, focus.jacobian_fd,
safic.pointwise_risk, ...) live at their module paths and are not exported here.
"""

from .diagnostics import MoranResult, aic, morans_i
from .fic import FicRow, fic_score, fic_terms
from .focus import FocusSpec
from .safic import PsiWeights, median_bandwidth, psi_kernel, psi_uniform, safic_score
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
from .slm import Dataset, FisherInfo, FitResult, Theta, fit_mle
from .submodels import SubmodelId, enumerate_submodels
from .weights import SpatialWeights, build_chain_lag1

__version__ = "0.1.0"
