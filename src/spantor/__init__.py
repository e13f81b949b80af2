"""Spanning-tree counts and spectral-determinant asymptotics for circulant
graphs and discrete tori: exact integer counts via the matrix-tree theorem,
scaled Bessel/theta special functions, and numerical verification of the
asymptotic growth laws."""

from .graphs import (
    CirculantSpec,
    TorusSpec,
    GraphSpecError,
    EnumerationCapError,
    spectrum,
    spanning_tree_count_exact,
    log_det_star,
)
from .specfun import (
    SpecfunError,
    ThetaValue,
    bessel_i_scaled,
    theta_discrete_spectral,
    theta_discrete_bessel,
    dedekind_eta,
    riemann_zeta_real,
    catalan_constant,
)
from .quadrature import (
    QuadratureError,
    IntegralResult,
    integrate_mellin,
    integrate_periodic_mean,
)
from .asym import (
    AsymError,
    LeadTerm,
    EpsteinValue,
    AsymptoticReport,
    arccosh_lead,
    lead_term_circulant,
    c_d,
    epstein_zeta_sum,
    epstein_zeta_prime_zero,
    predict_circulant,
    predict_torus_constant,
    predict_torus_sublinear,
)

__version__ = "0.1.0"
