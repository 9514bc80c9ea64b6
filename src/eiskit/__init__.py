"""Numerical and exact machinery for Langlands Eisenstein series on SL(n,Z).

Modules:
    core        parabolic bookkeeping, Iwasawa coordinates, Langlands parameters
    specfun     Gamma, completed zeta, K-Bessel
    forms       mock Maass forms, completed L-functions, Rankin-Selberg
    hecke       Eisenstein Hecke eigenvalues (divisor sums)
    whittaker   GL(2)/GL(3) completed Whittaker functions, Jacquet oracle
    eisenstein  truncated lattice sums, Fourier extraction, FE checks
    uniqueness  exact affine-symmetry certification
    cli         batch front-end
"""

from .core import (
    GroupElement,
    IwasawaCoords,
    LanglandsParameterVec,
    Partition,
    SpectralPoint,
    iwasawa,
    langlands_parameter,
    power_function,
    rho_borel,
    rho_parabolic,
    rho_parabolic_star,
    rho_phi,
)
from .forms import FormSet, FormSpec, const_form, mock_maass_form
from .hecke import divisor_sigma, eis_hecke_eigenvalue
from .eisenstein import (
    ConvergenceError,
    FWRequest,
    check_functional_equation,
    closed_form_fourier_gl2,
    eval_eisenstein,
    extract_fourier_coefficient,
    fw_formula,
    scattering_phi,
)
from .uniqueness import (
    AffineMap,
    BlockStructure,
    UniquenessVerdict,
    decide_affine_symmetry,
    enumerate_permutation_symmetries,
    random_falsification,
)
from .whittaker import jacquet_oracle, whittaker_gl2, whittaker_gl3

__version__ = "0.1.0"
