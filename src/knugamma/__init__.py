"""Two-parameter deformed Gamma function and friends.

Public surface: the parameter pair, the deformed Gamma/Beta/Psi/Zeta
fast paths, independent oracle evaluators, bound reports, and sign-map
generation.  See the README for the CLI.

Importing the package does not load numpy, the check suites or the
oracle: the sign-map and oracle names and the ``signmap``, ``oracle``,
``checks`` and ``cli`` submodules are imported on first access
(PEP 562), so a caller of the scalar functions never pays for them.
"""

import importlib

from .beta import beta_knu, log_beta_knu
from .bounds import (
    BoundReport,
    beta_gamma_upper,
    chebyshev_beta_bound,
    jensen_beta_bound,
    novariable_upper,
    ratio_bounds,
)
from .errors import (
    DivergentSeries,
    DomainWindow,
    NonPositiveArgument,
    Overflow,
    ParameterRange,
    PoleHit,
    ScalarDomainError,
)
from .gamma import (
    GammaValue,
    gamma_knu,
    log_gamma_knu,
    param_transform,
    pochhammer,
    stirling_approx,
)
from .params import Params
from .psi import PdeResiduals, pde_residuals, polygamma_knu, psi_knu, psi_shift_sum
from .scalar import EULER_GAMMA, digamma, hurwitz_zeta, ln_gamma, polygamma, riemann_zeta
from .zeta import hurwitz_knu, zeta_knu

__version__ = "0.1.0"

__all__ = [
    "Params",
    "GammaValue",
    "BoundReport",
    "PdeResiduals",
    "OracleResult",
    "GridSpec",
    "SignMap",
    "ScalarDomainError",
    "NonPositiveArgument",
    "PoleHit",
    "DivergentSeries",
    "Overflow",
    "ParameterRange",
    "DomainWindow",
    "EULER_GAMMA",
    "PAPER_Y_VALUES",
    "ln_gamma",
    "digamma",
    "polygamma",
    "riemann_zeta",
    "hurwitz_zeta",
    "log_gamma_knu",
    "gamma_knu",
    "pochhammer",
    "param_transform",
    "stirling_approx",
    "log_beta_knu",
    "beta_knu",
    "psi_knu",
    "polygamma_knu",
    "psi_shift_sum",
    "pde_residuals",
    "zeta_knu",
    "hurwitz_knu",
    "oracle_eval",
    "chebyshev_beta_bound",
    "jensen_beta_bound",
    "ratio_bounds",
    "beta_gamma_upper",
    "novariable_upper",
    "sign_F",
    "grid_signmap",
    "paper_grid",
    "desk_grid",
]

# public name -> the submodule that defines it, imported on first access
_LAZY_NAMES = {
    **dict.fromkeys(
        ("GridSpec", "PAPER_Y_VALUES", "SignMap", "desk_grid", "grid_signmap", "paper_grid", "sign_F"),
        "signmap",
    ),
    **dict.fromkeys(("OracleResult", "oracle_eval"), "oracle"),
}
_LAZY_SUBMODULES = frozenset({"signmap", "oracle", "checks", "cli"})


def __getattr__(name):
    if name in _LAZY_NAMES:
        return getattr(importlib.import_module("." + _LAZY_NAMES[name], __name__), name)
    if name in _LAZY_SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
