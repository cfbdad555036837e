"""Deformed digamma/polygamma functions and the PDE residual check.

Psi_{k,nu} is the log-derivative of the deformed Gamma; with c = k nu
and r = k/nu it reduces to (ln r + psi(x/c))/c, and its m-th derivative
to psi^(m)(x/c) / c^(m+1), which the engine's one polygamma series
evaluates in scaled form for every x and c.
"""

import math

from . import scalar
from .errors import DomainWindow, NonPositiveArgument, Overflow, PoleHit
from .gamma import log_gamma_knu
from .constants import _MAX
from .params import Params, Record

__all__ = ["PdeResiduals", "psi_knu", "polygamma_knu", "psi_shift_sum", "pde_residuals"]


def psi_knu(p: Params, x: float) -> float:
    """Psi_{k,nu}(x) = d/dx ln Gamma_{k,nu}(x), x > 0.  A result beyond
    the double range raises ``Overflow``."""
    if not (x > 0.0):
        raise PoleHit(f"psi_knu requires x > 0, got x={x}")
    u = x / p.c
    try:
        value = (p.log_r + scalar.digamma(u)) / p.c
    except (NonPositiveArgument, Overflow):
        # u underflowed to 0, or psi(u) ~ -1/u overflows: take
        # psi(u) = psi(1 + u) - 1/u, whose 1/u divided by c is 1/x
        value = (p.log_r + scalar.digamma(1.0 + u)) / p.c - 1.0 / x
    if math.isinf(value):
        raise Overflow(f"psi_knu({p.k}, {p.nu}, {x}) exceeds double range")
    return value


def polygamma_knu(p: Params, m: int, x: float) -> float:
    """Psi^(m)_{k,nu}(x) = (-1)^(m+1) m! sum_{n>=0} (x + n c)^-(m+1),
    for m >= 1 (``DomainWindow`` otherwise), x > 0.  A result beyond
    the double range raises ``Overflow``; x = inf gives the limit 0."""
    if not (x > 0.0):
        raise PoleHit(f"polygamma_knu requires x > 0, got x={x}")
    return scalar._polygamma_scaled(m, x, p.c)


def psi_shift_sum(p: Params, x: float, n: int) -> float:
    """sum_{j=0..n} 1/(x + j c); equals
    Psi_{k,nu}(x + (n+1) c) - Psi_{k,nu}(x)."""
    if not (x > 0.0):
        raise PoleHit(f"psi_shift_sum requires x > 0, got x={x}")
    if n < 0:
        raise DomainWindow(f"psi_shift_sum requires n >= 0, got {n}")
    # left to right: the builtin sum() compensates its rounding since
    # Python 3.12, so its last bits would depend on the Python version
    total = 0.0
    for j in range(n + 1):
        total += 1.0 / (x + j * p.c)
    if total > _MAX:  # 1/x overflows where x < 1/DBL_MAX
        raise Overflow(f"psi_shift_sum({p.k}, {p.nu}, {x}, {n}) exceeds double range")
    return total


class PdeResiduals(Record):
    """Left-minus-right values of the two second-order PDEs satisfied
    by F(k, nu, x) = ln Gamma_{k,nu}(x), evaluated by central finite
    differences:

        k^2 F_kk + 2 k F_k - x^2 F_xx  = -1 - x/(k nu)
        nu^2 F_vv + 2 nu F_v - x^2 F_xx =  1 + x/(k nu)

    Residual magnitudes are O(step^2) plus rounding.  (A variant of the
    second identity with right side 2 + x/(k nu) circulates; symbolic
    differentiation of the Weierstrass expansion and high-precision
    finite differences both give 1 + x/(k nu).)
    """

    res_k: float
    res_nu: float
    step: float


def pde_residuals(p: Params, x: float, step: float = 1e-4) -> PdeResiduals:
    """Evaluate both PDE residuals at (k, nu, x) with relative central
    steps ``step * max(1, |param|)`` per variable."""
    if not (step > 0.0):
        raise DomainWindow(f"pde_residuals requires step > 0, got {step}")
    k, nu = p.k, p.nu
    h_k = step * max(1.0, abs(k))
    h_nu = step * max(1.0, abs(nu))
    h_x = step * max(1.0, abs(x))
    if k - h_k <= 0.0 or nu - h_nu <= 0.0 or x - h_x <= 0.0:
        raise PoleHit("finite-difference stencil leaves the domain")

    def f(kk: float, vv: float, xx: float) -> float:
        return log_gamma_knu(Params(kk, vv), xx)

    f0 = f(k, nu, x)
    f_kp, f_km = f(k + h_k, nu, x), f(k - h_k, nu, x)
    f_vp, f_vm = f(k, nu + h_nu, x), f(k, nu - h_nu, x)
    f_xp, f_xm = f(k, nu, x + h_x), f(k, nu, x - h_x)

    d1k = (f_kp - f_km) / (2.0 * h_k)
    d2k = (f_kp - 2.0 * f0 + f_km) / (h_k * h_k)
    d1v = (f_vp - f_vm) / (2.0 * h_nu)
    d2v = (f_vp - 2.0 * f0 + f_vm) / (h_nu * h_nu)
    d2x = (f_xp - 2.0 * f0 + f_xm) / (h_x * h_x)

    u = x / p.c
    res_k = k * k * d2k + 2.0 * k * d1k - x * x * d2x - (-1.0 - u)
    res_nu = nu * nu * d2v + 2.0 * nu * d1v - x * x * d2x - (1.0 + u)
    if not (abs(res_k) <= _MAX and abs(res_nu) <= _MAX):  # a square or quotient of the stencil overflows
        raise Overflow(f"pde_residuals({k}, {nu}, {x}): a residual is not a finite double")
    return PdeResiduals(res_k=res_k, res_nu=res_nu, step=step)
