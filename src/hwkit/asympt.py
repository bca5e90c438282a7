"""Large-order coefficient asymptotics and their diagnostic error tables.

The dominant singularity of the inverse function h sits at
omega_1 = sin(eta_1)/eta_1 ~ -0.2172 (eta_1 the first positive root of
tan eta = eta), where h behaves like a square-root branch point:

    h(omega) = z_1 + C1 (omega - omega_1)^{1/2} + C2 (omega - omega_1) + ...

Transfer results (singularity type -> coefficient decay) then give the
leading large-n behaviour of every coefficient family produced by
tables.py.  This module computes the Puiseux constants C1, C2 and the
resulting asymptotic amplitudes, and emits the relative-error sequences
eps_n = coeff_n / asymptotic_n - 1 used to study how fast the transfer
laws kick in.

C1 and C2 follow in closed form from the first two nonzero Taylor
coefficients a2, a3 of g about z_1 (C1 = 1/sqrt(a2), C2 = -a3/(2 a2^2),
by reverting the square-root-reduced expansion); those coefficients of
the entire function g are plain convergent sums -- no numerical
differentiation anywhere.  The test-suite checks both against a direct
fit of h(omega) - z_1 - C1 sqrt(omega - omega_1) on a shrinking real
grid.

Conventions (documented here once, used by diagnostic_epsilon):

* families c/d are the inverse-function tables in (omega-1) resp. log
  variables; cJ/dJ the rate-function tables in the same variables.
* family dF is the exponent-kernel composite in its natural variable
  (argument e^{-y}), i.e. the printed table with odd signs flipped;
  family dG likewise, with the sqrt(3) surd multiplied in.  Those are the
  series the transfer amplitudes d_F, d_G describe.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import mpmath as mp

from . import tables

_MP_DPS = 40
_lock = threading.Lock()
_cached: dict = {}


@dataclass(frozen=True)
class PuiseuxData:
    """Branch-point data of h at its dominant singularity.

    C1 > 0 by the convention that h increases from z_1 as omega moves
    from omega_1 toward 1 along the real axis; C1^2 = -8 z_1 / l''(eta_1)
    with l(eta) = sin(eta)/eta (the second derivative taken along the
    imaginary section, where it is a real number).
    """

    z1: float
    omega1: float
    C1: float
    C2: float
    C32_J: float
    C32_F: float


@dataclass(frozen=True)
class AsymptoticConstants:
    c_inf: float
    d_inf: float
    d_J: float
    d_F: float
    d_G: float


# -- high-precision building blocks --------------------------------------------

def _entire_taylor_at(coeff_fn, z0, nmax: int, terms: int = 120):
    """Taylor coefficients at z0 of an entire series sum coeff_fn(n) z^n.

    tay[j] = sum_{n>=j} C(n,j) c_n z0^{n-j}; the factorially small input
    coefficients make these sums converge long before `terms`.
    """
    tay = []
    for j in range(nmax + 1):
        s = mp.mpf(0)
        binom = mp.mpf(1)  # C(j, j)
        power = mp.mpf(1)  # z0^0
        for n in range(j, terms):
            s += binom * coeff_fn(n) * power
            binom = binom * (n + 1) / (n + 1 - j)
            power *= z0
        tay.append(s)
    return tay


def _series_div_f(a, b, n):
    out = []
    for k in range(n + 1):
        acc = a[k] if k < len(a) else mp.mpf(0)
        for i in range(1, k + 1):
            if i < len(b):
                acc -= b[i] * out[k - i]
        out.append(acc / b[0])
    return out


def _compute_all():
    with mp.workdps(_MP_DPS):
        eta1 = mp.findroot(lambda e: mp.sin(e) - e * mp.cos(e), mp.mpf("4.4934"))
        omega1 = mp.sin(eta1) / eta1
        z1 = -eta1 ** 2
        rho_x = mp.hypot(mp.log(-omega1), mp.pi)
        theta_x = mp.atan2(mp.pi, mp.log(-omega1))

        fact = mp.factorial
        g_tay = _entire_taylor_at(lambda n: 1 / fact(2 * n + 1), z1, 3)
        cosh_tay = _entire_taylor_at(lambda n: 1 / fact(2 * n), z1, 3)

        # local reversion about z1: omega - omega_1 = a2 u^2 + a3 u^3 + ...,
        # u = z - z1.  With s = u sqrt(a2 + a3 u + ...) = sqrt(a2) u +
        # a3/(2 sqrt(a2)) u^2 + ..., reverting gives u = C1 s + C2 s^2 + ...
        a = g_tay
        C1 = 1 / mp.sqrt(a[2])
        C2 = -a[3] / (2 * a[2] ** 2)

        # Taylor of the rate/exponent kernels at z1 via series quotients of
        # entire pieces: rate = z/2 - (cosh sqrt z - 1)/g, exponent =
        # z/2 - cosh sqrt z / g + 1 (+ symbolic offset).
        coshm1_tay = list(cosh_tay)
        coshm1_tay[0] -= 1
        q_rate = _series_div_f(coshm1_tay, g_tay, 3)
        q_exp = _series_div_f(cosh_tay, g_tay, 3)
        rate_tay = [z1 / 2 - q_rate[0], mp.mpf("0.5") - q_rate[1],
                    -q_rate[2], -q_rate[3]]
        exp_tay = [z1 / 2 - q_exp[0] + 1, mp.mpf("0.5") - q_exp[1],
                   -q_exp[2], -q_exp[3]]
        J2, J3 = 2 * rate_tay[2], 6 * rate_tay[3]
        F2, F3 = 2 * exp_tay[2], 6 * exp_tay[3]

        C32_J = J3 * C1 ** 3 / 6 + J2 * C1 * C2
        C32_F = F3 * C1 ** 3 / 6 + F2 * C1 * C2

        c_inf = -C1 * mp.sqrt(1 - omega1) / (2 * mp.sqrt(mp.pi))
        d_inf = -C1 * mp.sqrt((-omega1) * rho_x / mp.pi)
        amp32 = mp.mpf(3) / 2 * mp.sqrt(((-omega1) * rho_x) ** 3 / mp.pi)
        d_J = amp32 * C32_J
        d_F = amp32 * C32_F
        d_G = 2 / mp.gamma(mp.mpf(1) / 4) * mp.sqrt(2 * eta1 ** 2 / C1) \
            * ((-omega1) * rho_x) ** (-mp.mpf(1) / 4)

        pd = PuiseuxData(z1=float(z1), omega1=float(omega1), C1=float(C1),
                         C2=float(C2), C32_J=float(C32_J), C32_F=float(C32_F))
        ac = AsymptoticConstants(c_inf=float(c_inf), d_inf=float(d_inf),
                                 d_J=float(d_J), d_F=float(d_F), d_G=float(d_G))
        extras = {"eta1": float(eta1), "rho_x": float(rho_x),
                  "theta_x": float(theta_x),
                  "rate_dd": float(J2), "rate_ddd": float(J3),
                  "exp_dd": float(F2), "exp_ddd": float(F3)}
    return pd, ac, extras


def _all():
    with _lock:
        if "pd" not in _cached:
            _cached["pd"], _cached["ac"], _cached["extras"] = _compute_all()
    return _cached["pd"], _cached["ac"], _cached["extras"]


def puiseux_data() -> PuiseuxData:
    return _all()[0]


def asymptotic_constants() -> AsymptoticConstants:
    return _all()[1]


def kernel_derivatives_at_z1() -> dict:
    """Second/third derivatives of the rate and exponent kernels at z_1."""
    ex = _all()[2]
    return {"rate_dd": ex["rate_dd"], "rate_ddd": ex["rate_ddd"],
            "exp_dd": ex["exp_dd"], "exp_ddd": ex["exp_ddd"]}


def _geom() -> tuple:
    ex = _all()[2]
    pd = _all()[0]
    return pd.omega1, ex["rho_x"], ex["theta_x"]


# -- leading-order asymptotic coefficient values --------------------------------

# Polynomial damping exponent p of each family's transfer law
# a_n ~ A n^{-p} R^{-n} (trig factor); cJ is undamped.
DAMPING = {"c": 1.5, "d": 1.5, "dJ": 2.5, "dF": 2.5, "dG": 0.75}


def trig_factor(family: str, n: int) -> float:
    """The oscillatory factor of the leading asymptotics ((-1)^n counts)."""
    _, _, theta_x = _geom()
    if family in ("c", "cJ"):
        return (-1.0) ** n
    if family == "d":
        return math.cos(theta_x * (n - 0.5))
    if family in ("dJ", "dF"):
        return math.cos(theta_x * (n - 1.5))
    if family == "dG":
        return math.sin(theta_x * (n + 0.25))
    raise ValueError(f"unknown family {family!r}")


def asympt_c(n: int) -> float:
    """c_n ~ c_inf (1-omega_1)^{-n} (-1)^n n^{-3/2}."""
    omega1, _, _ = _geom()
    ac = asymptotic_constants()
    return (ac.c_inf * (1 - omega1) ** (-n) * trig_factor("c", n)
            * n ** -DAMPING["c"])


def _log_law(amp: float, family: str, n: int) -> float:
    """amp rho_x^{-n} (trig factor) n^{-p}: the transfer law of the
    log-variable families, whose dominant singularities sit at distance
    rho_x."""
    _, rho_x, _ = _geom()
    return amp * rho_x ** (-n) * trig_factor(family, n) * n ** -DAMPING[family]


def asympt_d(n: int) -> float:
    """d_n ~ d_inf rho_x^{-n} cos(theta_x (n - 1/2)) n^{-3/2}."""
    return _log_law(asymptotic_constants().d_inf, "d", n)


def asympt_cJ(n: int) -> float:
    """Leading term of the rate-function omega-coefficients: exactly +-2."""
    return 2.0 * trig_factor("cJ", n)


def asympt_dJ(n: int) -> float:
    """d_{J,n} ~ d_J rho_x^{-n} cos(theta_x (n - 3/2)) n^{-5/2}."""
    return _log_law(asymptotic_constants().d_J, "dJ", n)


def asympt_dF(n: int) -> float:
    """d_{F,n} ~ d_F rho_x^{-n} cos(theta_x (n - 3/2)) n^{-5/2}."""
    return _log_law(asymptotic_constants().d_F, "dF", n)


def asympt_dG(n: int) -> float:
    """d_{G,n} ~ d_G rho_x^{-n} sin(theta_x (n + 1/4)) n^{-3/4}."""
    return _log_law(asymptotic_constants().d_G, "dG", n)


_FAMILY_FUNS = {"c": asympt_c, "d": asympt_d, "cJ": asympt_cJ,
                "dJ": asympt_dJ, "dF": asympt_dF, "dG": asympt_dG}


def exact_family_floats(family: str, order: int):
    """Float values of the exact coefficients in the analysis convention."""
    ser = tables.natural_table(family, order)
    vals = ser.float_coeffs()
    if family == "dG":
        s3 = math.sqrt(3.0)
        vals = [s3 * v for v in vals]  # amplitude d_G describes sqrt3-inclusive coeffs
    return vals


def diagnostic_epsilon(family: str, order: int, n_min: int = 2):
    """Rows (n, coeff_exact, coeff_asympt, epsilon, trig_factor).

    epsilon_n = exact/asymptotic - 1; large |epsilon| at isolated n goes
    hand in hand with a small trig factor (accidental suppression of the
    leading term), so the trig factor is reported alongside.
    """
    if family not in _FAMILY_FUNS:
        raise ValueError(f"unknown family {family!r}")
    exact = exact_family_floats(family, order)
    fun = _FAMILY_FUNS[family]
    rows = []
    for n in range(max(n_min, 1), order + 1):
        approx = fun(n)
        eps = exact[n] / approx - 1.0 if approx != 0 else math.inf
        rows.append((n, exact[n], approx, eps, trig_factor(family, n)))
    return rows


def epsilon_csv(rows) -> str:
    lines = ["n,coeff_exact,coeff_asympt,epsilon,trig_factor"]
    for n, ce, ca, eps, tf in rows:
        lines.append(f"{n},{ce!r},{ca!r},{eps!r},{tf!r}")
    return "\n".join(lines) + "\n"
