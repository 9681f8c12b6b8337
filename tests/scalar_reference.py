"""Scalar reference for the derivations: one scenario at a time, on Python floats.

This is the per-scenario code the package ran before its derivations were
written on columns, kept here as the oracle that the column code must match
bit for bit. It raises where that code raised: DerivationError with the same
messages, and ZeroDivisionError where a product underflows to zero or, in
the pair check, where p = 0 or M1 = 0 (the package now returns inf/nan or a
failed report there instead).
"""

import math

from icufunnel import DerivationError


def _div(num, den):
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num)


def derive(sc):
    """The DerivedConstants fields of sc, by name."""
    pm, ini = sc.params, sc.init
    if ini.IS0 <= 0.0:
        raise DerivationError(f"zeta undefined: IS0 = {ini.IS0!r}")
    if pm.rho >= 1.0:
        raise DerivationError(f"symptomatic removal rate undefined: rho = {pm.rho!r}")
    if min(pm.alpha_A, pm.alpha_S) <= 0.0:
        raise DerivationError("S_min undefined: min{alpha_A, alpha_S} = 0")
    if ini.R0 <= 0.0:
        raise DerivationError(f"S_min undefined: R0 = {ini.R0!r}")
    N = ini.S0 + ini.IA0 + ini.IS0 + ini.R0
    phi_plus = sc.capacity.phi_plus()
    alpha_S_eff = pm.alpha_S / (1.0 - pm.rho)
    K_psi_bar = 1.0 - pm.gamma_K * pm.rho * pm.alpha_A / (1.0 - pm.rho)
    S_min = ini.S0 * math.exp(
        -max(pm.beta_A, pm.beta_S) * (N - ini.R0) / (min(pm.alpha_A, pm.alpha_S) * ini.R0)
    )
    beta_tilde = pm.p * pm.beta_S + (1.0 - pm.p) * pm.beta_A
    A_const = (
        (1.0 - pm.p) * pm.beta_A
        - pm.p * pm.beta_S
        + _div((alpha_S_eff - pm.alpha_A) * N, K_psi_bar * pm.psi_bar * S_min)
    )
    cross = pm.p * (1.0 - pm.p) * pm.beta_A * pm.beta_S
    try:
        A_sq = A_const**2
    except OverflowError:
        raise DerivationError(
            f"B_const undefined: A_const**2 overflows (A_const = {A_const!r})"
        ) from None
    if A_const > 0.0:
        B_const = _div(cross, A_const / 2.0 + math.sqrt(A_sq / 4.0 + cross))
    else:
        B_const = -A_const / 2.0 + math.sqrt(A_sq / 4.0 + cross)
    zeta = max(ini.IA0 / ini.IS0, _div((1.0 - pm.p) * pm.beta_S, B_const))
    M1 = K_psi_bar * pm.psi_bar * beta_tilde * (1.0 - ini.R0 / N) - pm.alpha_A
    M2 = _div((1.0 + K_psi_bar * pm.psi_bar) * beta_tilde, pm.p * N) - pm.rho * pm.alpha_S / (
        (1.0 - pm.rho) * N
    )
    M3 = (
        pm.p
        * (pm.beta_A * zeta + pm.beta_S)
        * (1.0 - ini.R0 / N - _div(M2, pm.p * N * M1))
        * _div((1.0 - pm.rho) * M2, pm.alpha_S * M1)
    )
    mu = max(
        (1.0 + pm.p) / 2.0 * pm.beta_S + pm.p / 2.0 * pm.beta_A - alpha_S_eff,
        (2.0 - pm.p) / 2.0 * pm.beta_A + (1.0 - pm.p) / 2.0 * pm.beta_S - pm.alpha_A,
        1e-6,
    )
    return dict(
        N=N, phi_plus=phi_plus, S_min=S_min, beta_tilde=beta_tilde, A_const=A_const,
        B_const=B_const, zeta=zeta, K_psi_bar=K_psi_bar, M1=M1, M2=M2, M3=M3, mu=mu,
        psi_floor=K_psi_bar * pm.psi_bar, alpha_S_eff=alpha_S_eff,
    )


def rob_conditions(sc, dc):
    """(name, passed, lhs, rhs, vacuous) of A1-A3 and A6, in report order."""
    pm, ini = sc.params, sc.init
    a14_rhs = _div(1.0 - pm.rho, pm.rho * pm.alpha_A)
    a24_rhs = _div((1.0 - pm.p) * ini.IS0, pm.p)
    a3_rhs = max(_div(dc.M2, dc.M1), dc.M3)
    a61_lhs = (_div(1.0, dc.M2) - _div(1.0 - pm.rho, pm.alpha_S)) * (
        pm.p * dc.N * dc.M1 - pm.p * ini.R0 * dc.M1 - dc.M2
    )
    z = pm.beta_A * dc.zeta + pm.beta_S
    a62_lhs = pm.p * dc.N * dc.M1 * (dc.zeta + 1.0)
    return [
        ("A1.1", pm.p > 0.0, pm.p, 0.0, False),
        ("A1.2", pm.rho < 1.0, pm.rho, 1.0, False),
        ("A1.3", 0.0 < pm.alpha_A <= dc.alpha_S_eff, pm.alpha_A, dc.alpha_S_eff, False),
        ("A1.4", pm.gamma_K < a14_rhs, pm.gamma_K, a14_rhs, math.isinf(a14_rhs)),
        ("A1.5", dc.M1 > 0.0, dc.M1, 0.0, False),
        ("A2.1", ini.S0 > 0.0, ini.S0, 0.0, False),
        ("A2.2", ini.R0 > 0.0, ini.R0, 0.0, False),
        ("A2.3", ini.IS0 > 0.0, ini.IS0, 0.0, False),
        ("A2.4", ini.IA0 >= a24_rhs, ini.IA0, a24_rhs, False),
        ("A3", dc.phi_plus > a3_rhs, dc.phi_plus, a3_rhs, False),
        ("A6.1", a61_lhs > 1.0, a61_lhs, 1.0, False),
        ("A6.2", a62_lhs > z, a62_lhs, z, False),
    ]


def cz_conditions(cp, sc, dc):
    """(name, passed, lhs, rhs, vacuous) of the ordering, A4 and A5."""
    pm, ini = sc.params, sc.init
    eps = cp.phi_plus - cp.eps_plus
    a4_rhs = cp.phi_plus - dc.M2 / dc.M1
    den = dc.alpha_S_eff + (dc.M1 * eps - dc.M2)
    z = pm.beta_A * dc.zeta + pm.beta_S
    num = pm.p * z * eps * (1.0 - ini.R0 / dc.N - eps / (pm.p * dc.N)) + pm.p * (
        dc.M1 * eps - dc.M2
    ) * (dc.zeta + 1.0) * eps
    q = num / den if den > 0.0 else math.nan
    return [
        ("ordering", cp.ordering_ok(), cp.off_threshold(), cp.on_threshold(), False),
        ("A4", cp.eps_plus < a4_rhs, cp.eps_plus, a4_rhs, False),
        ("A5", q < cp.phi_plus, q, cp.phi_plus, False),
    ]
