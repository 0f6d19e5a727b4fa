"""Static conduction model for the ferroelectric barrier stack.

Two parallel channels carry the read current through the film:

* an Ohmic hopping channel, J = c_ohm * T^(3/2) * (V/d) * exp(-Ea/kT),
  which dominates below roughly 100 mV, and
* Poole-Frenkel trap emission,
  J = c_pf * (V/d) * exp(q*(-phi_pf + sqrt(q*V/(pi*eps0*eps_r*d)))/kT),
  which takes over above roughly 200 mV and supplies the read nonlinearity.

The polarization state scales both channels through a common multiplier
g(w) = g_lrs**w, so the ON/OFF ratio is bias- and temperature-independent
by construction. Negative bias is handled by odd symmetry, I(-v) = -I(v).

The current functions come in two forms. The g-level kernels
(current_ohmic, current_pf, current_total_g, differential_conductance_g)
take the multiplier g directly and broadcast over arrays of biases and
multipliers. current_total and differential_conductance take one device
state and compute its multiplier first. Every public kernel validates its
bias and temperature on each call, over the whole array at once, and then
composes the private channel terms (_bias_terms, _ohmic, _pf, _total,
_conductance), where each formula is written. An ndarray, list or tuple
input gives an ndarray, and all-scalar input gives a float. These are
the checked boundary. _array_current is the one unchecked array read,
current_total_g's ops on cell arrays (w, d2d_log10) of any shape, for
callers that check bias and temperature once: crossbar's fixed-potential
reads, inference's charge MVM and device's trace read. Crossbar's Newton
solve composes the kernels too: _bias_terms and _total at each point, and
_conductance for its Jacobian. Device's write-verify trim is the one
restatement of the terms, in Python floats for speed and with these
kernels' bits; its module docstring says how.

state_multiplier is the one multiplier of the public API: float ** on
scalars, and on arrays a broadcast np.float_power, which calls the C
library's pow() per element as float ** does. Both give the same bits
and raise the same OverflowError (_shift_overflow) for an offset past
float range.

A separate direct-tunneling expression (trapezoidal barrier, low and
intermediate bias) is provided purely for mechanism discrimination; it is
not part of the composite current.

All voltages in V, currents in A, current densities in A/m^2, lengths in m,
temperatures in K. Barrier energies cross the interface in eV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .constants import EPS_0, H_PLANCK, K_B, M_E, Q_E

if TYPE_CHECKING:  # pragma: no cover
    from .device import DeviceState

__all__ = [
    "TunnelBarrier",
    "ConductionParams",
    "Readout",
    "CalibrationTargets",
    "CalibrationError",
    "current_ohmic",
    "current_pf",
    "current_tunneling",
    "current_total",
    "current_total_g",
    "differential_conductance",
    "differential_conductance_g",
    "state_multiplier",
    "on_off",
    "self_selection_ratio",
    "calibrate",
    "default_params",
]

# Default stack geometry and barriers.
DEFAULT_D_FE = 4.9e-9        # ferroelectric film thickness, m
DEFAULT_AREA = 1.44e-8       # junction area, m^2 (14,400 um^2)
DEFAULT_PHI_PF = 0.15        # trap barrier, eV
DEFAULT_EA_OHM = 0.15        # hopping activation energy, eV

# Read points used by calibration and the figures of merit.
V_READ = 0.3                 # state readout, V
V_ONOFF = 0.1                # ON/OFF figure of merit, V
V_SELECT = 0.5               # self-selection figure of merit, V
T_REF = 300.0                # reference temperature, K

# Third calibration constraint: the two channels carry equal current at
# this bias, the arithmetic midpoint between the Ohmic window's top
# (0.1 V) and the trap-emission window's bottom (0.2 V). Pins the
# otherwise-free channel split.
V_CROSSOVER = 0.15

# Solver bracket for the relative permittivity search.
_EPS_R_MIN = 1.0
_EPS_R_MAX = 1e4

_NO_RESIDUALS = (math.nan, math.nan, math.nan)


class CalibrationError(ValueError):
    """Raised when no parameter set can meet the calibration targets.

    Carries the relative residual vector (r_on, on_off, selection) of the
    best attempt.
    """

    def __init__(self, message: str, residuals: tuple[float, float, float]):
        super().__init__(f"{message} (relative residuals r_on={residuals[0]:.3g}, "
                         f"on_off={residuals[1]:.3g}, selection={residuals[2]:.3g})")
        self.residuals = residuals


@dataclass(frozen=True)
class TunnelBarrier:
    """Trapezoidal direct-tunneling barrier.

    phi_bar: mean barrier height above the Fermi level, eV.
    m_eff: effective tunneling mass as a fraction of the electron mass.
    """

    phi_bar: float = 1.0
    m_eff: float = 0.4

    def __post_init__(self):
        if not (0.0 < self.phi_bar < 10.0):
            raise ValueError(f"phi_bar must be in (0, 10) eV, got {self.phi_bar}")
        if not (0.0 < self.m_eff <= 1.0):
            raise ValueError(f"m_eff must be in (0, 1], got {self.m_eff}")


@dataclass(frozen=True)
class ConductionParams:
    """Immutable device parameter record.

    d_fe : film thickness, m
    area : junction area, m^2
    phi_pf : Poole-Frenkel trap barrier, eV
    eps_r : relative permittivity entering the barrier lowering
    ea_ohm : Ohmic activation energy, eV
    c_pf : trap-emission prefactor, A m^-2 (V/m)^-1
    c_ohm : Ohmic prefactor, A m^-2 (V/m)^-1 K^-3/2
    tun : direct-tunneling barrier (discrimination only)
    g_lrs : LRS/HRS conductance ratio target at read
    """

    d_fe: float = DEFAULT_D_FE
    area: float = DEFAULT_AREA
    phi_pf: float = DEFAULT_PHI_PF
    eps_r: float = 5.0
    ea_ohm: float = DEFAULT_EA_OHM
    c_pf: float = 1.0
    c_ohm: float = 1.0
    tun: TunnelBarrier = TunnelBarrier()
    g_lrs: float = 10.0

    def __post_init__(self):
        if not self.d_fe > 0:
            raise ValueError(f"d_fe must be positive, got {self.d_fe}")
        if not self.area > 0:
            raise ValueError(f"area must be positive, got {self.area}")
        if not 0.0 < self.phi_pf < 3.0:
            raise ValueError(f"phi_pf must be in (0, 3) eV, got {self.phi_pf}")
        if not self.eps_r >= 1.0:
            raise ValueError(f"eps_r must be >= 1, got {self.eps_r}")
        if not self.ea_ohm >= 0.0:
            raise ValueError(f"ea_ohm must be >= 0, got {self.ea_ohm}")
        if not self.c_pf >= 0.0:
            raise ValueError(f"c_pf must be >= 0, got {self.c_pf}")
        if not self.c_ohm > 0.0:
            raise ValueError(f"c_ohm must be positive, got {self.c_ohm}")
        if not self.g_lrs >= 1.0:
            raise ValueError(f"g_lrs must be >= 1, got {self.g_lrs}")


@dataclass(frozen=True)
class Readout:
    """One read measurement at a bias point."""

    v_read: float       # V
    t_kelvin: float     # K
    i_amps: float       # A
    r_ohms: float       # V / A
    j_a_per_m2: float   # A / m^2


@dataclass(frozen=True)
class CalibrationTargets:
    """Figure-of-merit targets for :func:`calibrate`.

    r_on_ohms: LRS resistance at +0.3 V.
    on_off: LRS/HRS current ratio at 0.1 V.
    selection: I(0.5 V)/I(0.25 V) self-selection ratio.
    """

    r_on_ohms: float = 1e8
    on_off: float = 10.0
    selection: float = 42.0


DEFAULT_TARGETS = CalibrationTargets()


def check_bias(v) -> None:
    """Reject non-finite bias values (scalar or array)."""
    if not np.all(np.isfinite(v)):
        raise ValueError("bias contains non-finite values")


def check_temperature(t: float) -> None:
    """Reject a non-positive or non-finite temperature."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"temperature must be positive and finite, got {t}")


def _coeffs(p: ConductionParams, t: float) -> tuple[float, float, float]:
    """Per-(params, temperature) channel coefficients.

    Returns (ohm_c, pf_c, theta) such that
    J_ohm = ohm_c * v, J_pf = pf_c * v * exp(theta * sqrt(v)).
    """
    kt = K_B * t
    ohm_c = p.c_ohm * t ** 1.5 * math.exp(-p.ea_ohm * Q_E / kt) / p.d_fe
    pf_c = p.c_pf * math.exp(-p.phi_pf * Q_E / kt) / p.d_fe
    return ohm_c, pf_c, _theta(p.eps_r, p.d_fe, t)


def _theta(eps_r: float, d_fe: float, t: float) -> float:
    """PF field-lowering slope (q/kT) * sqrt(q/(pi*eps0*eps_r*d_fe))."""
    return (Q_E / (K_B * t)) * math.sqrt(Q_E / (math.pi * EPS_0 * eps_r * d_fe))


_ARRAY_KINDS = (np.ndarray, list, tuple)


def _as_input_kind(result, v, g=1.0):
    """Return the ndarray result when bias or multiplier is an ndarray,
    list or tuple, else a float."""
    if isinstance(v, _ARRAY_KINDS) or isinstance(g, _ARRAY_KINDS):
        return result
    return float(result)


def _shift_overflow(d2d_log10: float) -> OverflowError:
    return OverflowError(
        f"d2d_log10 = {d2d_log10} is outside float range: the state "
        "multiplier 10**(-d2d_log10) overflows")


def state_multiplier(p: ConductionParams, w, d2d_log10=0.0):
    """Common channel multiplier: g_lrs**w shifted by the device's log10
    resistance offset, 10**(-d2d_log10). w and d2d_log10 broadcast; a
    float for scalar input. An offset whose shift is past float range
    raises OverflowError naming it, the first in flattened order.

    Scalars take float **. Arrays take np.float_power, whose float64 loop
    calls the C library's pow() per element, the function float ** calls,
    so every element has the scalar form's bits; np.power may take a SIMD
    approximation instead. The powers run with every floating-point error
    ignored, as float ** ignores them, whatever errstate the caller set,
    and a finite shift whose product overflows gives inf, as float ** does.
    """
    if isinstance(w, _ARRAY_KINDS) or isinstance(d2d_log10, _ARRAY_KINDS):
        d = np.asarray(d2d_log10, dtype=float)
        with np.errstate(all="ignore"):
            shift = np.float_power(10.0, -d)
            if np.isinf(shift).any():
                over = np.isinf(shift) & np.isfinite(d)
                if over.any():
                    raise _shift_overflow(
                        float(d.ravel()[np.argmax(over.ravel())]))
            return np.float_power(p.g_lrs, w) * shift
    d2d_log10 = float(d2d_log10)
    try:
        shift = 10.0 ** (-d2d_log10)
    except OverflowError:
        raise _shift_overflow(d2d_log10) from None
    return p.g_lrs ** float(w) * shift


def _bias_terms(va: np.ndarray, theta: float):
    """Per-bias factors shared by the current and its derivative:
    (sign(v), |v|, sqrt|v|, exp(theta * sqrt|v|)).

    Always evaluated with numpy: math.exp and np.exp differ in the last
    bit for some inputs, so every path takes the exponential from here.
    """
    mag = np.abs(va)
    rt = np.sqrt(mag)
    return np.sign(va), mag, rt, np.exp(theta * rt)


def _ohmic(ga, va, ohm_c):
    """Ohmic channel current at ga = g * area: J_ohm = ohm_c * v."""
    return ga * ohm_c * va


def _pf(ga, terms, pf_c):
    """Poole-Frenkel current at ga = g * area:
    J_pf = sign(v) * pf_c * |v| * exp(theta * sqrt|v|)."""
    sign, mag, _, e = terms
    return ga * sign * (pf_c * mag * e)


def _total(ga, va, terms, ohm_c, pf_c):
    """Composite current, Ohmic + Poole-Frenkel, from the bias terms."""
    return _ohmic(ga, va, ohm_c) + _pf(ga, terms, pf_c)


def _conductance(ga, terms, ohm_c, pf_c, theta):
    """dI/dv of the composite current from the same bias terms, so a
    Newton Jacobian reuses what its residual evaluated."""
    _, _, rt, e = terms
    return ga * (ohm_c + pf_c * e * (1.0 + 0.5 * theta * rt))


def _checked(v, t: float, p: ConductionParams, g=1.0):
    """Check bias and temperature; return (v as floats, g * area,
    coefficients), with lists and tuples taken as arrays."""
    check_bias(v)
    check_temperature(t)
    if isinstance(g, _ARRAY_KINDS):
        g = np.asarray(g, dtype=float)
    return np.asarray(v, dtype=float), g * p.area, _coeffs(p, t)


def current_ohmic(v, t: float, p: ConductionParams, g: float = 1.0):
    """Ohmic channel current, A. Odd in v; linear in bias.

    g is the dimensionless state multiplier (1 for the pristine HRS); v
    and g broadcast against each other.
    """
    va, ga, (ohm_c, _, _) = _checked(v, t, p, g)
    return _as_input_kind(_ohmic(ga, va, ohm_c), v, g)


def current_pf(v, t: float, p: ConductionParams, g: float = 1.0):
    """Poole-Frenkel trap-emission current, A. Odd in v.

    ln(J/V) is affine in sqrt(V) with slope
    theta(T) = (q/kT) * sqrt(q/(pi*eps0*eps_r*d_fe)), strictly decreasing
    in temperature.
    """
    va, ga, (_, pf_c, theta) = _checked(v, t, p, g)
    return _as_input_kind(_pf(ga, _bias_terms(va, theta), pf_c), v, g)


def current_tunneling(v, p: ConductionParams):
    """Direct-tunneling current through the trapezoidal barrier, A.

    Intermediate-bias expression: temperature does not appear, the curve
    is odd in v, and it is only valid for |v| < phi_bar (in volts); biases
    at or beyond the barrier height are out of regime and rejected.
    """
    check_bias(v)
    va = np.asarray(v, dtype=float)
    if np.any(np.abs(va) >= p.tun.phi_bar):
        raise ValueError(
            f"|v| >= phi_bar = {p.tun.phi_bar} V is outside the direct-tunneling regime")
    phi_j = p.tun.phi_bar * Q_E
    m = p.tun.m_eff * M_E
    d = p.d_fe
    pref = Q_E / (2.0 * math.pi * H_PLANCK * d * d)
    a_coef = 4.0 * math.pi * d * math.sqrt(2.0 * m) / H_PLANCK
    lo = phi_j - 0.5 * Q_E * va
    hi = phi_j + 0.5 * Q_E * va
    j = pref * (lo * np.exp(-a_coef * np.sqrt(lo)) - hi * np.exp(-a_coef * np.sqrt(hi)))
    return _as_input_kind(p.area * j, v)


def current_total_g(v, t: float, p: ConductionParams, g=1.0):
    """Composite current at state multiplier g: Ohmic + Poole-Frenkel, A.

    The g-level kernel behind current_total. v and g broadcast, so one
    call evaluates a whole array of devices at their own biases.
    """
    va, ga, (ohm_c, pf_c, theta) = _checked(v, t, p, g)
    return _as_input_kind(
        _total(ga, va, _bias_terms(va, theta), ohm_c, pf_c), v, g)


def _array_current(p: ConductionParams, t: float, w, d2d_log10, v):
    """Currents of cells (w, d2d_log10), any shape, at bias v (broadcast
    against them) and temperature t: current_total_g's ops without its
    checks, as an ndarray. The caller checked v and t; the multipliers
    raise state_multiplier's named OverflowError."""
    ohm_c, pf_c, theta = _coeffs(p, t)
    v = np.asarray(v, dtype=float)
    return _total(state_multiplier(p, w, d2d_log10) * p.area, v,
                  _bias_terms(v, theta), ohm_c, pf_c)


def _read_terms(v: float, t: float, p: ConductionParams):
    """The write-verify read's per-bias terms at one fixed bias, checked once:
    (v, ohm_c, pf_k) in Python floats, so that the current at
    ga = g * area is ga * ohm_c * v + ga * pf_k. pf_k = sign(v) * (pf_c *
    |v| * exp(theta * sqrt|v|)) folds the Poole-Frenkel bias terms, which
    come from _bias_terms and so carry numpy's exponential; ga * pf_k
    equals _pf's ga * sign * (pf_c * |v| * e) bit for bit, as sign is +-1
    or a zero."""
    va, _, (ohm_c, pf_c, theta) = _checked(v, t, p)
    sign, mag, _, e = (float(x) for x in _bias_terms(va, theta))
    return float(va), ohm_c, sign * (pf_c * mag * e)


def differential_conductance_g(v, t: float, p: ConductionParams, g=1.0):
    """dI/dv of the composite current at state multiplier g, S. Even in v
    and strictly positive; v and g broadcast."""
    va, ga, (ohm_c, pf_c, theta) = _checked(v, t, p, g)
    return _as_input_kind(
        _conductance(ga, _bias_terms(va, theta), ohm_c, pf_c, theta), v, g)


def current_total(v, t: float, p: ConductionParams, s: "DeviceState"):
    """Composite device current of one device state. Exactly the sum of
    the two channel functions."""
    return current_total_g(v, t, p, state_multiplier(p, s.w, s.d2d_log10))


def differential_conductance(v, t: float, p: ConductionParams, s: "DeviceState"):
    """dI/dv of one device state's composite current, S."""
    return differential_conductance_g(v, t, p,
                                      state_multiplier(p, s.w, s.d2d_log10))


def on_off(p: ConductionParams, t: float = T_REF, v_read: float = V_ONOFF) -> float:
    """LRS/HRS current ratio at the read bias.

    Equal to g_lrs for every bias and temperature because the state
    multiplier is common to both channels.
    """
    i_on = current_total_g(v_read, t, p, state_multiplier(p, 1.0))
    i_off = current_total_g(v_read, t, p, state_multiplier(p, 0.0))
    return i_on / i_off


def self_selection_ratio(v: float, t: float, p: ConductionParams, s: "DeviceState") -> float:
    """I(v)/I(v/2): rectification available for select-free arrays."""
    if v == 0:
        raise ValueError("self-selection ratio is undefined at v = 0")
    return current_total(v, t, p, s) / current_total(0.5 * v, t, p, s)


def _selection_of_eps(eps_r: float, t: float) -> float:
    """Selection ratio I(0.5)/I(0.25) of a crossover-pinned channel mix."""
    theta = _theta(eps_r, DEFAULT_D_FE, t)

    def shape(v: float) -> float:
        return v * math.exp(theta * math.sqrt(v))

    u = shape(V_CROSSOVER) / V_CROSSOVER  # Ohmic level matching the crossover
    num = u * V_SELECT + shape(V_SELECT)
    den = u * 0.5 * V_SELECT + shape(0.5 * V_SELECT)
    return num / den


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f bracketed by [xa, xb] by Brent's method.

    A step-for-step port of the C kernel behind scipy.optimize.brentq, so
    calibrate returns the same bits without importing scipy.optimize,
    which costs more to import, in time and memory, than the rest of the
    package.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"root search did not converge in {maxiter} iterations")


def calibrate(targets: CalibrationTargets = DEFAULT_TARGETS,
              skeleton: ConductionParams | None = None,
              t: float = T_REF) -> ConductionParams:
    """Solve the prefactors and permittivity to meet the three targets.

    Deterministic: g_lrs is the on/off target directly; eps_r comes from a
    bracketed 1-D root solve of the selection ratio with the channels
    balanced at V_CROSSOVER; the overall scale then matches r_on. The
    returned parameters satisfy all three targets within 1%.

    Raises CalibrationError when the targets are infeasible (selection
    below the Ohmic limit of 2, beyond what eps_r >= 1 field lowering can
    provide, or above 2 but below the ratio at eps_r = 1e4, about 2.093 at
    300 K), and when the temperature or the Ohmic activation energy
    takes a channel shape past float range: the trap-emission field
    lowering overflows at a few kelvin, and the Ohmic shape underflows to
    zero once ea_ohm/kT passes about 745. Those carry NaN residuals, since
    no parameter set could be evaluated.
    """
    skel = skeleton if skeleton is not None else ConductionParams()
    if targets.r_on_ohms <= 0:
        raise CalibrationError("r_on target must be positive", (1.0, 0.0, 0.0))
    if targets.on_off < 1.0:
        raise CalibrationError("on_off target below 1 is not representable",
                               (0.0, 1.0, 0.0))
    g_lrs = targets.on_off
    sel = targets.selection
    kt = K_B * t

    def shape_pf(v: float, theta: float) -> float:
        return (v / skel.d_fe) * math.exp(-skel.phi_pf * Q_E / kt
                                          + theta * math.sqrt(v))

    def shape_ohm(v: float) -> float:
        return t ** 1.5 * math.exp(-skel.ea_ohm * Q_E / kt) * (v / skel.d_fe)

    # Float range of the channel shapes. eps_r = 1 is the strongest field
    # lowering the solve can try, so its selection ratio bounds them all.
    try:
        ohm_x = shape_ohm(V_CROSSOVER)
        sel_max = _selection_of_eps(_EPS_R_MIN, t)
    except OverflowError:
        ohm_x = sel_max = math.nan
    if not math.isfinite(sel_max):
        raise CalibrationError(
            f"t_kelvin = {t} K is outside float range: a channel shape "
            "overflows", _NO_RESIDUALS)
    if ohm_x == 0.0:
        raise CalibrationError(
            f"ea_ohm = {skel.ea_ohm} eV at t_kelvin = {t} K is outside float "
            "range: the Ohmic channel underflows to zero", _NO_RESIDUALS)

    if sel < 2.0 - 1e-9:
        best = replace(skel, c_pf=0.0, c_ohm=1.0, g_lrs=g_lrs)
        raise CalibrationError(
            "selection target below the Ohmic limit of 2",
            _target_residuals(best, targets, t))

    if abs(sel - 2.0) <= 1e-9:
        # Pure-Ohmic limit: the linear channel alone gives exactly 2.
        c_ohm = (V_READ / targets.r_on_ohms) / (g_lrs * skel.area * shape_ohm(V_READ))
        return replace(skel, c_pf=0.0, c_ohm=c_ohm, g_lrs=g_lrs)

    f = lambda e: _selection_of_eps(e, t) - sel
    if sel_max - sel < 0.0:
        # Even the strongest admissible field lowering falls short.
        attempt = _calibrate_at_eps(_EPS_R_MIN, targets, skel, t, shape_pf, shape_ohm)
        raise CalibrationError(
            "selection target unreachable for eps_r >= 1",
            _target_residuals(attempt, targets, t))
    if f(_EPS_R_MAX) > 0.0:
        # Even the weakest field lowering in the bracket overshoots.
        attempt = _calibrate_at_eps(_EPS_R_MAX, targets, skel, t, shape_pf, shape_ohm)
        raise CalibrationError(
            "selection target unreachable for eps_r <= 1e4",
            _target_residuals(attempt, targets, t))
    eps_r = _brentq(f, _EPS_R_MIN, _EPS_R_MAX, xtol=1e-12, rtol=8.9e-16)
    params = _calibrate_at_eps(eps_r, targets, skel, t, shape_pf, shape_ohm)

    try:
        with np.errstate(over="raise"):
            res = _target_residuals(params, targets, t)
    except FloatingPointError:  # eps_r was solved at DEFAULT_D_FE
        raise CalibrationError(
            f"d_fe = {skel.d_fe} m at t_kelvin = {t} K is outside float range: "
            "the trap-emission current overflows at the selection bias",
            _NO_RESIDUALS) from None
    if not all(abs(r) <= 0.01 for r in res):  # a NaN residual fails too
        raise CalibrationError("calibration post-check failed", res)
    return params


def _calibrate_at_eps(eps_r, targets, skel, t, shape_pf, shape_ohm) -> ConductionParams:
    theta = _theta(eps_r, skel.d_fe, t)
    try:
        ratio = shape_pf(V_CROSSOVER, theta) / shape_ohm(V_CROSSOVER)  # c_ohm/c_pf
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise CalibrationError(
            f"ea_ohm = {skel.ea_ohm} eV and phi_pf = {skel.phi_pf} eV at "
            f"t_kelvin = {t} K are outside float range: the channel split "
            "at the crossover bias is not a positive float", _NO_RESIDUALS)
    i_read = V_READ / targets.r_on_ohms
    denom = targets.on_off * skel.area * (shape_pf(V_READ, theta)
                                          + ratio * shape_ohm(V_READ))
    c_pf = i_read / denom
    return replace(skel, eps_r=eps_r, c_pf=c_pf, c_ohm=c_pf * ratio,
                   g_lrs=targets.on_off)


# The five reads behind the figures of merit, as (bias, state w): r_on at
# V_READ, on/off at V_ONOFF for w = 1 and w = 0, and selection at V_SELECT
# and V_SELECT / 2.
_FIGURE_BIASES = np.array([V_READ, V_ONOFF, V_ONOFF, V_SELECT, 0.5 * V_SELECT])
_FIGURE_STATES = np.array([1.0, 1.0, 0.0, 1.0, 1.0])
_FIGURE_BIASES.flags.writeable = _FIGURE_STATES.flags.writeable = False


def _figures_of_merit(p: ConductionParams, t: float) -> tuple[float, float, float]:
    """The LRS figures calibrate matches to its targets: (r_on at V_READ,
    on/off at V_ONOFF, selection at V_SELECT).

    The five currents come from one current_total_g call on a 5-element
    bias array, with one state_multiplier array call. Each current has the
    bits of the scalar current_total call of its bias and state, and the
    ratios are taken in Python floats, as on_off and self_selection_ratio
    take them. The multiplier times area is an array product here, so
    under the caller's errstate its overflow raises, where the scalar
    form's float product read inf.
    """
    g = state_multiplier(p, _FIGURE_STATES)
    i_read, i_on, i_off, i_sel, i_half = current_total_g(
        _FIGURE_BIASES, t, p, g).tolist()
    return V_READ / i_read, i_on / i_off, i_sel / i_half


def _target_residuals(p: ConductionParams, targets: CalibrationTargets,
                      t: float) -> tuple[float, float, float]:
    goals = (targets.r_on_ohms, targets.on_off, targets.selection)
    return tuple(x / goal - 1.0 for x, goal in zip(_figures_of_merit(p, t), goals))


_DEFAULT_PARAMS: ConductionParams | None = None


def default_params() -> ConductionParams:
    """Parameters calibrated to the default targets (cached)."""
    global _DEFAULT_PARAMS
    if _DEFAULT_PARAMS is None:
        _DEFAULT_PARAMS = calibrate()
    return _DEFAULT_PARAMS
