"""Parameter extraction from I-V sweeps and pulse traces.

The extraction routines mirror the standard characterization flow:
trap-emission fits on ln(I/V) versus sqrt(V) over several temperatures,
hopping fits as Arrhenius lines at fixed bias, a temperature-spread test
that separates thermally activated transport from direct tunneling, a
nonlinearity fit for pulse-update traces, and a level-separation count
for cumulative-distribution analyses of noisy traces.

Fits never consume model parameter records; they see only (V, I, T)
sweeps so they can be run against measured data or against synthetic
curves alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPS_0, K_B, Q_E
from .conduction import DEFAULT_D_FE, check_temperature

__all__ = [
    "PF_WINDOW",
    "OHMIC_WINDOW",
    "RegressionResult",
    "fit_linear",
    "Sweep",
    "PfExtraction",
    "extract_pf",
    "OhmicExtraction",
    "extract_ohmic",
    "TunnelingVerdict",
    "discriminate_tunneling",
    "UpdateFit",
    "fit_update_a",
    "LevelReport",
    "cdf_levels",
]

# Default bias windows: trap emission dominates the upper part of the
# read regime, hopping the bottom of it.
PF_WINDOW = (0.2, 0.3)
OHMIC_WINDOW = (0.02, 0.1)

# A log-log I-V slope farther than this from 1 means the window is not
# Ohmic-dominated and the hopping fit would be meaningless.
OHMIC_SLOPE_TOL = 0.5

# Noise floor for the temperature-spread test: ln-current spread across
# temperatures below this is treated as temperature-independent.
TUNNELING_SPREAD_TOL = 0.05


@dataclass(frozen=True)
class RegressionResult:
    """Ordinary least squares line fit y = slope*x + intercept."""

    slope: float
    intercept: float
    stderr_slope: float
    stderr_intercept: float
    r2: float
    n: int


def fit_linear(x, y) -> RegressionResult:
    """Least-squares straight line with parameter standard errors.

    Standard errors use the unbiased residual variance (n - 2 dof); with
    exactly two points they are reported as zero.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("need at least two points for a line fit")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("fit inputs contain non-finite values")
    xm = x.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are all identical")
    slope = float(np.sum((x - xm) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xm)
    resid = y - (slope * x + intercept)
    rss = float(np.sum(resid ** 2))
    sstot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / sstot if sstot > 0 else 1.0
    if n > 2:
        s2 = rss / (n - 2)
    else:
        s2 = 0.0
    se_slope = math.sqrt(s2 / sxx)
    se_int = math.sqrt(s2 * (1.0 / n + xm * xm / sxx))
    return RegressionResult(slope=slope, intercept=intercept,
                            stderr_slope=se_slope, stderr_intercept=se_int,
                            r2=r2, n=n)


@dataclass(frozen=True)
class Sweep:
    """One I-V sweep at a fixed temperature. Voltages must be positive
    and strictly increasing; currents must carry the same sign."""

    v: np.ndarray
    i: np.ndarray
    t_kelvin: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        i = np.asarray(self.i, dtype=float)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "i", i)
        if v.ndim != 1 or v.shape != i.shape:
            raise ValueError("v and i must be 1-D arrays of equal length")
        if v.size < 3:
            raise ValueError("a sweep needs at least three points")
        if not np.all(v > 0):
            raise ValueError("sweep voltages must be positive")
        if not np.all(np.diff(v) > 0):
            raise ValueError("sweep voltages must be strictly increasing")
        if not np.all(i > 0):
            raise ValueError("sweep currents must be positive")
        check_temperature(self.t_kelvin)


def _window_sweeps(sweeps, window) -> list[Sweep]:
    """Restrict sweeps to a bias window and validate the extraction set.

    Channel fits need at least 3 distinct temperatures and 4 points per
    sweep inside the window so both regression stages are overdetermined.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 <= lo < hi):
        raise ValueError(f"window must satisfy 0 <= lo < hi, got {window}")
    sweeps = list(sweeps)
    temps = [s.t_kelvin for s in sweeps]
    if len(set(temps)) != len(temps):
        raise ValueError("sweep temperatures must be distinct")
    if len(temps) < 3:
        raise ValueError("need sweeps at three or more distinct temperatures")
    out = []
    for s in sweeps:
        mask = (s.v >= lo) & (s.v <= hi)
        if int(mask.sum()) < 4:
            raise ValueError(
                f"sweep at {s.t_kelvin} K has {int(mask.sum())} points inside "
                f"[{lo}, {hi}] V; need at least four")
        out.append(Sweep(v=s.v[mask], i=s.i[mask], t_kelvin=s.t_kelvin))
    return out


@dataclass(frozen=True)
class PfExtraction:
    """Trap-emission fit results.

    eps_r comes from the slope of the per-temperature field-lowering
    slopes against 1/T; phi_pf_ev from the Arrhenius line through the
    zero-field intercepts.
    """

    eps_r: float
    phi_pf_ev: float
    slope_vs_inv_t: RegressionResult
    intercept_vs_inv_t: RegressionResult
    per_temperature: tuple[RegressionResult, ...]


def extract_pf(sweeps, window=PF_WINDOW,
               d_fe: float = DEFAULT_D_FE) -> PfExtraction:
    """Fit the trap-emission channel from multi-temperature sweeps.

    Only points with bias inside `window` enter the fit. Per temperature,
    ln(I/V) is fit against sqrt(V); the slopes scale as 1/T with
    coefficient K = (q/k)*sqrt(q/(pi*eps0*eps_r*d_fe)), giving

        eps_r = q^3 / (pi * eps0 * d_fe * k^2 * K^2),

    and the V->0 intercepts follow an Arrhenius law whose slope is
    -q*phi_pf/k. Area and state prefactors only shift the intercepts by a
    temperature-independent constant, so they drop out of both results.
    """
    sweeps = _window_sweeps(sweeps, window)
    fits = []
    slopes = []
    intercepts = []
    inv_t = []
    for s in sweeps:
        fit = fit_linear(np.sqrt(s.v), np.log(s.i / s.v))
        fits.append(fit)
        slopes.append(fit.slope)
        intercepts.append(fit.intercept)
        inv_t.append(1.0 / s.t_kelvin)
    slope_fit = fit_linear(inv_t, slopes)
    if slope_fit.slope <= 0:
        raise ValueError("field-lowering slope does not scale as 1/T; "
                         "window is not trap-emission dominated")
    k_coef = slope_fit.slope
    eps_r = Q_E ** 3 / (math.pi * EPS_0 * d_fe * (K_B * k_coef) ** 2)
    int_fit = fit_linear(inv_t, intercepts)
    phi = -int_fit.slope * K_B / Q_E
    return PfExtraction(eps_r=eps_r, phi_pf_ev=phi, slope_vs_inv_t=slope_fit,
                        intercept_vs_inv_t=int_fit, per_temperature=tuple(fits))


@dataclass(frozen=True)
class OhmicExtraction:
    """Hopping-channel fit results: activation energy, the Arrhenius line
    through the per-temperature intercepts, and the log-log linearity
    evidence per temperature."""

    ea_ohm_ev: float
    arrhenius: RegressionResult
    loglog_slopes: tuple[float, ...]
    per_temperature: tuple[RegressionResult, ...]


def extract_ohmic(sweeps, window=OHMIC_WINDOW) -> OhmicExtraction:
    """Fit the hopping channel from multi-temperature sweeps.

    Only points with bias inside `window` enter the fit. Per temperature,
    ln(I/T^1.5) is fit against ln(V); a slope farther than
    OHMIC_SLOPE_TOL from 1 means the window is not linear and the fit is
    rejected. The intercepts carry the full temperature activation,
    ln(C) - Ea*q/(k*T), so the activation energy comes from the Arrhenius
    line of intercepts against 1/T. Using intercepts rather than currents
    at one shared bias keeps the estimate independent of how the voltage
    grids happen to overlap.
    """
    sweeps = _window_sweeps(sweeps, window)
    slopes = []
    fits = []
    inv_t = []
    intercepts = []
    for s in sweeps:
        fit = fit_linear(np.log(s.v), np.log(s.i / s.t_kelvin ** 1.5))
        if abs(fit.slope - 1.0) > OHMIC_SLOPE_TOL:
            raise ValueError(
                f"log-log slope {fit.slope:.3f} at {s.t_kelvin} K is not Ohmic")
        fits.append(fit)
        slopes.append(fit.slope)
        inv_t.append(1.0 / s.t_kelvin)
        intercepts.append(fit.intercept)
    arr = fit_linear(inv_t, intercepts)
    ea = -arr.slope * K_B / Q_E
    return OhmicExtraction(ea_ohm_ev=ea, arrhenius=arr,
                           loglog_slopes=tuple(slopes),
                           per_temperature=tuple(fits))


@dataclass(frozen=True)
class TunnelingVerdict:
    """Mechanism call from the temperature spread of the current.

    tunneling_rejected is True when ln(I) at the probe bias moves with
    temperature beyond the threshold (thermally activated transport),
    False when it does not (tunneling-like), and None when a single
    temperature makes the test inconclusive. t_sensitivity is the
    measured ln-current spread across temperatures.
    """

    tunneling_rejected: bool | None
    t_sensitivity: float
    v_probe: float
    n_temperatures: int

    @property
    def label(self) -> str | None:
        if self.tunneling_rejected is None:
            return None
        return "thermal" if self.tunneling_rejected else "tunneling"


def discriminate_tunneling(sweeps, spread_tol: float = TUNNELING_SPREAD_TOL) -> TunnelingVerdict:
    """Classify transport as thermally activated or tunneling-like.

    Thermally activated channels move by order exp(-Ea/kT), so ln(I) at a
    fixed bias spreads strongly over a modest temperature range. The
    reference hypothesis, elastic tunneling through a static barrier,
    predicts zero spread (the Simmons form has no temperature in it), so
    tunneling is rejected when the measured spread exceeds three times
    that prediction; spread_tol keeps measurement noise from triggering a
    rejection on its own. The probe bias is the largest voltage common to
    all sweeps.
    """
    sweeps = list(sweeps)
    if not sweeps:
        raise ValueError("need at least one sweep")
    temps = sorted({s.t_kelvin for s in sweeps})
    v_probe = min(float(s.v[-1]) for s in sweeps)
    if len(temps) < 2:
        return TunnelingVerdict(tunneling_rejected=None, t_sensitivity=math.nan,
                                v_probe=v_probe, n_temperatures=len(temps))
    if any(v_probe < float(s.v[0]) for s in sweeps):
        raise ValueError("sweeps share no common bias window")
    ln_i = [float(np.interp(v_probe, s.v, np.log(s.i))) for s in sweeps]
    spread = max(ln_i) - min(ln_i)
    tunneling_spread = 0.0
    rejected = spread > max(3.0 * tunneling_spread, spread_tol)
    return TunnelingVerdict(tunneling_rejected=rejected, t_sensitivity=spread,
                            v_probe=v_probe, n_temperatures=len(temps))


@dataclass(frozen=True)
class UpdateFit:
    """Saturating-exponential fit g_k ~ amplitude * (1 - exp(-k/a))."""

    a: float
    amplitude: float
    rss: float
    at_bound: bool


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _minimize_bounded(func, a: float, b: float, xatol: float,
                      maxiter: int = 500) -> float:
    """Minimizer of func on [a, b] by Brent's bounded method.

    A step-for-step port of scipy.optimize.minimize_scalar(method="bounded"),
    so fit_update_a returns the same bits without importing scipy.optimize,
    which costs more to import, in time and memory, than the rest of the
    package.
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm - xf < 0 else tol1
            else:
                golden = True
        if golden:  # golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            break
    return xf


# Elements per row chunk of fit_update_a's coarse A grid: a trace of up to
# 1310 points is one chunk, and a longer one keeps a few MiB alive.
_GRID_CHUNK = 2 ** 18


def _coarse_costs(k: np.ndarray, g: np.ndarray,
                  grid: np.ndarray) -> np.ndarray:
    """fit_update_a's residual sum of squares at each A of grid: entry i
    equals its rss_of(grid[i]), as each row sum runs over the same
    contiguous values in the same order. Rows are independent, so they
    run in chunks of about _GRID_CHUNK elements; the ufuncs write in
    place, so at most two chunk-sized arrays are alive."""
    costs = np.empty_like(grid)
    step = max(_GRID_CHUNK // k.size, 1)
    for i in range(0, grid.size, step):
        f = -k / grid[i:i + step, None]
        np.subtract(1.0, np.exp(f, out=f), out=f)
        amp = np.sum(g * f, axis=1) / np.sum(f * f, axis=1)
        r = np.multiply(amp[:, None], f)
        np.subtract(g, r, out=r)
        costs[i:i + step] = np.sum(np.multiply(r, r, out=r), axis=1)
        del f, r  # before the next chunk's f is made
    return costs


def fit_update_a(counts, trace, a_min: float = 0.1,
                 a_max: float | None = None) -> UpdateFit:
    """Fit the update nonlinearity scale A from (pulse count, level) pairs.

    counts are the cumulative pulse numbers at which the trace was read
    (strictly increasing, positive); trace is the normalized switching
    progress at those counts (for a potentiation trace from the pristine
    state that is w itself; for a depression trace pass 1 - w). The model
    is amplitude * (1 - exp(-k/A)); for each candidate A the amplitude has
    the closed form sum(g*f)/sum(f^2), leaving a 1-D search over A (coarse
    log grid plus a bounded refinement) in [a_min, a_max] with a_max
    defaulting to 10x the largest count. at_bound flags an optimum pinned
    to the search range, which means the data do not constrain A (for
    example a near-linear trace, whose best fit runs away to large A).
    """
    k = np.asarray(counts, dtype=float)
    g = np.asarray(trace, dtype=float)
    if k.ndim != 1 or k.shape != g.shape:
        raise ValueError("counts and trace must be 1-D arrays of equal length")
    if k.size < 5:
        raise ValueError("need at least five (count, level) pairs")
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(g))):
        raise ValueError("fit inputs contain non-finite values")
    if not np.all(k > 0) or not np.all(np.diff(k) > 0):
        raise ValueError("counts must be positive and strictly increasing")
    if a_max is None:
        a_max = 10.0 * float(k[-1])
    if not 0 < a_min < a_max:
        raise ValueError("need 0 < a_min < a_max")

    def rss_of(a: float) -> tuple[float, float]:
        f = 1.0 - np.exp(-k / a)
        denom = float(np.sum(f * f))
        amp = float(np.sum(g * f)) / denom
        r = g - amp * f
        return float(np.sum(r * r)), amp

    grid = np.geomspace(a_min, a_max, 200)
    costs = _coarse_costs(k, g, grid)
    best = int(np.argmin(costs))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    a_hat = float(_minimize_bounded(lambda a: rss_of(a)[0], lo, hi, xatol=1e-10))
    rss, amp = rss_of(a_hat)
    at_bound = best == 0 or best == grid.size - 1
    return UpdateFit(a=a_hat, amplitude=amp, rss=rss, at_bound=at_bound)


@dataclass(frozen=True)
class LevelReport:
    """Distinguishable-level count from repeated pulse traces."""

    n_levels: int
    medians: np.ndarray
    iqrs: np.ndarray
    pooled_iqr: float


def cdf_levels(traces) -> LevelReport:
    """Count statistically separated levels across repeated traces.

    traces has shape (n_cycles, n_points): one row per repetition, one
    column per pulse index. Two adjacent pulse indices are separated when
    the gap between their median levels exceeds the pooled (median)
    interquartile range; the level count is one plus the number of
    separated adjacent pairs.
    """
    m = np.asarray(traces, dtype=float)
    if m.ndim != 2:
        raise ValueError("traces must be a 2-D array (cycles x pulse index)")
    if m.shape[0] < 2 or m.shape[1] < 2:
        raise ValueError("need at least two cycles and two pulse indices")
    if not np.all(np.isfinite(m)):
        raise ValueError("traces contain non-finite values")
    medians = np.median(m, axis=0)
    q75, q25 = np.percentile(m, [75, 25], axis=0)
    iqrs = q75 - q25
    pooled = float(np.median(iqrs))
    gaps = np.abs(np.diff(medians))
    n_levels = 1 + int(np.sum(gaps > pooled))
    return LevelReport(n_levels=n_levels, medians=medians, iqrs=iqrs,
                       pooled_iqr=pooled)
