"""Gilbert Gaussian cell model.

A single cell multiplies an input current by a bell-shaped function of a
differential bias voltage: I_out ~ (I_in / 2) exp(-gamma * dV^2).  Kernel
weights are programmed by inverting that relation for dV.  A higher-fidelity
sigmoid-product mode (product of two logistic transfer curves) exists to
exercise the deviation-from-Gaussian machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dog import GaussianKernel
from .errors import (DimensionError, InvalidGainError, InvalidParameterError,
                     UnachievableGainError, check_range, scaled_stat)

MODEL_IDEAL = "ideal-exponential"
MODEL_SIGMOID = "sigmoid-product"

# dV window the exponential approximation was characterized over; responses
# requested outside it are extrapolation and flagged in deviation reports.
VALIDITY_WINDOW_V = 1.3

PEAK_GAIN = 0.5

FIT_STEPS = 100  # Gauss-Newton steps of fit_gaussian at most
FIT_TOL = 1e-12  # a step of at most this fraction of each parameter ends the fit


@dataclass(frozen=True)
class SigmoidProductParams:
    """Logistic slope (1/V) and half-separation (V) of the two sigmoids."""

    steepness: float = 10.0
    half_separation: float = 0.4

    def __post_init__(self):
        check_range("steepness", self.steepness, above=0)
        check_range("half_separation", self.half_separation, above=0)


@dataclass(frozen=True)
class CellParams:
    gamma: float = 1.0  # 1/V^2
    i_in_nominal: float = 100e-9  # A
    model_kind: str = MODEL_IDEAL
    sigmoid: SigmoidProductParams = SigmoidProductParams()

    def __post_init__(self):
        check_range("gamma", self.gamma, above=0)
        check_range("i_in_nominal", self.i_in_nominal, above=0)
        if self.model_kind not in (MODEL_IDEAL, MODEL_SIGMOID):
            raise InvalidParameterError(f"unknown cell model {self.model_kind!r}")


@dataclass(frozen=True)
class ProgrammedKernel:
    """dV biases realizing a Gaussian kernel on a cell array.

    scale is the global gain factor s = (1/2) / max(w), so the programmed
    per-cell gain is s * w(i, j).  The center cell sits at dV = 0, or at
    sqrt(2**-53 / gamma) where s * max(w) rounds to 1/2 - 2**-54.
    """

    dv_grid: np.ndarray
    scale: float
    source_kernel: GaussianKernel
    params: CellParams

    @property
    def gain_sum(self) -> float:
        """Sum of programmed gains; the largest possible node output ratio."""
        return float(self.scale * self.source_kernel.weights.sum())


@dataclass(frozen=True)
class DeviationReport:
    sweep_lo: float
    sweep_hi: float
    n_points: int
    avg_abs_deviation: float  # A
    max_abs_deviation: float  # A
    reference: str
    extrapolated: bool  # sweep leaves the characterized +-1.3 V window


def _logistic(x):
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the limit 1 / (1 + inf) = 0
        return 1.0 / (1.0 + np.exp(-x))


def cell_factors(dv, params: CellParams, gamma_mult=1.0):
    """I_out / I_in of each cell as the two factors cell_response multiplies
    I_in by, in that order; broadcast over dv and gamma_mult.

    gamma_mult scales the ideal model's gamma; the sigmoid model has no gamma,
    and its curvature near dV=0 scales with the squared slope, so there the
    multiplier scales the steepness by sqrt(gamma_mult).
    """
    m = np.asarray(gamma_mult, dtype=np.float64)
    if not np.all(m > 0):  # nan too
        raise InvalidParameterError(f"gamma multipliers must be positive, got {float(m.min())}")
    dv = np.asarray(dv, dtype=np.float64)
    # an infinite gamma or slope times dV = 0 would give nan: check the largest (Python floats)
    if params.model_kind == MODEL_IDEAL:
        check_range(f"gamma {params.gamma} times its largest multiplier",
                    params.gamma * float(m.max()))
        with np.errstate(over="ignore"):  # gamma dV^2 overflowing to inf: exp's limit is 0
            return 0.5, np.exp(-(params.gamma * m) * dv * dv)
    check_range(f"steepness {params.sigmoid.steepness} times the root of the largest gamma "
                "multiplier", params.sigmoid.steepness * math.sqrt(float(m.max())))
    k = params.sigmoid.steepness * np.sqrt(m)
    vw = params.sigmoid.half_separation
    adv = np.abs(dv)  # the curve is even; |dv| keeps that exact in floats
    with np.errstate(over="ignore"):  # k is finite: an infinite argument is the logistic's limit
        return _logistic(k * (adv + vw)), _logistic(-k * (adv - vw))


def cell_response(i_in, dv, params: CellParams):
    """Output current of one cell; vectorized over i_in and/or dv."""
    i_in = np.asarray(i_in, dtype=np.float64)
    if not np.all((i_in >= 0) & (i_in < np.inf)):  # nan fails both
        raise InvalidParameterError("input current must be nonnegative and finite")
    if np.any(np.isnan(dv)):
        raise InvalidParameterError("bias dV must not be nan")
    a, b = cell_factors(dv, params)
    try:
        out = i_in * a * b
    except ValueError:  # shapes that do not broadcast
        raise DimensionError(f"input currents of shape {i_in.shape} and biases of shape "
                             f"{np.shape(dv)} do not broadcast") from None
    return out if out.ndim else float(out)


def weight_to_dv(gain, params: CellParams):
    """Nonnegative dV realizing I_out / I_in = gain in the ideal model;
    elementwise on an array of gains, a float for a scalar."""
    g = np.asarray(gain, dtype=np.float64)
    if not np.all(g > 0):  # nan too
        raise InvalidGainError(f"gain must be positive, got {float(g.min())}")
    if np.any(g > PEAK_GAIN):
        raise UnachievableGainError(f"gain {float(g.max())} exceeds the cell peak gain {PEAK_GAIN}")
    with np.errstate(over="ignore"):  # a tiny gamma asks for an infinite bias: rejected below
        dv = np.sqrt(-np.log(2.0 * g) / params.gamma)
    check_range(f"largest programmed bias at gamma {params.gamma}", float(dv.max(initial=0.0)))
    return dv if dv.ndim else float(dv)


def program_kernel(kernel: GaussianKernel, params: CellParams) -> ProgrammedKernel:
    """Map kernel weights to dV biases, scaled so the max weight gets gain 1/2."""
    w = kernel.weights
    if not np.all((w > 0) & (w < np.inf)):  # nan fails both
        raise InvalidGainError("kernel weights must all be positive and finite to program cells")
    w_max = float(w.max())
    scale = PEAK_GAIN / w_max
    check_range(f"programming scale {PEAK_GAIN} / largest weight {w_max} (subnormal)", scale)
    # scale * max(w) rounds to 1/2 or 1/2 - 2**-54: the center bias is 0 or sqrt(2**-53 / gamma)
    return ProgrammedKernel(dv_grid=weight_to_dv(scale * w, params), scale=scale,
                            source_kernel=kernel, params=params)


def fit_gaussian(dv: np.ndarray, i_out: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of a * exp(-b * dv^2) to measured samples.

    The fit starts from the log-linear fit over the positive samples, weighted
    by the samples so that its log residuals approximate the linear ones.
    Gauss-Newton steps refine it, each halved until it does not raise the sum
    of squared residuals.  It stops once each step is at most FIT_TOL of its
    parameter, or after FIT_STEPS steps.  It works on the samples scaled by a
    power of two to a peak in [0.5, 1), on u = dv^2 less its smallest value x0
    and on unit-norm Jacobian columns, so that tiny currents, off-centre
    sweeps and steep curves stay well conditioned.  Raises
    InvalidParameterError when fewer than two distinct |dv| have a positive
    sample, or when the fit is not finite.
    """
    with np.errstate(over="ignore"):  # a |dV| above 1.3e154: rejected below
        x = np.asarray(dv, dtype=np.float64) ** 2
    check_range("largest swept dV^2", float(x.max()))
    i_out = np.asarray(i_out, dtype=np.float64)
    pos = i_out > 0
    if np.unique(x[pos]).size < 2:
        raise InvalidParameterError("a Gaussian fit needs positive responses at two or more "
                                    "distinct |dV|")
    exponent = math.frexp(float(i_out.max()))[1]
    y = np.ldexp(i_out, -exponent)
    x0 = float(x.min())
    u = x - x0
    w = y[pos]
    c = np.linalg.lstsq(np.column_stack([w, w * u[pos]]), w * np.log(w), rcond=None)[0]

    def residuals(p):  # p: the scaled curve's value at x0, and b
        g = np.exp(-p[1] * u)
        r = y - p[0] * g
        return r @ r, r, np.column_stack([g, -p[0] * u * g])

    # a step may overshoot to inf or nan: its sum of squares rejects it
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array([np.exp(c[0]), -c[1]])
        ssr, r, jac = residuals(p)
        check_range("sum of squared residuals of the log-linear fit", float(ssr))
        for _ in range(FIT_STEPS):
            norms = np.linalg.norm(jac, axis=0)
            norms[norms == 0] = 1.0
            step = np.linalg.lstsq(jac / norms, r, rcond=None)[0] / norms
            step = np.nan_to_num(step)  # an infinite step halves from the largest float
            while not (trial := residuals(p + step))[0] <= ssr:  # nan compares false
                step /= 2
            p = p + step
            ssr, r, jac = trial
            if np.all(np.abs(step) <= FIT_TOL * np.abs(p)):
                break
        peak = float(np.ldexp(p[0] * np.exp(p[1] * x0), exponent))
    check_range("fitted Gaussian peak", peak)
    check_range("fitted Gaussian curvature", float(p[1]))
    return peak, float(p[1])


def sweep_deviation(
    params: CellParams,
    lo: float = -VALIDITY_WINDOW_V,
    hi: float = VALIDITY_WINDOW_V,
    n_points: int = 261,
    reference: str = "fitted-gaussian",
) -> DeviationReport:
    """Sweep dV, compare the cell response against a Gaussian reference.

    reference "eq4-gaussian" compares against the ideal exponential at the
    cell's own gamma; "fitted-gaussian" compares against the least-squares
    best Gaussian over the sweep.  Deviations are absolute currents.
    """
    return deviation_report(lo, hi, reference, *sweep_curves(params, lo, hi, n_points, reference))


def deviation_report(lo, hi, reference, dv, i_out, ref) -> DeviationReport:
    """DeviationReport of sweep_curves' (dv, i_out, ref) over [lo, hi]."""
    deviation = np.abs(i_out - ref)
    return DeviationReport(
        sweep_lo=lo,
        sweep_hi=hi,
        n_points=len(dv),
        avg_abs_deviation=scaled_stat(np.mean, deviation),
        max_abs_deviation=float(deviation.max()),
        reference=reference,
        extrapolated=bool(lo < -VALIDITY_WINDOW_V or hi > VALIDITY_WINDOW_V),
    )


def sweep_curves(params, lo, hi, n_points, reference="fitted-gaussian"):
    """Raw (dv, response, reference) arrays behind sweep_deviation."""
    if not lo < hi:
        raise InvalidParameterError(f"degenerate sweep range [{lo}, {hi}]")
    # Python floats: an overflowing square is inf, with no numpy warning
    check_range("square of the widest sweep bound", max(lo * lo, hi * hi))
    check_range("sweep points", n_points, at_least=3)
    if reference not in ("fitted-gaussian", "eq4-gaussian"):
        raise InvalidParameterError(f"unknown deviation reference {reference!r}")
    dv = np.linspace(lo, hi, n_points)
    i_out = np.asarray(cell_response(params.i_in_nominal, dv, params))
    if reference == "eq4-gaussian":
        ideal = replace(params, model_kind=MODEL_IDEAL)
        ref = np.asarray(cell_response(params.i_in_nominal, dv, ideal))
    else:
        a, b = fit_gaussian(dv, i_out)
        ref = a * np.exp(-b * dv * dv)
    return dv, i_out, ref


def fit_gamma_from_file(path) -> float:
    """Calibrate gamma from a measured (dv volts, i_out amperes) sweep file.

    Two whitespace-separated columns, one sample per line, '#' comments
    allowed.  Log-domain linear least squares: ln I = ln(I_in/2) - gamma dv^2,
    on dv^2 scaled by a power of two, which leaves the fit's bits as they are
    but keeps its column norms finite and nonzero.  Raises
    InvalidParameterError when dv^2 overflows or is 0 everywhere, or when the
    fit is rank-deficient, as it is when every sample has the same |dv|.
    """
    try:
        data = np.loadtxt(path, dtype=np.float64)
    except ValueError as exc:  # a non-numeric or missing cell
        raise InvalidParameterError(f"{path}: unreadable calibration data ({exc})") from None
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 2:
        raise InvalidParameterError(f"{path}: calibration file needs >= 2 rows of (dv, i_out)")
    if not np.all(np.isfinite(data)):
        raise InvalidParameterError(f"{path}: calibration data must be finite")
    dv, i_out = data[:, 0], data[:, 1]
    if np.any(i_out <= 0):
        raise InvalidParameterError(f"{path}: calibration currents must be positive")
    with np.errstate(over="ignore"):  # a |dv| above 1.3e154: rejected below
        x = dv * dv
    check_range(f"{path}: largest calibration dv^2", float(x.max()), above=0)
    exponent = math.frexp(float(x.max()))[1]
    (slope, _), _, rank, _, _ = np.polyfit(np.ldexp(x, -exponent), np.log(i_out), 1, full=True)
    if rank < 2:
        raise InvalidParameterError(f"{path}: calibration data needs two or more distinct |dV|")
    with np.errstate(over="ignore"):  # an infinite gamma: CellParams rejects it
        gamma = -float(np.ldexp(slope, -exponent))
    if gamma <= 0:
        raise InvalidParameterError(f"{path}: calibration data does not decay with |dv|")
    return gamma
