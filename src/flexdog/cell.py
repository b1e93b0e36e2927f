"""Gilbert Gaussian cell model.

A single cell multiplies an input current by a bell-shaped function of a
differential bias voltage: I_out ~ (I_in / 2) exp(-gamma * dV^2).  Kernel
weights are programmed by inverting that relation for dV.  A higher-fidelity
sigmoid-product mode (product of two logistic transfer curves) exists to
exercise the deviation-from-Gaussian machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import curve_fit

from .dog import GaussianKernel
from .errors import InvalidGainError, InvalidParameterError, UnachievableGainError, check_range

MODEL_IDEAL = "ideal-exponential"
MODEL_SIGMOID = "sigmoid-product"

# dV window the exponential approximation was characterized over; responses
# requested outside it are extrapolation and flagged in deviation reports.
VALIDITY_WINDOW_V = 1.3

PEAK_GAIN = 0.5


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
    per-cell gain is s * w(i, j) and the center cell sits at dV = 0.
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
    return 1.0 / (1.0 + np.exp(-x))


def cell_factors(dv, params: CellParams, gamma_mult=1.0):
    """I_out / I_in of each cell as the two factors cell_response multiplies
    I_in by, in that order; broadcast over dv and gamma_mult.

    gamma_mult scales the ideal model's gamma; the sigmoid model has no gamma,
    and its curvature near dV=0 scales with the squared slope, so there the
    multiplier scales the steepness by sqrt(gamma_mult).
    """
    m = np.asarray(gamma_mult, dtype=np.float64)
    if np.any(m <= 0):
        raise InvalidParameterError(f"gamma multipliers must be positive, got {float(m.min())}")
    dv = np.asarray(dv, dtype=np.float64)
    if params.model_kind == MODEL_IDEAL:
        return 0.5, np.exp(-(params.gamma * m) * dv * dv)
    k = params.sigmoid.steepness * np.sqrt(m)
    vw = params.sigmoid.half_separation
    adv = np.abs(dv)  # the curve is even; |dv| keeps that exact in floats
    return _logistic(k * (adv + vw)), _logistic(-k * (adv - vw))


def cell_response(i_in, dv, params: CellParams):
    """Output current of one cell; vectorized over i_in and/or dv."""
    i_in = np.asarray(i_in, dtype=np.float64)
    if np.any(i_in < 0):
        raise InvalidParameterError("input current must be nonnegative")
    a, b = cell_factors(dv, params)
    out = i_in * a * b
    return out if out.ndim else float(out)


def weight_to_dv(gain: float, params: CellParams) -> float:
    """Nonnegative dV realizing I_out / I_in = gain in the ideal model."""
    if gain <= 0:
        raise InvalidGainError(f"gain must be positive, got {gain}")
    if gain > PEAK_GAIN:
        raise UnachievableGainError(f"gain {gain} exceeds the cell peak gain {PEAK_GAIN}")
    return float(np.sqrt(-np.log(2.0 * gain) / params.gamma))


def program_kernel(kernel: GaussianKernel, params: CellParams) -> ProgrammedKernel:
    """Map kernel weights to dV biases, scaled so the max weight gets gain 1/2."""
    w = kernel.weights
    if np.any(w <= 0):
        raise InvalidGainError("kernel weights must all be positive to program cells")
    scale = PEAK_GAIN / float(w.max())
    # 2 * scale * max(w) == 1 exactly, so the center cell lands at dV = 0.
    dv_grid = np.sqrt(-np.log(2.0 * scale * w) / params.gamma)
    return ProgrammedKernel(dv_grid=dv_grid, scale=scale, source_kernel=kernel, params=params)


def fit_gaussian(dv: np.ndarray, i_out: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of a * exp(-b * dv^2) to measured samples."""
    a0 = float(np.max(i_out))
    popt, _ = curve_fit(
        lambda x, a, b: a * np.exp(-b * x * x), dv, i_out, p0=[a0, 1.0], maxfev=20000
    )
    return float(popt[0]), float(popt[1])


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
        avg_abs_deviation=float(deviation.mean()),
        max_abs_deviation=float(deviation.max()),
        reference=reference,
        extrapolated=bool(lo < -VALIDITY_WINDOW_V or hi > VALIDITY_WINDOW_V),
    )


def sweep_curves(params, lo, hi, n_points, reference="fitted-gaussian"):
    """Raw (dv, response, reference) arrays behind sweep_deviation."""
    if not lo < hi:
        raise InvalidParameterError(f"degenerate sweep range [{lo}, {hi}]")
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
    allowed.  Log-domain linear least squares: ln I = ln(I_in/2) - gamma dv^2.
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
    slope = np.polyfit(dv * dv, np.log(i_out), 1)[0]
    gamma = -float(slope)
    if gamma <= 0:
        raise InvalidParameterError(f"{path}: calibration data does not decay with |dv|")
    return gamma
