"""Why measured squeezing falls short: optical loss and phase jitter.

The forward model chains three stages that are kept separately testable:
a pure squeezed state from the cavity model, a lumped loss channel, and a
Gaussian phase-jitter average.  The same chain runs in reverse as a
deterministic least-squares fit that infers intrinsic loss and jitter from a
sweep of deliberately added loss: a coarse grid, then a Levenberg-Marquardt
step in (loss, jitter variance).  :func:`forward_model` broadcasts over the
added loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import check_range
from .opo import OpoParams, SqueezeSpectrumPoint, opo_spectrum, pump_ratio_from_gain

__all__ = [
    "LossBudget",
    "PhaseNoise",
    "SqueezeMeasurement",
    "FitResult",
    "total_efficiency",
    "visibility_efficiency",
    "apply_phase_noise",
    "forward_model",
    "fit_loss_phase",
    "effective_improvement",
    "loss_for_improvement",
]

# Coarse fit grid: intrinsic loss in [0, _LOSS_BOUND], jitter in
# [0, _PHASE_BOUND_DEG] degrees.  Grid resolution only needs to land the
# local refinement in the right basin, which may reach loss 0.999.
_LOSS_BOUND = 0.5
_PHASE_BOUND_DEG = 5.0
_GRID_LOSS_POINTS = 41
_GRID_PHASE_POINTS = 26


@dataclass(frozen=True)
class PhaseNoise:
    """Zero-mean Gaussian jitter of the measured quadrature angle.

    ``sigma`` is the RMS angle in radians, >= 0.
    """

    sigma: float

    def __post_init__(self) -> None:
        check_range("phase-noise sigma", self.sigma, ge=0.0)

    @classmethod
    def from_degrees(cls, degrees: float) -> "PhaseNoise":
        return cls(float(np.deg2rad(degrees)))

    @property
    def degrees(self) -> float:
        return float(np.rad2deg(self.sigma))


@dataclass(frozen=True)
class LossBudget:
    """Labelled chain of efficiencies between source and detector output."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        normalized = []
        for label, efficiency in self.entries:
            check_range(f"efficiency for {label!r}", efficiency, ge=0.0, le=1.0)
            normalized.append((str(label), float(efficiency)))
        object.__setattr__(self, "entries", tuple(normalized))


@dataclass(frozen=True)
class SqueezeMeasurement:
    """One point of a loss sweep: variances in dB at a known added loss."""

    added_loss: float
    squeeze_db: float
    antisqueeze_db: float

    def __post_init__(self) -> None:
        check_range("added_loss", self.added_loss, ge=0.0, le=1.0)
        check_range("squeeze_db", self.squeeze_db, le=0.0)
        check_range("antisqueeze_db", self.antisqueeze_db, ge=0.0)


@dataclass(frozen=True)
class FitResult:
    """Outcome of :func:`fit_loss_phase`.

    ``converged`` reports the optimizer verdict; a False value is returned
    rather than raised so callers can inspect the partial result.
    """

    intrinsic_loss: float
    phase_noise: PhaseNoise
    residual: float
    converged: bool


def total_efficiency(budget: LossBudget) -> float:
    """Product of all efficiencies in the budget."""
    out = 1.0
    for _, efficiency in budget.entries:
        out *= efficiency
    return out


def visibility_efficiency(visibility: float) -> float:
    """Efficiency equivalent of imperfect mode overlap.

    A fringe visibility V between signal and reference beam acts on the
    measured variance exactly like a power efficiency of V**2.
    """
    check_range("visibility", visibility, gt=0.0, le=1.0)
    return visibility * visibility


def apply_phase_noise(
    v_squeeze: float, v_antisqueeze: float, noise: PhaseNoise
) -> tuple[float, float]:
    """Average the two variances over Gaussian angle jitter.

    For jitter sigma the squeezed reading becomes
    ``w * v_squeeze + (1 - w) * v_antisqueeze`` with
    ``w = (1 + exp(-2 sigma^2)) / 2``, the exact Gaussian expectation of
    cos^2 of the jitter angle.  The sum of the two variances is conserved.
    """
    check_range("v_squeeze", v_squeeze, gt=0.0)
    check_range("v_antisqueeze", v_antisqueeze, gt=0.0)
    return _jitter(v_squeeze, v_antisqueeze, noise.sigma**2)


def _jitter(v_squeeze, v_antisqueeze, variance):
    """Unchecked, broadcasting :func:`apply_phase_noise` at variance sigma**2."""
    weight = 0.5 * (1.0 + np.exp(-2.0 * variance))
    return (
        weight * v_squeeze + (1.0 - weight) * v_antisqueeze,
        weight * v_antisqueeze + (1.0 - weight) * v_squeeze,
    )


def _sweep_db(pure: SqueezeSpectrumPoint, loss0, added, variance):
    """Unchecked, broadcasting dB readings of :func:`forward_model`, given sigma**2."""
    combined = 1.0 - (1.0 - loss0) * (1.0 - added)
    v_s = (1.0 - combined) * pure.v_squeeze + combined
    v_a = (1.0 - combined) * pure.v_antisqueeze + combined
    v_s, v_a = _jitter(v_s, v_a, variance)
    return 10.0 * np.log10(v_s), 10.0 * np.log10(v_a)


def forward_model(
    gain: float,
    intrinsic_loss: float,
    added_loss,
    phase_noise: PhaseNoise,
    frequency: float = 0.0,
    half_linewidth: float = 1.0,
):
    """Predicted (squeeze_db, antisqueeze_db) for a loss-sweep point.

    A pure cavity output at the given parametric gain passes through the
    combined loss ``1 - (1 - intrinsic_loss) * (1 - added_loss)`` and the
    phase-jitter average.  With ``added_loss = 1`` both values are 0 dB.
    Broadcasts over ``added_loss``: an array gives two arrays of its shape,
    a scalar two floats.
    """
    check_range("intrinsic_loss", intrinsic_loss, ge=0.0, le=1.0)
    added_loss = check_range("added_loss", added_loss, ge=0.0, le=1.0)
    pump = pump_ratio_from_gain(gain)
    point = opo_spectrum(OpoParams(pump, 1.0, half_linewidth), frequency)
    return _sweep_db(point, intrinsic_loss, added_loss, phase_noise.sigma**2)


def fit_loss_phase(
    measurements: Sequence[SqueezeMeasurement],
    gain: float,
    frequency: float = 0.0,
    half_linewidth: float = 1.0,
    *,
    fixed_phase_noise: PhaseNoise | None = None,
) -> FitResult:
    """Infer intrinsic loss (and optionally jitter) from a loss sweep.

    Fits in (loss, sigma**2): a deterministic coarse grid over loss in [0, 0.5]
    and jitter in [0, 5 degrees], then a Levenberg-Marquardt step inside loss
    in [0, 0.999] and sigma**2 >= 0.  Residuals are the dB errors of both the
    squeezed and anti-squeezed readings.  With ``fixed_phase_noise`` given,
    sigma**2 is pinned, only the loss is fitted, and the result carries it.

    Raises
    ------
    ValueError
        If fewer than two measurements are supplied (under-determined).
    """
    check_range("number of measurements", len(measurements), ge=2)
    pump = pump_ratio_from_gain(gain)
    point = opo_spectrum(OpoParams(pump, 1.0, half_linewidth), frequency)
    added = np.array([m.added_loss for m in measurements])
    data = np.array([[m.squeeze_db, m.antisqueeze_db] for m in measurements]).T.ravel()

    def residuals(params):
        # Rows of (loss, sigma**2) broadcast against the sweep axis.
        return np.hstack(_sweep_db(point, params[:, :1], added, params[:, 1:])) - data

    if fixed_phase_noise is None:
        sigmas = np.deg2rad(np.linspace(0.0, _PHASE_BOUND_DEG, _GRID_PHASE_POINTS))
        lower, upper = np.array([0.0, 0.0]), np.array([0.999, np.inf])
    else:
        sigmas = np.array([fixed_phase_noise.sigma])
        lower = np.array([0.0, fixed_phase_noise.sigma**2])
        upper = np.array([0.999, fixed_phase_noise.sigma**2])
    loss_grid = np.linspace(0.0, _LOSS_BOUND, _GRID_LOSS_POINTS)
    grid = np.stack(np.meshgrid(loss_grid, sigmas**2, indexing="ij"), -1).reshape(-1, 2)
    start = grid[np.argmin((residuals(grid) ** 2).sum(axis=1))]
    params, cost, converged = _least_squares(residuals, start, lower, upper)
    noise = fixed_phase_noise or PhaseNoise(float(np.sqrt(params[1])))
    return FitResult(float(params[0]), noise, cost, converged)


def _least_squares(residuals, start, lower, upper):
    """Levenberg-Marquardt (More 1978) minimum of ``sum(residuals(p)**2)`` in a box.

    ``residuals`` maps stacked parameter rows to stacked residual rows.  Steps
    use Marquardt's diagonal damping and are clipped to ``lower <= p <= upper``;
    a coordinate on a bound whose gradient points outward is frozen.  Returns
    the parameters, the cost and whether it converged within 100 iterations.
    """
    params, damping = np.clip(start, lower, upper), 1e-3
    for _ in range(100):
        # The jitter term curves on the scale v_s / v_a ~ 1e-4 in sigma**2,
        # so a unit-scale step of sqrt(eps) would bias the gradient.
        h = 1e-8 * np.maximum(np.abs(params), 1e-2)
        stack = residuals(params + np.vstack([0.0 * h, np.diag(h)]))
        r, jac = stack[0], (stack[1:] - stack[0]) / h[:, np.newaxis]
        grad, cost, trial_cost, moved = jac @ r, r @ r, np.inf, True
        frozen = (params <= lower) & (grad >= 0) | (params >= upper) & (grad <= 0)
        hess = jac @ jac.T * np.outer(~frozen, ~frozen)
        while not trial_cost < cost and moved and grad[~frozen].any():
            system = hess + damping * np.diag(np.diag(hess)) + np.diag(frozen)
            delta = np.linalg.lstsq(system, -grad * ~frozen, rcond=None)[0]
            trial = np.clip(params + delta, lower, upper)
            trial_cost = np.sum(residuals(trial[np.newaxis]) ** 2)
            moved = np.abs(trial - params).max() > 1e-16
            damping *= 10.0
        # Both coordinates enter the model as 1 - O(x), which resolves no
        # step below ~1e-16: the search ends there or when the cost stalls.
        done = not trial_cost < (1.0 - 1e-14) * cost or not moved
        if trial_cost < cost:
            params, cost, damping = trial, trial_cost, damping / 100.0
        if done:
            return params, float(cost), True
    return params, float(cost), False


def effective_improvement(injected_db: float, loss: float) -> float:
    """Noise reduction that survives a lossy path.

    ``injected_db`` is the squeezing magnitude entering the path, quoted as a
    positive number of dB.  Returns the output improvement in dB:
    ``-10 log10((1 - loss) * 10**(-injected_db / 10) + loss)``.  Total loss
    returns 0 dB.
    """
    check_range("injected_db", injected_db, ge=0.0)
    check_range("loss", loss, ge=0.0, le=1.0)
    variance = (1.0 - loss) * 10.0 ** (-injected_db / 10.0) + loss
    return -10.0 * np.log10(variance)


def loss_for_improvement(injected_db: float, effective_db: float) -> float:
    """Loss that degrades ``injected_db`` of squeezing to ``effective_db``.

    Closed-form inverse of :func:`effective_improvement`.
    """
    check_range("injected_db", injected_db, gt=0.0)
    check_range("effective_db", effective_db, ge=0.0, le=injected_db)
    floor = 10.0 ** (-injected_db / 10.0)
    return (10.0 ** (-effective_db / 10.0) - floor) / (1.0 - floor)
