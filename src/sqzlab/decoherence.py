"""Why measured squeezing falls short: optical loss and phase jitter.

The forward model chains three stages that are kept separately testable:
a pure squeezed state from the cavity model, a lumped loss channel, and a
Gaussian phase-jitter average.  The same chain runs in reverse as a
deterministic least-squares fit that infers intrinsic loss and jitter from a
sweep of deliberately added loss.  :func:`forward_model` broadcasts over the
added loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

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

# Fit search ranges: intrinsic loss in [0, _LOSS_BOUND], jitter in
# [0, _PHASE_BOUND_DEG] degrees.  Grid resolution only needs to land the
# local refinement in the right basin.
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
    return _jitter(v_squeeze, v_antisqueeze, noise.sigma)


def _jitter(v_squeeze, v_antisqueeze, sigma):
    """Gaussian jitter average of :func:`apply_phase_noise`, unchecked; broadcasts."""
    weight = 0.5 * (1.0 + np.exp(-2.0 * sigma**2))
    return (
        weight * v_squeeze + (1.0 - weight) * v_antisqueeze,
        weight * v_antisqueeze + (1.0 - weight) * v_squeeze,
    )


def _sweep_db(pure: SqueezeSpectrumPoint, loss0, added, sigma):
    """dB readings of :func:`forward_model`, unchecked; the arguments broadcast."""
    combined = 1.0 - (1.0 - loss0) * (1.0 - added)
    v_s = (1.0 - combined) * pure.v_squeeze + combined
    v_a = (1.0 - combined) * pure.v_antisqueeze + combined
    v_s, v_a = _jitter(v_s, v_a, sigma)
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
    return _sweep_db(point, intrinsic_loss, added_loss, phase_noise.sigma)


def fit_loss_phase(
    measurements: Sequence[SqueezeMeasurement],
    gain: float,
    frequency: float = 0.0,
    half_linewidth: float = 1.0,
    *,
    fixed_phase_noise: PhaseNoise | None = None,
) -> FitResult:
    """Infer intrinsic loss (and optionally jitter) from a loss sweep.

    Runs a deterministic coarse grid search over loss in [0, 0.5] and jitter
    in [0, 5 degrees], then refines the best cell with a derivative-free
    local optimizer.  Residuals are summed squared dB errors over both the
    squeezed and anti-squeezed readings.  With ``fixed_phase_noise`` given,
    only the loss is fitted.

    Raises
    ------
    ValueError
        If fewer than two measurements are supplied (under-determined).
    """
    check_range("number of measurements", len(measurements), ge=2)
    pump = pump_ratio_from_gain(gain)
    point = opo_spectrum(OpoParams(pump, 1.0, half_linewidth), frequency)
    added = np.array([m.added_loss for m in measurements])
    data_s = np.array([m.squeeze_db for m in measurements])
    data_a = np.array([m.antisqueeze_db for m in measurements])

    def cost(loss0, sigma):
        # Leading axes of loss0 and sigma broadcast against the sweep axis.
        model_s, model_a = _sweep_db(
            point,
            np.asarray(loss0, dtype=float)[..., np.newaxis],
            added,
            np.asarray(sigma, dtype=float)[..., np.newaxis],
        )
        return ((model_s - data_s) ** 2 + (model_a - data_a) ** 2).sum(axis=-1)

    loss_grid = np.linspace(0.0, _LOSS_BOUND, _GRID_LOSS_POINTS)
    if fixed_phase_noise is not None:
        sigma = fixed_phase_noise.sigma
        start = loss_grid[np.argmin(cost(loss_grid, sigma))]
        bracket = (max(start - 0.05, 0.0), min(start + 0.05, 0.999))
        res = optimize.minimize_scalar(
            lambda l: float(cost(l, sigma)),
            bounds=bracket,
            method="bounded",
            options={"xatol": 1e-12},
        )
        return FitResult(
            float(res.x), fixed_phase_noise, float(res.fun), bool(res.success)
        )

    sigma_grid = np.deg2rad(np.linspace(0.0, _PHASE_BOUND_DEG, _GRID_PHASE_POINTS))
    loss_mesh, sigma_mesh = np.meshgrid(loss_grid, sigma_grid, indexing="ij")
    grid_cost = cost(loss_mesh.ravel(), sigma_mesh.ravel())
    best = int(np.argmin(grid_cost))
    start = np.array([loss_mesh.ravel()[best], sigma_mesh.ravel()[best]])

    def objective(params: np.ndarray) -> float:
        loss0, sigma = params
        if not -1e-9 <= loss0 <= 0.999:
            return 1e15 * (1.0 + abs(loss0))
        # The cost is even in sigma, so the jitter axis is left unconstrained
        # and folded back at the end.
        return float(cost(np.clip(loss0, 0.0, 0.999), abs(sigma)))

    res = optimize.minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-11, "fatol": 1e-22, "maxiter": 4000, "maxfev": 8000},
    )
    loss0 = float(np.clip(res.x[0], 0.0, 1.0))
    return FitResult(
        loss0, PhaseNoise(abs(float(res.x[1]))), float(res.fun), bool(res.success)
    )


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
