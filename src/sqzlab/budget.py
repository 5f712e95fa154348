"""Quantum noise budget of a squeezed-light-enhanced interferometer.

Free-mass two-photon model of a Michelson readout.  Radiation pressure
couples the amplitude quadrature of the dark-port field into the phase
readout with strength ``kappa``, so the detected quadrature is effectively
rotated away from the phase axis by ``arctan(kappa)``.  The strain-referred
total is

    total = (sql / 2) * (1 / kappa + kappa) * e_b

where ``e_b`` is the variance of the injected dark-port state at that
effective readout angle.  With vacuum at the dark port this reduces to the
familiar shot plus radiation-pressure budget ``(sql / 2) * (1/kappa + kappa)``
that touches the standard quantum limit exactly where ``kappa = 1``.

The reported shot and radiation-pressure components are the projections of
the injected state on the phase and amplitude quadratures of the readout
frame.  Whenever the injected noise ellipse is axis-aligned in that frame
(no injection, or squeezing oriented along a quadrature) the two components
add up to the total exactly.  A frequency-dependent or tilted injection
correlates the two pathways and the correlated total can drop below either
projection; the components are still reported as projections because their
ratios to the vacuum budget stay exact per frequency bin.

Absolute scales are intentionally uncalibrated: ``sql_scale`` multiplies the
standard free-mass envelope and defaults to 1.  Shapes and ratios are the
meaningful outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import (
    HBAR,
    LIGHT_SPEED,
    _MAX_SQUEEZE_DB,
    SqueezeSetting,
    _frozen_array,
    apply_loss,
    check_range,
    quadrature_variance,
    squeeze,
    vacuum,
    variance_from_db,
)

__all__ = [
    "FilterCavityParams",
    "IfoConfig",
    "BudgetCurve",
    "kappa",
    "crossover_frequency",
    "filter_cavity_angle",
    "standard_quantum_limit",
    "quantum_noise_budget",
    "snr_equivalent_power_gain",
]


@dataclass(frozen=True)
class FilterCavityParams:
    """Detuned rotation cavity on the squeezed-light injection path.

    ``half_linewidth`` and ``detuning`` are in Hz; the detuning may take
    either sign and flips the rotation direction with it.
    """

    half_linewidth: float
    detuning: float

    def __post_init__(self) -> None:
        check_range("half_linewidth", self.half_linewidth, gt=0.0)
        check_range("detuning", self.detuning)


@dataclass(frozen=True)
class IfoConfig:
    """Interferometer and injection parameters for the noise budget.

    ``injected_squeeze`` with r = 0 means a plain vacuum dark port.  Exactly
    one of ``filter_cavity`` (a physical single-pole rotation) and
    ``matched_rotation`` (the idealized limit where the squeeze ellipse is
    kept aligned with the effective readout quadrature at every frequency)
    may be active.
    """

    arm_power: float
    mirror_mass: float
    arm_length: float
    wavelength: float
    detection_efficiency: float = 1.0
    injection_loss: float = 0.0
    injected_squeeze: SqueezeSetting = SqueezeSetting(0.0, 0.0)
    filter_cavity: FilterCavityParams | None = None
    matched_rotation: bool = False
    sql_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("arm_power", "mirror_mass", "arm_length", "wavelength", "sql_scale"):
            check_range(name, getattr(self, name), gt=0.0)
        check_range("arm_length**2", self.arm_length * self.arm_length)  # **2 raises
        check_range("detection_efficiency", self.detection_efficiency, gt=0.0, le=1.0)
        check_range("injection_loss", self.injection_loss, ge=0.0, lt=1.0)
        if self.matched_rotation and self.filter_cavity is not None:
            raise ValueError(
                "choose either a filter cavity or matched_rotation, not both"
            )


@dataclass(frozen=True, eq=False)
class BudgetCurve:
    """Noise budget sampled on a frequency grid (strain-referred PSDs)."""

    frequencies: np.ndarray
    shot: np.ndarray
    rpn: np.ndarray
    total: np.ndarray
    sql: np.ndarray

    def __post_init__(self) -> None:
        names = ("frequencies", "shot", "rpn", "total", "sql")
        arrays = {name: _frozen_array(self, name) for name in names}
        n = arrays["frequencies"].size
        if n == 0 or any(a.shape != (n,) for a in arrays.values()):
            raise ValueError("budget arrays must be matching non-empty 1-D arrays")
        for name, arr in arrays.items():
            check_range(name, arr, gt=0.0)


def _kappa(config: IfoConfig, omega_sq):
    """:func:`kappa` at ``omega_sq`` = Omega^2, unchecked and broadcasting."""
    coupling = 8.0 * config.arm_power * (2.0 * np.pi * LIGHT_SPEED / config.wavelength)
    return coupling / (config.mirror_mass * LIGHT_SPEED**2 * omega_sq)


def _sql(config: IfoConfig, omega_sq):
    """:func:`standard_quantum_limit` at ``omega_sq`` = Omega^2, unchecked."""
    scale = config.sql_scale * 8.0 * HBAR
    return scale / (config.mirror_mass * omega_sq * config.arm_length**2)


def kappa(config: IfoConfig, frequency) -> np.ndarray | float:
    """Radiation-pressure coupling strength at a sideband frequency (Hz).

    ``kappa = 8 P omega0 / (m c^2 Omega^2)`` with ``Omega = 2 pi f``:
    proportional to arm power over mirror mass and falling as 1 / f^2.
    Scaling power and mass together leaves it unchanged.
    """
    f = check_range("frequency", frequency, gt=0.0)
    out = _kappa(config, (2.0 * np.pi * f) ** 2)
    return out if np.ndim(out) else float(out)


def crossover_frequency(config: IfoConfig) -> float:
    """Frequency where ``kappa = 1``: the shot / radiation-pressure crossing."""
    return float(np.sqrt(_kappa(config, 1.0)) / (2.0 * np.pi))


def standard_quantum_limit(config: IfoConfig, frequency) -> np.ndarray | float:
    """Free-mass strain-PSD envelope, scaled by ``sql_scale``."""
    f = check_range("frequency", frequency, gt=0.0)
    out = _sql(config, (2.0 * np.pi * f) ** 2)
    return out if np.ndim(out) else float(out)


def filter_cavity_angle(cavity: FilterCavityParams, frequency) -> np.ndarray | float:
    """Quadrature rotation of a lossless detuned cavity at a sideband
    frequency (Kimble et al., PRD 65, 022002 (2001), section V).

    ``arctan((detuning + f) / hwhm) + arctan((detuning - f) / hwhm)``: zero
    at zero detuning, approaching ``2 arctan(detuning / hwhm)`` for
    frequencies far below the linewidth and falling to zero far above it,
    monotonically for positive detuning.  At ``hwhm = detuning`` it is
    ``arctan(2 hwhm**2 / f**2)``, which is ``arctan(kappa)`` for the
    free-mass readout when ``hwhm`` is the crossover frequency over sqrt(2).
    """
    f = check_range("frequency", frequency, ge=0.0)
    gamma, detuning = cavity.half_linewidth, cavity.detuning
    out = np.arctan((detuning + f) / gamma) + np.arctan((detuning - f) / gamma)
    return out if np.ndim(out) else float(out)


def quantum_noise_budget(config: IfoConfig, frequencies) -> BudgetCurve:
    """Evaluate shot, radiation-pressure, total, and SQL curves.

    Parameters
    ----------
    config : IfoConfig
    frequencies : array_like
        Sideband frequencies in Hz, all > 0, at least one.

    Returns
    -------
    BudgetCurve
        ``total`` uses the exact correlated projection of the injected state
        on the effective readout quadrature; ``shot`` and ``rpn`` are the
        phase- and amplitude-quadrature projections of the same state.
    """
    f = np.atleast_1d(np.asarray(frequencies, dtype=float))
    check_range("number of frequencies", f.size, ge=1)
    check_range("frequencies", f, gt=0.0)

    state = apply_loss(squeeze(vacuum(), config.injected_squeeze), config.injection_loss)

    omega_sq = (2.0 * np.pi * f) ** 2
    k = _kappa(config, omega_sq)
    readout_angle = 0.5 * np.pi + np.arctan(k)
    if config.matched_rotation:
        # Idealized frequency-dependent injection: the minor axis of the
        # noise ellipse tracks the effective readout quadrature exactly.
        # The rotation, readout_angle - theta, is applied in two parts so
        # that the readout lands on theta exactly: an ulp of error there,
        # times the major axis, would swamp the minor.
        axis, rotation = state.axes[2], readout_angle
    elif config.filter_cavity is not None:
        axis, rotation = 0.0, filter_cavity_angle(config.filter_cavity, f)
    else:
        axis, rotation = 0.0, np.zeros_like(f)

    detected = apply_loss(state, 1.0 - config.detection_efficiency)
    e_total, e_shot, e_rpn = (
        quadrature_variance(detected, axis + (angle - rotation))
        for angle in (readout_angle, 0.5 * np.pi, 0.0)
    )

    half_sql = 0.5 * _sql(config, omega_sq)
    return BudgetCurve(
        frequencies=f,
        shot=half_sql / k * e_shot,
        rpn=half_sql * k * e_rpn,
        total=half_sql * (1.0 / k + k) * e_total,
        sql=2.0 * half_sql,
    )


def snr_equivalent_power_gain(improvement_db: float) -> float:
    """Carrier-power multiple matching a given shot-noise improvement.

    A squeezing improvement of x dB raises a shot-noise-limited SNR exactly
    like multiplying the carrier power by ``10**(x / 10)``.
    """
    check_range("improvement_db", improvement_db, ge=-_MAX_SQUEEZE_DB, le=_MAX_SQUEEZE_DB)
    return variance_from_db(improvement_db)

