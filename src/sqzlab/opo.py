"""Squeezing spectra of a below-threshold optical parametric oscillator.

The cavity is parametrized by the pump amplitude relative to threshold
(``pump_ratio``, 0 at no pump, 1 at threshold), the escape efficiency (the
fraction of intracavity photons that leave through the coupling mirror), and
the cavity half linewidth in Hz.  Sideband variances follow the standard
Lorentzian input-output result: at zero sideband frequency and unit escape
efficiency the squeezed and anti-squeezed variances are
``((1 - x) / (1 + x))**2`` and its inverse, and both relax to shot noise far
outside the linewidth.  :func:`opo_spectrum` broadcasts over the sideband
frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, _from_axes, check_range

__all__ = [
    "OpoParams",
    "SqueezeSpectrumPoint",
    "parametric_gain",
    "pump_ratio_from_gain",
    "opo_spectrum",
    "spectrum_to_state",
]

_PRODUCT_TOL = 1e-9


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold cavity description.

    Attributes
    ----------
    pump_ratio : float
        Pump amplitude over threshold amplitude, in [0, 1).
    escape_efficiency : float
        Probability for an intracavity photon to leave through the output
        coupler rather than be lost, in [0, 1].
    half_linewidth : float
        Cavity half linewidth (amplitude decay rate) in Hz, > 0.
    """

    pump_ratio: float
    escape_efficiency: float
    half_linewidth: float

    def __post_init__(self) -> None:
        check_range("pump_ratio", self.pump_ratio, ge=0.0, lt=1.0)
        check_range("escape_efficiency", self.escape_efficiency, ge=0.0, le=1.0)
        check_range("half_linewidth", self.half_linewidth, gt=0.0)


@dataclass(frozen=True)
class SqueezeSpectrumPoint:
    """Squeezed and anti-squeezed variances at a sideband frequency.

    The fields are floats for one frequency, or equal-shape arrays for an
    array of frequencies.
    """

    frequency: float
    v_squeeze: float
    v_antisqueeze: float

    def __post_init__(self) -> None:
        v_s, v_a = self.v_squeeze, self.v_antisqueeze
        check_range("sideband frequency", self.frequency, ge=0.0)
        check_range("squeezed variance", v_s, gt=0.0, le=1.0 + _PRODUCT_TOL)
        check_range("anti-squeezed variance", v_a, ge=1.0 - _PRODUCT_TOL)
        check_range("variance product v_s * v_a", v_s * v_a, ge=1.0 - _PRODUCT_TOL)


def parametric_gain(pump_ratio: float) -> float:
    """Classical parametric amplification at zero sideband frequency.

    Diverges as the pump approaches threshold: ``g = 1 / (1 - x)**2``.
    """
    check_range("pump_ratio", pump_ratio, ge=0.0, lt=1.0)
    return 1.0 / (1.0 - pump_ratio) ** 2


def pump_ratio_from_gain(gain: float) -> float:
    """Invert :func:`parametric_gain`; a gain of 1 means no pump."""
    check_range("parametric gain", gain, ge=1.0)
    return 1.0 - 1.0 / np.sqrt(gain)


def opo_spectrum(params: OpoParams, frequency) -> SqueezeSpectrumPoint:
    """Sideband variances of the cavity output.

    Parameters
    ----------
    params : OpoParams
    frequency : float or array_like
        Sideband frequency in Hz, >= 0.  An array gives a point whose
        fields are arrays of the same shape; a scalar gives one of floats.

    Returns
    -------
    SqueezeSpectrumPoint
        With unit escape efficiency the two variances multiply to exactly 1
        (pure squeezed state); any escape deficit pulls both toward shot
        noise and makes the product exceed 1.
    """
    frequency = check_range("sideband frequency", frequency, ge=0.0)
    x = params.pump_ratio
    eta = params.escape_efficiency
    # A product, not ** 2, so scalar and array calls round alike.
    ratio = frequency / params.half_linewidth
    detuning = ratio * ratio
    v_squeeze = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + detuning)
    v_antisqueeze = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + detuning)
    return SqueezeSpectrumPoint(frequency, v_squeeze, v_antisqueeze)


def spectrum_to_state(point: SqueezeSpectrumPoint, angle: float) -> GaussianState:
    """Zero-mean Gaussian state with the point's variances on its axes.

    The squeezed axis sits at ``angle`` from the amplitude quadrature.

    Raises
    ------
    ValueError
        If ``point`` holds arrays (one state per point) or ``angle`` is not
        finite.
    """
    if np.ndim(point.v_squeeze) or np.ndim(point.v_antisqueeze):
        raise ValueError("point must be a scalar spectrum point")
    check_range("angle", angle)
    return _from_axes(np.zeros(2), point.v_squeeze, point.v_antisqueeze, angle)
