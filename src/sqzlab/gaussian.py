"""Single-mode Gaussian quadrature states and the operations shared by all models.

Conventions
-----------
Variances are expressed in shot-noise units: the vacuum state has the 2x2
identity as its covariance matrix, and a quadrature variance of 0.1 reads as
10 dB of squeezing.  The mean vector stores twice the complex displacement,
``mean = 2 * (Re alpha, Im alpha)``, so that a displaced vacuum carries an
average photon number of exactly ``|alpha|^2``.

Decibel values are ``10 * log10(variance)``.  Squeezing is therefore negative
in dB, anti-squeezing positive, and the vacuum sits at 0 dB.

States are immutable value objects, stored as principal axes: the least and
greatest quadrature variance and the angle of the least one.  Every operation
maps the axes in closed form, exact to a few ulp at any representable squeeze
and angle, returns a new state and never touches its input, which makes
states safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianState",
    "SqueezeSetting",
    "vacuum",
    "coherent",
    "squeeze",
    "rotate",
    "apply_loss",
    "quadrature_variance",
    "mean_photon_number",
    "db_from_variance",
    "variance_from_db",
]

# Exact SI-2019 defining constants: Planck's constant h in J s, the speed of
# light in m/s, and the reduced Planck constant h / (2 pi).
PLANCK = 6.62607015e-34
LIGHT_SPEED = 299792458.0
HBAR = PLANCK / (2 * math.pi)

# Tolerances for a covariance matrix passed to GaussianState: symmetry slack
# is relative to the largest entry, and the Heisenberg bound det(cov) >= 1
# gets a small absolute allowance for round-off in the caller's matrix.
_SYMMETRY_TOL = 1e-9
_HEISENBERG_TOL = 1e-9


def check_range(name: str, value, *, ge=None, gt=None, le=None, lt=None):
    """Return ``value`` if it is finite and within the given bounds.

    ``ge`` and ``gt`` bound it from below (closed and open), ``le`` and ``lt``
    from above.  A Python int or float is returned as it is; anything else is
    returned as a float array, which passes only when every entry does.  The
    ValueError names the parameter: ``loss must be finite and >= 0 and <= 1``.
    """
    if isinstance(value, (int, float)):
        low = high = value
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
    else:
        value = np.asarray(value, dtype=float)
        if value.size == 0:
            return value
        # min and max propagate NaN, so a NaN entry fails the finiteness test.
        low, high = value.min(), value.max()
        finite = math.isfinite(low) and math.isfinite(high)
    if (
        finite
        and (ge is None or low >= ge)
        and (gt is None or low > gt)
        and (le is None or high <= le)
        and (lt is None or high < lt)
    ):
        return value
    bounds = [
        f"{op} {bound:g}"
        for op, bound in ((">=", ge), (">", gt), ("<=", le), ("<", lt))
        if bound is not None
    ]
    raise ValueError(" and ".join([f"{name} must be finite", *bounds]))


def _rotation(angle: float) -> np.ndarray:
    """2x2 rotation matrix acting on (x, y) quadrature vectors."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class _Owned:
    """An array the library itself just allocated and hands to a record.

    :func:`_frozen_array` freezes it in place; any other value is copied,
    so a caller's array never aliases a record.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _frozen_array(obj, field: str, dtype=float, shape=None) -> np.ndarray:
    """Replace ``obj.field`` of a frozen dataclass by a read-only array.

    The array is a copy unless the field holds an :class:`_Owned` one.
    """
    value = getattr(obj, field)
    if isinstance(value, _Owned):
        out = np.asarray(value.array, dtype=dtype)
    else:
        out = np.array(value, dtype=dtype, copy=True)
    if shape is not None:
        out = out.reshape(shape)
    out.setflags(write=False)
    object.__setattr__(obj, field, out)
    return out


@dataclass(frozen=True, eq=False, init=False)
class GaussianState:
    """Mean vector and principal noise axes of one optical mode.

    Parameters
    ----------
    mean : array_like, shape (2,)
        Quadrature expectation values, equal to twice the complex
        displacement, ``(2 Re alpha, 2 Im alpha)``.
    cov : array_like, shape (2, 2)
        Quadrature covariance matrix in shot-noise units, decomposed once into
        ``axes = (minor, major, theta)``, the least and greatest variance and
        the angle of the least one in [0, pi), 0 when both are equal.
        ``state.cov`` is derived from the axes and read-only.

    Raises
    ------
    ValueError
        If the covariance matrix is not symmetric positive-definite, if it
        violates the Heisenberg bound ``det(cov) >= 1``, or if any entry is
        not finite.
    """

    mean: np.ndarray
    axes: tuple[float, float, float]

    def __init__(self, mean, cov) -> None:
        cov = np.array(cov, dtype=float).reshape(2, 2)
        check_range("state covariance", cov)
        scale = max(1.0, float(np.abs(cov).max()))
        if abs(cov[0, 1] - cov[1, 0]) > _SYMMETRY_TOL * scale:
            raise ValueError("covariance matrix must be symmetric")
        p, u, q = float(cov[0, 0]), float(cov[1, 1]), float(cov[0, 1])
        det = p * u - q * q
        if p <= 0.0 or det <= 0.0:
            raise ValueError("covariance matrix must be positive-definite")
        if det < 1.0 - _HEISENBERG_TOL:
            raise ValueError(
                "covariance determinant below the Heisenberg bound det >= 1"
            )
        vars(self).update(vars(_from_axes(mean, *_principal_axes(p, u, q, det))))

    @property
    def cov(self) -> np.ndarray:
        minor, major, theta = self.axes
        off = 0.5 * np.sin(2.0 * theta) * (minor - major)
        v00, v11 = (quadrature_variance(self, a) for a in (0.0, 0.5 * np.pi))
        cov = np.array([[v00, off], [off, v11]])
        cov.setflags(write=False)
        return cov


def _from_axes(mean, minor, major, theta) -> GaussianState:
    """State with variance ``minor`` at ``theta``, checked only to be finite, > 0."""
    state = object.__new__(GaussianState)
    object.__setattr__(state, "mean", mean)
    check_range("state mean", _frozen_array(state, "mean", shape=(2,)))
    check_range("state covariance", (minor, major), gt=0.0)
    if minor > major:
        minor, major, theta = major, minor, theta + 0.5 * np.pi
    theta = float(theta) % np.pi if minor < major else 0.0
    object.__setattr__(state, "axes", (float(minor), float(major), theta))
    return state


def _principal_axes(p: float, u: float, q: float, det: float):
    """Axes ``(minor, major, angle)`` of ``[[p, q], [q, u]]``, determinant ``det``."""
    if q == 0.0:
        return p, u, 0.0
    major = 0.5 * (p + u) + math.hypot(0.5 * (p - u), q)
    return det / major, major, 0.5 * math.atan2(-2.0 * q, u - p)


@dataclass(frozen=True)
class SqueezeSetting:
    """Squeeze magnitude and orientation.

    ``r`` is the dimensionless squeeze parameter (variance reduction
    ``exp(-2 r)`` along the squeezed axis) and must be non-negative.
    ``theta`` is the squeezed-axis angle measured from the amplitude
    quadrature; variances are pi-periodic in angle, so it is stored mod pi.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        check_range("squeeze parameter r", self.r, ge=0.0)
        check_range("squeeze angle", self.theta)
        object.__setattr__(self, "theta", float(self.theta) % np.pi)
        object.__setattr__(self, "r", float(self.r))

    @classmethod
    def from_db(cls, squeeze_db: float, theta: float = 0.0) -> "SqueezeSetting":
        """Setting that squeezes shot noise by ``squeeze_db`` dB (>= 0) at ``theta``."""
        check_range("squeeze_db", squeeze_db, ge=0.0)
        return cls(squeeze_db * np.log(10.0) / 20.0, theta)


def vacuum() -> GaussianState:
    """Vacuum state: zero mean, identity covariance."""
    return _from_axes(np.zeros(2), 1.0, 1.0, 0.0)


def coherent(alpha_x: float, alpha_y: float) -> GaussianState:
    """Displaced vacuum with complex amplitude ``alpha_x + i alpha_y``.

    The returned state has vacuum noise in every quadrature and an average
    photon number of ``alpha_x**2 + alpha_y**2``.
    """
    return _from_axes(2.0 * np.array([alpha_x, alpha_y], dtype=float), 1.0, 1.0, 0.0)


def squeeze(state: GaussianState, setting: SqueezeSetting) -> GaussianState:
    """Apply a minimum-uncertainty squeeze to ``state``.

    The variance along ``setting.theta`` shrinks by ``exp(-2 r)`` while the
    orthogonal quadrature grows by ``exp(+2 r)``, preserving det(cov).
    """
    minor, major, theta = state.axes
    a, b = float(np.exp(-setting.r)), float(np.exp(setting.r))
    # The squeezed state in the squeeze frame; an isotropic one is aligned.
    offset = theta - setting.theta if minor < major else 0.0
    c, s = math.cos(offset), math.sin(offset)
    p = (c * c * minor + s * s * major) * a * a
    u = (s * s * minor + c * c * major) * b * b
    axes = _principal_axes(p, u, c * s * (minor - major), minor * major)
    rot = _rotation(setting.theta)
    mean = rot @ np.diag([a, b]) @ rot.T @ state.mean
    return _from_axes(mean, axes[0], axes[1], setting.theta + axes[2])


def rotate(state: GaussianState, angle: float) -> GaussianState:
    """Rotate the quadrature plane by ``angle`` (radians, counterclockwise)."""
    check_range("rotation angle", angle)
    minor, major, theta = state.axes
    # Reducing the angle first makes a half turn leave theta exactly as is.
    theta = theta + angle % np.pi
    return _from_axes(_rotation(angle) @ state.mean, minor, major, theta)


def apply_loss(state: GaussianState, loss: float) -> GaussianState:
    """Mix ``state`` with vacuum on a beamsplitter of power loss ``loss``.

    Parameters
    ----------
    state : GaussianState
    loss : float
        Fractional power loss in [0, 1].  Each principal variance ``v``
        becomes ``(1 - loss) * v + loss``, the axis angle is kept, and the
        mean scales by ``sqrt(1 - loss)``.  Loss channels compose: applying
        ``a`` then ``b`` equals one channel of ``1 - (1 - a) * (1 - b)``.
    """
    check_range("loss", loss, ge=0.0, le=1.0)
    kept = 1.0 - loss
    minor, major, theta = state.axes
    return _from_axes(
        np.sqrt(kept) * state.mean, kept * minor + loss, kept * major + loss, theta
    )


def quadrature_variance(state: GaussianState, angle):
    """Variance of the quadrature at ``angle`` from the amplitude axis.

    ``minor cos^2(angle - theta) + major sin^2(angle - theta)``, which has
    no cancellation.  Broadcasts over ``angle``: an array of angles gives an
    array of variances, a scalar angle a float.
    """
    angle = check_range("quadrature angle", angle)
    minor, major, theta = state.axes
    c, s = np.cos(angle - theta), np.sin(angle - theta)
    variance = c * c * minor + s * s * major
    return variance if np.ndim(variance) else float(variance)


def mean_photon_number(state: GaussianState) -> float:
    """Average photon number: displacement part plus fluctuation part.

    Equals ``|alpha|^2 + (minor + major - 2) / 4``; the vacuum gives 0 and a
    10 dB squeezed vacuum gives 2.025.
    """
    displacement = float(state.mean @ state.mean) / 4.0
    return displacement + (state.axes[0] + state.axes[1] - 2.0) / 4.0


def db_from_variance(variance):
    """Express a shot-noise-relative variance in dB (squeezing is negative).

    Broadcasts: an array of variances gives an array of dB values.
    """
    check_range("variance", variance, gt=0.0)
    return 10.0 * np.log10(variance)


def variance_from_db(db: float) -> float:
    """Inverse of :func:`db_from_variance`."""
    check_range("dB value", db)
    return 10.0 ** (db / 10.0)
