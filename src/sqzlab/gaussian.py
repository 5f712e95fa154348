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

States are immutable value objects.  Every operation returns a new state and
never touches its input, which makes them safe to share across threads.
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

# Construction-time tolerances: symmetry slack is relative to the largest
# covariance entry, and the Heisenberg bound det(cov) >= 1 gets a small
# absolute allowance for round-off accumulated by chained operations.
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
    else:
        value = np.asarray(value, dtype=float)
        if value.size == 0:
            return value
        # min and max propagate NaN, so a NaN entry fails the finiteness test.
        low, high = value.min(), value.max()
    if (
        math.isfinite(low)
        and math.isfinite(high)
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


def _frozen_array(obj, field: str, dtype=float, shape=None) -> np.ndarray:
    """Replace ``obj.field`` of a frozen dataclass by a read-only array copy."""
    out = np.array(getattr(obj, field), dtype=dtype, copy=True)
    if shape is not None:
        out = out.reshape(shape)
    out.setflags(write=False)
    object.__setattr__(obj, field, out)
    return out


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector and covariance matrix of one optical mode.

    Parameters
    ----------
    mean : array_like, shape (2,)
        Quadrature expectation values, equal to twice the complex
        displacement, ``(2 Re alpha, 2 Im alpha)``.
    cov : array_like, shape (2, 2)
        Quadrature covariance matrix in shot-noise units.

    Raises
    ------
    ValueError
        If the covariance matrix is not symmetric positive-definite, if it
        violates the Heisenberg bound ``det(cov) >= 1``, or if any entry is
        not finite.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = _frozen_array(self, "mean", shape=(2,))
        cov = _frozen_array(self, "cov", shape=(2, 2))
        check_range("state mean", mean)
        check_range("state covariance", cov)
        scale = max(1.0, float(np.abs(cov).max()))
        if abs(cov[0, 1] - cov[1, 0]) > _SYMMETRY_TOL * scale:
            raise ValueError("covariance matrix must be symmetric")
        if np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValueError("covariance matrix must be positive-definite")
        if np.linalg.det(cov) < 1.0 - _HEISENBERG_TOL:
            raise ValueError(
                "covariance determinant below the Heisenberg bound det >= 1"
            )


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
    return GaussianState(np.zeros(2), np.eye(2))


def coherent(alpha_x: float, alpha_y: float) -> GaussianState:
    """Displaced vacuum with complex amplitude ``alpha_x + i alpha_y``.

    The returned state has vacuum noise in every quadrature and an average
    photon number of ``alpha_x**2 + alpha_y**2``.
    """
    return GaussianState(2.0 * np.array([alpha_x, alpha_y], dtype=float), np.eye(2))


def squeeze(state: GaussianState, setting: SqueezeSetting) -> GaussianState:
    """Apply a minimum-uncertainty squeeze to ``state``.

    The variance along ``setting.theta`` shrinks by ``exp(-2 r)`` while the
    orthogonal quadrature grows by ``exp(+2 r)``, preserving det(cov).
    """
    rot = _rotation(setting.theta)
    mat = rot @ np.diag([np.exp(-setting.r), np.exp(setting.r)]) @ rot.T
    return GaussianState(mat @ state.mean, mat @ state.cov @ mat.T)


def rotate(state: GaussianState, angle: float) -> GaussianState:
    """Rotate the quadrature plane by ``angle`` (radians, counterclockwise)."""
    check_range("rotation angle", angle)
    rot = _rotation(angle)
    return GaussianState(rot @ state.mean, rot @ state.cov @ rot.T)


def apply_loss(state: GaussianState, loss: float) -> GaussianState:
    """Mix ``state`` with vacuum on a beamsplitter of power loss ``loss``.

    Parameters
    ----------
    state : GaussianState
    loss : float
        Fractional power loss in [0, 1].  The covariance becomes
        ``(1 - loss) * cov + loss * I`` and the mean scales by
        ``sqrt(1 - loss)``.  Loss channels compose: applying ``a`` then ``b``
        equals one channel of ``1 - (1 - a) * (1 - b)``.
    """
    check_range("loss", loss, ge=0.0, le=1.0)
    kept = 1.0 - loss
    return GaussianState(
        np.sqrt(kept) * state.mean, kept * state.cov + loss * np.eye(2)
    )


def quadrature_variance(state: GaussianState, angle):
    """Variance of the quadrature at ``angle`` from the amplitude axis.

    ``cos^2 C00 + 2 cos sin C01 + sin^2 C11`` for covariance ``C``.  Broadcasts
    over ``angle``: an array of angles gives an array of variances, a scalar
    angle a float.
    """
    check_range("quadrature angle", angle)
    c, s = np.cos(angle), np.sin(angle)
    cov = state.cov
    variance = c * c * cov[0, 0] + 2.0 * c * s * cov[0, 1] + s * s * cov[1, 1]
    return variance if np.ndim(variance) else float(variance)


def mean_photon_number(state: GaussianState) -> float:
    """Average photon number: displacement part plus fluctuation part.

    Equals ``|alpha|^2 + (trace(cov) - 2) / 4``; the vacuum gives 0 and a
    10 dB squeezed vacuum gives 2.025.
    """
    displacement = float(state.mean @ state.mean) / 4.0
    return displacement + (float(np.trace(state.cov)) - 2.0) / 4.0


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
