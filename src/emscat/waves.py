"""Incident plane wave: amplitude, direction and closed-form derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import check_positive

#: Default physical parameters shared by all bundled experiments:
#: speed of light in cm/s, source frequency in Hz and wavelength in cm.
WAVE_SPEED = 3.0e10
FREQUENCY = 5.0e14
WAVELENGTH = WAVE_SPEED / FREQUENCY  # 6.0e-5 cm


@dataclass(frozen=True)
class IncidentWave:
    """Transverse plane wave amplitude * exp(ik direction . x).

    amplitude and direction are real 3-vectors with amplitude . direction = 0
    and |direction| = 1.  wavenumber k (1/cm), frequency (Hz) and permeability
    are finite numbers > 0; the last two only enter the magnetic-field formulas.
    """

    amplitude: np.ndarray
    direction: np.ndarray
    wavenumber: float
    frequency: float = FREQUENCY
    permeability: float = 1.0

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=float)
        direc = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "direction", direc)
        if amp.shape != (3,) or direc.shape != (3,):
            raise ValueError("amplitude and direction must be 3-vectors")
        if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(direc))):
            raise ValueError(
                f"amplitude {amp.tolist()} and direction {direc.tolist()} must be finite"
            )
        if abs(np.linalg.norm(direc) - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, |d|={np.linalg.norm(direc)!r}")
        scale = max(1.0, float(np.linalg.norm(amp)))
        if abs(float(amp @ direc)) > 1e-12 * scale:
            raise ValueError("wave is not transverse: amplitude . direction != 0")
        for name in ("wavenumber", "frequency", "permeability"):
            check_positive(name, getattr(self, name))

    def field(self, x) -> np.ndarray:
        """Incident electric field at x; x may be (3,) or (..., 3)."""
        x = np.asarray(x, dtype=float)
        phase = np.exp(1j * self.wavenumber * (x @ self.direction))
        return phase[..., None] * self.amplitude if x.ndim > 1 else phase * self.amplitude

    def curl(self, x) -> np.ndarray:
        """Curl of the incident field: ik (direction x amplitude) exp(ik d.x)."""
        x = np.asarray(x, dtype=float)
        axe = np.cross(self.direction, self.amplitude)
        phase = 1j * self.wavenumber * np.exp(1j * self.wavenumber * (x @ self.direction))
        return phase[..., None] * axe if x.ndim > 1 else phase * axe


def default_wave(
    wavelength: float = WAVELENGTH,
    amplitude=(1.0, 0.0, 0.0),
    direction=(0.0, 1.0, 0.0),
    frequency: float = FREQUENCY,
    permeability: float = 1.0,
) -> IncidentWave:
    """Wave with the default experiment parameters (k = 2 pi / wavelength)."""
    check_positive("wavelength", wavelength)
    return IncidentWave(
        amplitude=np.asarray(amplitude, dtype=float),
        direction=np.asarray(direction, dtype=float),
        wavenumber=2.0 * np.pi / wavelength,
        frequency=frequency,
        permeability=permeability,
    )
