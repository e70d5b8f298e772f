"""Run configuration: physical parameters, body, solver and output options.

A RunConfig collects everything one CLI invocation needs.  Defaults are the
shared experiment parameters (c = 3e10 cm/s, frequency 5e14 Hz, wavelength
6e-5 cm, incidence along y, amplitude along x); the wavenumber is derived
from the wavelength unless given explicitly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .geometry import ShapeSpec
from .waves import FREQUENCY, IncidentWave, WAVELENGTH, WAVE_SPEED


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    # wave
    wave_speed: float = WAVE_SPEED           # cm/s
    frequency: float = FREQUENCY             # Hz
    wavelength: float = WAVELENGTH           # cm
    wavenumber: Optional[float] = None       # 1/cm; default 2 pi / wavelength
    direction: tuple = (0.0, 1.0, 0.0)
    amplitude: tuple = (1.0, 0.0, 0.0)
    permeability: float = 1.0
    permittivity: float = 1.0
    # one body
    shape: str = "sphere"                    # sphere | ellipsoid | cube
    radius: float = 1.0e-9                   # cm; sphere radius or cube half side
    semi_axes: Optional[tuple] = None        # ellipsoid (a, b, c) in cm
    m_phi: int = 12                          # sphere/ellipsoid band resolution
    n_per_face: int = 10                     # cube cells per face edge
    bie_scale: float = 1.0                   # boundary-equation convention
    gamma_mode: str = "sphere"               # sphere | numeric-local | numeric-lab
    # many body
    count: int = 27
    spacing: float = 1.0e-7                  # cm
    particle_radius: float = 1.0e-9          # cm
    box: tuple = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    # solver
    tol: float = 1.0e-10
    restart: int = 50
    max_iter: int = 1000
    # evaluation
    distances: tuple = (1.73e-8, 1.73e-7, 1.73e-6)
    eval_direction: tuple = (1.0, 1.0, 1.0)
    # output
    output_dir: str = "."
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        if self.wavenumber is None:
            self.wavenumber = 2.0 * np.pi / self.wavelength
        self._check_consistency()

    def _check_consistency(self):
        """Warn (never fail) when k, wavelength and frequency disagree.

        The frequency may be stated in Hz or rad/s in configs found in the
        wild; accept either interpretation before warning.
        """
        k = self.wavenumber
        candidates = (
            2.0 * np.pi / self.wavelength,
            self.frequency * np.sqrt(self.permittivity * self.permeability) / self.wave_speed,
            2.0 * np.pi * self.frequency
            * np.sqrt(self.permittivity * self.permeability) / self.wave_speed,
        )
        if all(abs(k - c) / k > 1e-3 for c in candidates):
            self.warnings.append(
                f"wavenumber {k:.6g} matches neither 2 pi / wavelength nor "
                "omega sqrt(eps mu) / c; honoring the explicit value"
            )

    def wave(self) -> IncidentWave:
        return IncidentWave(
            amplitude=np.asarray(self.amplitude, dtype=float),
            direction=np.asarray(self.direction, dtype=float),
            wavenumber=float(self.wavenumber),
            frequency=self.frequency,
            permeability=self.permeability,
            permittivity=self.permittivity,
        )

    def shape_spec(self) -> ShapeSpec:
        if self.shape == "sphere":
            return ShapeSpec("sphere", self.radius, resolution=self.m_phi)
        if self.shape == "ellipsoid":
            if self.semi_axes is None:
                raise ConfigError("ellipsoid shape needs semi_axes (a, b, c)")
            a, b, c = self.semi_axes
            return ShapeSpec("ellipsoid", a, b, c, resolution=self.m_phi)
        if self.shape == "cube":
            return ShapeSpec("cube", self.radius, resolution=self.n_per_face)
        raise ConfigError(f"unknown shape {self.shape!r}")

    def eval_points(self, center) -> list:
        d = np.asarray(self.eval_direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ConfigError("eval_direction must be nonzero")
        d = d / norm
        return [np.asarray(center) + float(dist) * d for dist in self.distances]

    def to_dict(self) -> dict:
        out = asdict(self)
        out.pop("warnings")
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__ if f != "warnings"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = dict(data)
        for key in ("direction", "amplitude", "semi_axes", "distances", "eval_direction"):
            if coerced.get(key) is not None:
                coerced[key] = tuple(coerced[key])
        if coerced.get("box") is not None:
            lo, hi = coerced["box"]
            coerced["box"] = (tuple(lo), tuple(hi))
        try:
            return cls(**coerced)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        return cls.from_dict(data)
