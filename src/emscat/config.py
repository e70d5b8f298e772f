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

from .geometry import CollocationMesh, mesh_cube, mesh_ellipsoid, mesh_sphere
from .waves import FREQUENCY, IncidentWave, WAVELENGTH, WAVE_SPEED


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _check_positive(name: str, value) -> None:
    try:
        ok = bool(np.isfinite(value) and value > 0)
    except TypeError:  # a string or null from a config file
        ok = False
    if not ok:
        raise ConfigError(f"{name} must be a finite number greater than 0, got {value}")


def _as_floats(name: str, value) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must hold numbers, got {value!r}") from None


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")


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
        # the wave parameters are checked before any of them divides another
        for name in ("wavelength", "wave_speed", "frequency", "permeability", "permittivity"):
            _check_positive(name, getattr(self, name))
        if self.wavenumber is None:
            self.wavenumber = 2.0 * np.pi / self.wavelength
        _check_positive("wavenumber", self.wavenumber)
        direction = _as_floats("eval_direction", self.eval_direction)
        if direction.shape != (3,) or not np.isfinite(direction).all():
            raise ConfigError(
                f"eval_direction must be 3 finite numbers, got {self.eval_direction}"
            )
        if not direction.any():
            raise ConfigError("eval_direction must be nonzero")
        distances = _as_floats("distances", self.distances)
        if distances.ndim != 1 or not (np.isfinite(distances) & (distances > 0)).all():
            raise ConfigError(
                f"distances must be finite numbers greater than 0, got {self.distances}"
            )
        box = _as_floats("box", self.box)
        if box.shape != (2, 3) or not np.isfinite(box).all():
            raise ConfigError(f"box must be two triples of finite numbers, got {self.box}")
        self.box = tuple(tuple(corner) for corner in self.box)
        for name in ("tol", "spacing", "particle_radius"):
            _check_positive(name, getattr(self, name))
        for name in ("count", "restart", "max_iter"):
            _check_count(name, getattr(self, name))
        if not (np.isfinite(self.bie_scale) and self.bie_scale != 0):
            raise ConfigError(f"bie_scale must be a finite nonzero number, got {self.bie_scale}")
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

    def mesh(self) -> CollocationMesh:
        """Collocation mesh of the configured body: the one shape-to-builder dispatch."""
        if self.shape == "sphere":
            return mesh_sphere(self.radius, self.m_phi)
        if self.shape == "ellipsoid":
            if self.semi_axes is None or len(self.semi_axes) != 3:
                raise ConfigError("ellipsoid shape needs semi_axes (a, b, c)")
            a, b, c = self.semi_axes
            return mesh_ellipsoid(a, b, c, self.m_phi)
        if self.shape == "cube":
            return mesh_cube(self.radius, self.n_per_face)
        raise ConfigError(f"unknown shape {self.shape!r}")

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
