"""Run configuration: physical parameters, body, solver and output options.

A RunConfig collects everything one CLI invocation needs.  Defaults are the
shared experiment parameters (c = 3e10 cm/s, frequency 5e14 Hz, wavelength
6e-5 cm, incidence along y, amplitude along x); the wavenumber is derived
from the wavelength unless given explicitly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .geometry import CollocationMesh, mesh_cube, mesh_ellipsoid, mesh_sphere
from .waves import FREQUENCY, IncidentWave, WAVELENGTH, WAVE_SPEED


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


SHAPES = ("sphere", "ellipsoid", "cube")
GAMMA_MODES = ("sphere", "numeric-local", "numeric-lab")


def _check_number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def _check_positive(name: str, value) -> None:
    _check_number(name, value)
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite number greater than 0, got {value}")


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ConfigError(f"{name} must be an integer of at least 1, got {value!r}")


def _numbers(name: str, value, shape: tuple, what: str, valid=np.isfinite) -> tuple:
    """value, numbers of the given shape (None matches any length), as tuples.

    valid(array) must hold for every entry; else ConfigError naming name,
    with what describing the expected value.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nesting
        array = np.asarray(None)
    if (array.dtype.kind not in "iuf" or array.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, array.shape))
            or not valid(array.astype(float)).all()):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return tuple(map(tuple, value)) if array.ndim == 2 else tuple(value)


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
        for name, shape, what, valid in (
            ("direction", (3,), "3 finite numbers", np.isfinite),
            ("amplitude", (3,), "3 finite numbers", np.isfinite),
            ("eval_direction", (3,), "3 finite numbers", np.isfinite),
            ("distances", (None,), "a list of finite numbers greater than 0",
             lambda a: np.isfinite(a) & (a > 0)),
            ("box", (2, 3), "two triples of finite numbers", np.isfinite),
        ):
            setattr(self, name, _numbers(name, getattr(self, name), shape, what, valid))
        if self.semi_axes is not None:
            # the mesh builder rejects sizes that are not finite and positive
            self.semi_axes = _numbers("semi_axes", self.semi_axes, (3,), "3 numbers (a, b, c)",
                                      valid=np.isreal)
        if not any(self.eval_direction):
            raise ConfigError("eval_direction must be nonzero")
        try:
            self.wave()
        except ValueError as exc:  # direction not a unit vector transverse to amplitude
            raise ConfigError(str(exc)) from None
        _check_number("radius", self.radius)
        for name in ("tol", "spacing", "particle_radius"):
            _check_positive(name, getattr(self, name))
        for name in ("count", "restart", "max_iter", "m_phi", "n_per_face"):
            _check_count(name, getattr(self, name))
        _check_number("bie_scale", self.bie_scale)
        if not (np.isfinite(self.bie_scale) and self.bie_scale != 0):
            raise ConfigError(f"bie_scale must be a finite nonzero number, got {self.bie_scale}")
        for name, choices in (("shape", SHAPES), ("gamma_mode", GAMMA_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}; choose from {choices}")
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
        )

    def mesh(self) -> CollocationMesh:
        """Collocation mesh of the configured body: the one shape-to-builder dispatch."""
        if self.shape == "sphere":
            return mesh_sphere(self.radius, self.m_phi)
        if self.shape == "ellipsoid":
            if self.semi_axes is None:
                raise ConfigError("ellipsoid shape needs semi_axes (a, b, c)")
            return mesh_ellipsoid(*self.semi_axes, self.m_phi)
        return mesh_cube(self.radius, self.n_per_face)

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
        return cls(**data)

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
