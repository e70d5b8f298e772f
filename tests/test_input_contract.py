"""Fuzz test of the input contract: one bad argument of a solver, a layout, a
mesh builder, a wave or a coupling matrix fails with a ValueError that names
it, before any operator is assembled."""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from emscat import (GammaMatrix, IncidentWave, ParametricSurface, default_wave,  # noqa: E402
                    gamma_sphere_analytic, lattice_layout, layout_from_centers, mesh_cube,
                    mesh_ellipsoid, mesh_sphere, solve_current, solve_effective_field)

WAVE = default_wave()
MESH = mesh_sphere(1e-9, 4)
LATTICE = lattice_layout(8, 1e-7, 1e-9)
CENTERS = lattice_layout(27, 1.5e-7, 1e-9).centers + 1e-7
NON_FINITE = [np.nan, np.inf, -np.inf]
NEGATIVE = st.floats(max_value=-1e-300)
SOLVERS = {
    "solve_current": lambda **knob: solve_current(MESH, WAVE, **knob),
    "solve_effective_field": lambda **knob: solve_effective_field(
        LATTICE, WAVE, gamma_sphere_analytic(), **knob),
}


def ellipsoid(u, v):
    return np.cos(u) * np.sin(v), np.sin(u) * np.sin(v), 0.5 * np.cos(v)


#: Each entry point, by the argument names it takes, with valid values for
#: all of them; a case replaces one by a bad value.
BUILDERS = {
    "layout": (lambda **fields: layout_from_centers(CENTERS, **fields),
               {"spacing": 1e-7, "radius": 1e-9, "box": ((0.0,) * 3, (1.0,) * 3)}),
    "lattice_layout": (lattice_layout, {"count": 8, "spacing": 1e-7, "radius": 1e-9}),
    "mesh_sphere": (mesh_sphere, {"radius": 1e-9, "m_phi": 4}),
    "mesh_ellipsoid": (mesh_ellipsoid, {"a": 2e-9, "b": 1e-9, "c": 1e-9, "m_phi": 4}),
    "mesh_cube": (mesh_cube, {"a_half": 1e-9, "n_per_face": 2}),
    "ParametricSurface": (ParametricSurface, {"func": ellipsoid, "u_range": (0.0, 2 * np.pi),
                                              "v_range": (0.0, np.pi), "n_u": 4, "n_v": 4}),
    "IncidentWave": (IncidentWave, {"amplitude": WAVE.amplitude, "direction": WAVE.direction,
                                    "wavenumber": WAVE.wavenumber, "frequency": 5e14,
                                    "permeability": 1.0}),
    "default_wave": (default_wave, {"wavelength": 6e-5}),
    "GammaMatrix.from_gamma": (GammaMatrix.from_gamma, {"gamma": np.zeros((3, 3))}),
}
#: Which entry point takes each argument; the solver knobs go to either solver.
POSITIVE = {"spacing": "layout", "radius": "mesh_sphere", "a": "mesh_ellipsoid",
            "b": "mesh_ellipsoid", "c": "mesh_ellipsoid", "a_half": "mesh_cube",
            "wavenumber": "IncidentWave", "frequency": "IncidentWave",
            "permeability": "IncidentWave", "wavelength": "default_wave", "tol": None}
COUNTS = {"m_phi": "mesh_sphere", "n_per_face": "mesh_cube", "n_u": "ParametricSurface",
          "n_v": "ParametricSurface", "restart": None, "max_iter": None}
NOT_NUMBERS = [True, "1"]  # a bool and a str are refused, whatever they read as


def corner(value):
    """A box with value at a drawn corner coordinate."""
    return st.tuples(st.integers(0, 1), st.integers(0, 2)).map(
        lambda at: tuple(tuple(value if (i, j) == at else float(i) for j in range(3))
                         for i in range(2)))


def entry(value):
    """A 3 x 3 gamma with value at a drawn entry."""
    return st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda at: np.where(np.arange(9).reshape(3, 3) == 3 * at[0] + at[1], value, 0.0))


#: Each argument with the kinds of bad value it refuses, one strategy a kind,
#: as (entry point, argument, strategy).  A finite number > 0 refuses NaN,
#: +-inf, 0, a negative number, a bool and a str; an integer count also
#: refuses a float, integral or not, and one below its least value.
CASES = [(where, name, st.just(value)) for name, where in POSITIVE.items()
         for value in NON_FINITE + [0.0] + NOT_NUMBERS]
CASES += [(where, name, NEGATIVE) for name, where in POSITIVE.items()]
CASES += [(where, name, st.just(value)) for name, where in COUNTS.items()
          for value in NON_FINITE + [0] + NOT_NUMBERS]
CASES += [(where, name, st.integers(max_value=-1)) for name, where in COUNTS.items()]
CASES += [(where, name, st.floats(2, 1e9)) for name, where in COUNTS.items()]
CASES += [(where, "m_phi", st.just(1)) for where in ("mesh_sphere", "mesh_ellipsoid")]
CASES += [(where, "radius", st.just(value)) for where in ("layout", "lattice_layout")
          for value in NON_FINITE + NOT_NUMBERS]
CASES += [("lattice_layout", "spacing", st.just(value))
          for value in NON_FINITE + [0.0] + NOT_NUMBERS]
CASES += [("layout", "radius", NEGATIVE)]
CASES += [("lattice_layout", name, NEGATIVE) for name in ("spacing", "radius")]
CASES += [("layout", "box", corner(value)) for value in NON_FINITE + ["1"]]
CASES += [("layout", "box", st.just(((0.0, 0.0, 0.0), (1.0, 1.0))))]  # ragged
CASES += [("GammaMatrix.from_gamma", "gamma", entry(value)) for value in NON_FINITE]
CASES += [("GammaMatrix.from_gamma", "gamma", st.just(value))
          for value in [np.zeros((2, 2)), True, "x", [[0.0] * 3] * 2 + [[0.0] * 2]]]


def no_assembly(*args, **kwargs):
    raise AssertionError("an operator was assembled")


@settings(max_examples=8)
@given(data=st.data())
def test_bad_argument_is_named_before_any_assembly(data):
    # every case in every example, so that each kind of bad value is drawn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("emscat.one_body.OneBodyOperator", no_assembly)
        patch.setattr("emscat.many_body.ManyBodyOperator", no_assembly)
        for where, name, values in CASES:
            value = data.draw(values, label=f"{where or 'solver'} {name}")
            if where is None:
                call = SOLVERS[data.draw(st.sampled_from(sorted(SOLVERS)), label="solver")]
            else:
                builder, arguments = BUILDERS[where]
                call = lambda **bad: builder(**{**arguments, **bad})  # noqa: E731
            with pytest.raises(ValueError) as info:
                call(**{name: value})
            assert re.search(rf"\b{name} must be", str(info.value)), str(info.value)
