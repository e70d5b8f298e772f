"""Fuzz test of the input contract: one bad solver knob or layout field fails
with a ValueError that names it, before any operator is assembled."""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from emscat import (default_wave, gamma_sphere_analytic, lattice_layout,  # noqa: E402
                    layout_from_centers, mesh_sphere, solve_current, solve_effective_field)

WAVE = default_wave()
MESH = mesh_sphere(1e-9, 4)
LATTICE = lattice_layout(8, 1e-7, 1e-9)
CENTERS = lattice_layout(27, 1.5e-7, 1e-9).centers + 1e-7
NON_FINITE = [np.nan, np.inf, -np.inf]
NEGATIVE = st.floats(max_value=-1e-300)
#: Each argument with the kinds of bad value it refuses, one strategy a kind.
#: tol is a finite number > 0; restart and max_iter are integers >= 1, so a
#: float, integral or not, and a bool are refused, as RunConfig refuses them.
CASES = [(name, st.just(value)) for name in ("tol", "restart", "max_iter")
         for value in NON_FINITE + [0, True]]
CASES += [("spacing", st.just(value)) for value in NON_FINITE + [0.0]]
CASES += [(name, NEGATIVE) for name in ("tol", "restart", "max_iter", "spacing", "radius")]
CASES += [(name, st.integers(max_value=-1)) for name in ("restart", "max_iter")]
CASES += [(name, st.floats(1, 1e9)) for name in ("restart", "max_iter")]
CASES += [("radius", st.just(value)) for value in NON_FINITE]
CASES += [("box", st.just(value)) for value in NON_FINITE]  # in one corner coordinate
SOLVERS = {
    "solve_current": lambda **knob: solve_current(MESH, WAVE, **knob),
    "solve_effective_field": lambda **knob: solve_effective_field(
        LATTICE, WAVE, gamma_sphere_analytic(), **knob),
}


def build_layout(name, value, corner):
    """A 27-body layout with one field bad; a bad box has value at corner."""
    fields = {"spacing": 1e-7, "radius": 1e-9, "box": np.array([[0.0] * 3, [1.0] * 3])}
    if name == "box":
        fields["box"][corner] = value
    else:
        fields[name] = value
    return layout_from_centers(CENTERS, **fields)


def no_assembly(*args, **kwargs):
    raise AssertionError("an operator was assembled")


@settings(max_examples=len(CASES) * 4)
@given(data=st.data(), case=st.sampled_from(CASES))
def test_bad_argument_is_named_before_any_assembly(data, case):
    name, values = case
    value = data.draw(values, label=name)
    if name in ("tol", "restart", "max_iter"):
        solver = SOLVERS[data.draw(st.sampled_from(sorted(SOLVERS)), label="solver")]
        call = lambda: solver(**{name: value})  # noqa: E731
    else:
        corner = data.draw(st.tuples(st.integers(0, 1), st.integers(0, 2)), label="corner")
        call = lambda: build_layout(name, value, corner)  # noqa: E731
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("emscat.one_body.OneBodyOperator", no_assembly)
        patch.setattr("emscat.many_body.ManyBodyOperator", no_assembly)
        with pytest.raises(ValueError) as info:
            call()
    assert re.search(rf"\b{name} must be", str(info.value)), str(info.value)
