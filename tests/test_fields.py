"""The five field evaluators on batches of points: (n, 3) in, (n, 3) out."""

import numpy as np
import pytest

from emscat.many_body import field_e_many, field_h_many
from emscat.one_body import (
    field_e_asymptotic,
    field_e_exact,
    field_h,
    gamma_sphere_analytic,
    moment_q_asymptotic,
)


@pytest.fixture(scope="module")
def evaluators(wave, sphere766, sphere766_current, many27):
    """Each evaluator as a function of the points alone."""
    q = moment_q_asymptotic(sphere766, wave, gamma_sphere_analytic())
    layout, solution = many27
    return {
        "field_e_exact": lambda x: field_e_exact(sphere766, wave, sphere766_current, x),
        "field_e_asymptotic": lambda x: field_e_asymptotic(wave, q, sphere766.center, x),
        "field_h": lambda x: field_h(wave, q, sphere766.center, x),
        "field_e_many": lambda x: field_e_many(layout, wave, solution, x),
        "field_h_many": lambda x: field_h_many(layout, wave, solution, x),
    }


NAMES = ["field_e_exact", "field_e_asymptotic", "field_h", "field_e_many", "field_h_many"]

#: Points outside the 1e-9 cm sphere at the origin and off the centres of the
#: 27-body lattice (spacing 1e-7 cm from the origin).
POINTS = np.array([
    [1.73e-8, 1.73e-8, 1.73e-8],
    [-3e-7, 1e-7, 2e-8],
    [5e-8, 5e-8, 5e-8],
    [1e-6, -2e-6, 3e-6],
])


@pytest.mark.parametrize("name", NAMES)
def test_batch_matches_per_point_loop(evaluators, name):
    evaluate = evaluators[name]
    batch = evaluate(POINTS)
    assert batch.shape == (len(POINTS), 3)
    looped = np.array([evaluate(x) for x in POINTS])
    np.testing.assert_allclose(batch, looped, rtol=1e-14)


@pytest.mark.parametrize("name", NAMES)
def test_empty_batch_gives_empty_result(evaluators, name):
    assert evaluators[name](np.empty((0, 3))).shape == (0, 3)
