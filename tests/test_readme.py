"""The README's library quick start runs and prints what its comments say, and
its dense-oracle recipe gives the GMRES current."""

import contextlib
import io
import re
from decimal import Decimal
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_commented_values():
    code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # the value each print's comment states, as "# ~0.008"
    expected = re.findall(r"^print\(.*#\s*~(\S+)$", code, re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert len(expected) == len(printed) == 3, (expected, printed)
    for comment, value in zip(expected, printed):
        # equal to the comment's last stated digit
        unit = Decimal(10) ** Decimal(comment).as_tuple().exponent
        assert abs(Decimal(value) - Decimal(comment)) <= unit / 2, (comment, value)


def test_oracle_recipe_matches_the_gmres_current():
    quick_start, recipe = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)[:2]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(quick_start, str(README), "exec"), namespace)
    exec(compile(recipe, str(README), "exec"), namespace)
    es, mesh, wave = namespace["es"], namespace["mesh"], namespace["wave"]
    gmres = es.solve_current(mesh, wave).values
    error = np.linalg.norm(namespace["j_dense"] - gmres) / np.linalg.norm(gmres)
    assert mesh.n_points == 766 and error <= 1e-8, error
