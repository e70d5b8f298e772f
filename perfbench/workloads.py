"""Seeded workload cases and the correctness gate each case must pass.

A case is one solve plus its post-processing, run through the public emscat
API.  ``run`` is the timed part; ``check`` inspects its outputs afterwards
and returns the broken invariants (empty when the case is correct).  Library
functions are looked up on the ``emscat`` package at call time so that a
traced pass sees the wrapped versions.

The checks are invariants any correct optimisation keeps: GMRES converged
with true residual <= tol, tangentiality <= 1e-10, the sphere coupling
matrix within the acceptance bound of diag(-1/3, -1/3, 1/6), the lattice
field norm at the centres, and the reproduce tables' acceptance bounds.  The
exact-versus-asymptotic moment gap is not checked: off the default incidence
it is a known open modelling gap, not a performance property.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import emscat
import emscat.cli

TOL = 1e-10
TANGENTIALITY_MAX = 1e-10
SPHERE_GAMMA = np.diag([-1.0 / 3.0, -1.0 / 3.0, 1.0 / 6.0])
SPHERE_GAMMA_BOUND = 5e-2          # acceptance criterion 1
CENTER_NORM_REL = 0.1 / 31.6       # criterion 9: |norm - 31.6| <= 0.1 at M = 1000
DIAGONAL = np.ones(3) / math.sqrt(3.0)

SPACING = 1e-7
PARTICLE_RADIUS = 1e-9
#: Jittered layouts: centres on a grid of pitch SCATTER_PITCH * spacing, each
#: moved by up to SCATTER_JITTER * spacing per axis, so every pair stays at
#: least (PITCH - 2 JITTER) * spacing = 1.1 spacing apart.
SCATTER_PITCH = 1.5
SCATTER_JITTER = 0.2

TABLES = ["q-sphere", "e-sphere", "e-ellipsoid", "e-cube", "sweep-1386",
          "many-27", "many-1000"]

#: Per size: one-body meshes (kind, id, builder args, BIE scale), lattice and
#: jittered body counts, and the reproduce tables.  "tiny" serves the
#: self-test only.  Sizes above these are left out on purpose: the dense
#: operators need about 110-145 B of RSS per point pair, so P > 3174 or
#: M = 8000 does not fit next to other work in 8 GB.
SIZES = {
    "full": {
        "one_body": [
            ("sphere", "sphere-766", (1e-9, 12), 1.0),
            ("sphere", "sphere-1762", (1e-9, 18), 1.0),
            ("sphere", "sphere-3174", (1e-9, 24), 1.0),
            ("ellipsoid", "ellipsoid-1052", (1e-8, 1e-9, 1e-9, 14), 2.0),
            ("cube", "cube-600", (1e-7, 10), 2.0),
        ],
        "lattice": [1000, 3375],
        "scatter": [729, 2197],
        "reproduce": TABLES,
    },
    "tiny": {
        "one_body": [
            ("sphere", "sphere-tiny", (1e-9, 7), 1.0),
            ("ellipsoid", "ellipsoid-tiny", (1e-8, 1e-9, 1e-9, 4), 2.0),
            ("cube", "cube-tiny", (1e-7, 3), 2.0),
        ],
        "lattice": [8, 27],
        "scatter": [8, 27],
        "reproduce": ["q-sphere", "e-cube", "many-27"],
    },
}

WORKLOADS = ["one-body", "lattice", "scatter", "reproduce"]


@dataclass
class Case:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def random_wave(rng: np.random.Generator) -> emscat.IncidentWave:
    """Plane wave of the default wavenumber, seeded direction and polarisation."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    amplitude = rng.normal(size=3)
    amplitude -= (amplitude @ direction) * direction
    amplitude /= np.linalg.norm(amplitude)
    return emscat.default_wave(amplitude=amplitude, direction=direction)


def _solver_failures(report) -> list[str]:
    if report.converged and report.final_residual <= TOL:
        return []
    return [f"GMRES not converged: residual {report.final_residual:.3e}"]


def _finite(name: str, values) -> list[str]:
    return [] if np.all(np.isfinite(values)) else [f"{name} not finite"]


# ---------------------------------------------------------------------------
# one-body: boundary solve, moments, fields and validation per mesh
# ---------------------------------------------------------------------------

MESH_BUILDERS = {"sphere": "mesh_sphere", "ellipsoid": "mesh_ellipsoid", "cube": "mesh_cube"}


def _eval_geometry(kind: str, args) -> tuple[np.ndarray, list[float]]:
    """Direction and the three distances of the E evaluation points."""
    if kind == "ellipsoid":
        axes = np.array(args[:3])
        norm = float(np.linalg.norm(axes))
        return axes / norm, [s * norm for s in (10.0, 100.0, 1000.0)]
    if kind == "cube":
        return DIAGONAL, [1.73e-3, 1.73e-4, 1.73e-5]
    return DIAGONAL, [1.73e-8, 1.73e-7, 1.73e-6]


def _one_body_case(kind, case_id, args, scale, wave) -> Case:
    direction, distances = _eval_geometry(kind, args)

    def run():
        mesh = getattr(emscat, MESH_BUILDERS[kind])(*args)
        current = emscat.solve_current(mesh, wave, tol=TOL, scale=scale)
        if kind == "cube":
            gamma = emscat.gamma_sphere_analytic()
        else:
            gamma = emscat.gamma_numeric(mesh, frame="local")
        q_asym = emscat.moment_q_asymptotic(mesh, wave, gamma)
        fields = [
            (emscat.field_e_exact(mesh, wave, current, x),
             emscat.field_e_asymptotic(wave, q_asym, mesh.center, x))
            for x in (mesh.center + d * direction for d in distances)
        ]
        report = emscat.validate_solution(
            mesh, wave, current, gamma, distances=distances, direction=direction)
        return current, gamma, fields, report

    def check(out) -> list[str]:
        current, gamma, fields, report = out
        failures = _solver_failures(current.report)
        if not report.tangentiality_max <= TANGENTIALITY_MAX:
            failures.append(f"tangentiality {report.tangentiality_max:.3e}")
        if kind == "sphere":
            deviation = float(np.max(np.abs(gamma.gamma - SPHERE_GAMMA)))
            if not deviation <= SPHERE_GAMMA_BOUND:
                failures.append(f"sphere gamma deviation {deviation:.3e}")
        failures += _finite("E fields", np.array(fields))
        failures += _finite("validation", [report.q_residual_rel, report.q_asym_rel]
                            + [e for _, e in report.e_asym_rel])
        return failures

    return Case(case_id, run, check)


def one_body_cases(rng, size) -> list[Case]:
    return [_one_body_case(kind, case_id, args, scale, random_wave(rng))
            for kind, case_id, args, scale in SIZES[size]["one_body"]]


# ---------------------------------------------------------------------------
# lattice / scatter: coupled moments, fields at the centres, probe fields
# ---------------------------------------------------------------------------

def _many_body_case(case_id, make_layout, wave) -> Case:
    def run():
        layout = make_layout()
        solution = emscat.solve_effective_field(
            layout, wave, emscat.gamma_sphere_analytic(), tol=TOL)
        fields = emscat.effective_field_at_centers(layout, wave, solution)
        lo, hi = layout.centers.min(axis=0), layout.centers.max(axis=0)
        probes = [hi + np.array([layout.spacing, 0.0, 0.0]),
                  lo - layout.spacing * DIAGONAL,
                  0.5 * (lo + hi) + 0.25 * layout.spacing * DIAGONAL]
        probe_values = [
            (emscat.error_estimate_many(layout, solution, x),
             emscat.field_e_many(layout, wave, solution, x),
             emscat.field_h_many(layout, wave, solution, x))
            for x in probes
        ]
        return layout, solution, fields, probe_values

    def check(out) -> list[str]:
        layout, solution, fields, probe_values = out
        failures = _solver_failures(solution.report)
        norm = float(np.linalg.norm(fields))
        expected = math.sqrt(layout.count)
        if not abs(norm / expected - 1.0) <= CENTER_NORM_REL:
            failures.append(f"|E| at centres {norm:.6g}, expected {expected:.6g}")
        for estimate, e, h in probe_values:
            if not (math.isfinite(estimate) and estimate > 0):
                failures.append(f"error estimate {estimate!r}")
            failures += _finite("probe fields", np.concatenate([e, h]))
        return failures

    return Case(case_id, run, check)


def lattice_cases(rng, size) -> list[Case]:
    cases = []
    for count in SIZES[size]["lattice"]:
        def make_layout(count=count):
            return emscat.lattice_layout(count, SPACING, PARTICLE_RADIUS)
        cases.append(_many_body_case(f"lattice-{count}", make_layout, random_wave(rng)))
    return cases


def jittered_centers(rng, count: int) -> np.ndarray:
    """count = n^3 centres: a pitched grid plus bounded uniform jitter."""
    n = round(count ** (1.0 / 3.0))
    grid = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, 3) * SCATTER_PITCH + 1.0
    jitter = rng.uniform(-SCATTER_JITTER, SCATTER_JITTER, size=grid.shape)
    return (grid + jitter) * SPACING


def scatter_cases(rng, size) -> list[Case]:
    cases = []
    for count in SIZES[size]["scatter"]:
        centers = jittered_centers(rng, count)

        def make_layout(centers=centers):
            return emscat.layout_from_centers(centers, SPACING, PARTICLE_RADIUS)
        cases.append(_many_body_case(f"scatter-{count}", make_layout, random_wave(rng)))
    return cases


# ---------------------------------------------------------------------------
# reproduce: the CLI tables, artifacts written to a temporary directory
# ---------------------------------------------------------------------------

def _read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _within_factor(computed: float, published: float, factor: float) -> bool:
    return computed > 0 and max(computed / published, published / computed) <= factor


def table_failures(table: str, rows: list[dict]) -> list[str]:
    """Bounds of tests/test_acceptance.py (criteria 3, 4, 7, 8, 9) per table.

    e-ellipsoid and sweep-1386 have no acceptance bound; their values must
    only be finite and positive.
    """
    bad = []
    if table == "q-sphere":
        gap = {r["quantity"]: float(r["computed"]) for r in rows}["Q_gap_rel"]
        if not gap <= 6e-2:
            bad.append(f"Q gap {gap:.3e} > 6e-2")
    elif table == "e-sphere":
        errors = [float(r["computed_error"]) for r in rows]
        if not all(_within_factor(float(r["computed_error"]), float(r["published_error"]), 3.0)
                   for r in rows):
            bad.append(f"E errors {errors} not within 3x of published")
        if not all(500 <= errors[i] / errors[i + 1] <= 2000 for i in range(len(errors) - 1)):
            bad.append(f"E error decade ratios out of [500, 2000]: {errors}")
    elif table == "e-cube":
        first = float(rows[0]["computed_error"])
        if not first <= 1e-7:
            bad.append(f"E error at {rows[0]['distance']} is {first:.3e} > 1e-7")
    elif table.startswith("many-"):
        norm_tol = 0.01 if table == "many-27" else 0.1
        for r in rows:
            norm = float(r["computed_norm"])
            if not abs(norm - float(r["published_norm"])) <= norm_tol:
                bad.append(f"norm {norm:.6g} at radius {r['radius']}")
            if not _within_factor(float(r["computed_error"]), float(r["published_error"]), 2.0):
                bad.append(f"error estimate {r['computed_error']} at radius {r['radius']}")
    values = [float(v) for r in rows for k, v in r.items()
              if k.startswith("computed") and v != ""]
    if not values or not all(math.isfinite(v) and v > 0 for v in values):
        bad.append("computed values missing, non-finite or non-positive")
    return bad


def _reproduce_case(table: str, outdir: Path) -> Case:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = emscat.cli.main(["reproduce", table, "--output-dir", str(outdir)])
        return code

    def check(code) -> list[str]:
        if code != 0:
            return [f"emscat reproduce {table} exited {code}"]
        return table_failures(table, _read_table(outdir / f"reproduce_{table}.csv"))

    return Case(table, run, check)


def reproduce_cases(size, outdir: Path) -> list[Case]:
    """The tables in the CLI's order; their inputs are fixed, not seeded."""
    return [_reproduce_case(table, outdir) for table in SIZES[size]["reproduce"]]


def build_cases(workload: str, seed: int, size: str, outdir: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    if workload == "one-body":
        return one_body_cases(rng, size)
    if workload == "lattice":
        return lattice_cases(rng, size)
    if workload == "scatter":
        return scatter_cases(rng, size)
    if workload == "reproduce":
        return reproduce_cases(size, outdir)
    raise ValueError(f"unknown workload {workload!r}")


#: The smallest case of each workload; its repeated runs give small_case_s.
SMALL_CASE = {
    "full": {"one-body": "sphere-766", "lattice": "lattice-1000",
             "scatter": "scatter-729", "reproduce": "q-sphere"},
    "tiny": {"one-body": "sphere-tiny", "lattice": "lattice-8",
             "scatter": "scatter-8", "reproduce": "q-sphere"},
}
