"""Command-line interface: one-body and many-body runs, table reproduction.

Subcommands
-----------
one-body     solve the boundary system for one body; writes J.csv, Q.json,
             E_table.csv and validation.json
many-body    solve the coupled-moment system on a lattice; writes
             centers.csv, E_centers.csv, solution.csv and summary.json
reproduce    rerun a bundled reference experiment through the one-body or
             many-body pipeline and emit a side-by-side CSV of published
             versus computed values; each table fixes its body and
             evaluation fields, and --tol, --restart and --max-iter apply
gamma        print the shape coupling matrix of the configured body
mesh-export  write the collocation mesh as CSV

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence.
All artifacts embed the fully resolved configuration for provenance: JSON
under a "config" key, CSV as a first "# config: {...}" line (for a reproduce
table, the configuration of its first solve).  Every CSV is written by
_write_csv from named columns: a 3-vector column Q becomes Qx, Qy, Qz, a
complex column z becomes z_re, z_im, and numbers have 16 significant digits.
This module is the only writer of these tables.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .config import GAMMA_MODES, SHAPES, ConfigError, RunConfig
from .diagnostics import gamma_for, validate_solution
from .linalg import ConvergenceError
from .many_body import (
    effective_field_at_centers,
    error_estimate_many,
    lattice_layout,
    solve_effective_field,
)
from .one_body import (
    gamma_numeric,
    gamma_sphere_analytic,
    solve_current,
    solve_currents,
)

# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _write_csv(path: Path, columns: dict, config: RunConfig) -> None:
    """Write columns, {name: one value per row} in order, under a config line.

    An (n, 3) column Q is written as Qx, Qy, Qz (and an unnamed one as x, y,
    z), a complex column z as z_re, z_im; numbers with 16 significant digits,
    strings as they are.
    """
    flat = {}
    for name, values in columns.items():
        values = np.asarray(values)
        parts = ({name + c: values[:, i] for i, c in enumerate("xyz")}
                 if values.ndim == 2 else {name: values})
        for key, part in parts.items():
            if np.iscomplexobj(part):
                flat[f"{key}_re"], flat[f"{key}_im"] = part.real, part.imag
            else:
                flat[key] = part
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(config.to_dict(), sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(flat)
        writer.writerows(
            [v if isinstance(v, str) else f"{v:.16g}" for v in row]
            for row in zip(*(part.tolist() for part in flat.values()))
        )


def _pairs(values) -> list:
    """The complex values, flattened, as JSON [re, im] pairs."""
    return [[z.real, z.imag] for z in np.ravel(values)]


def _write_json(path: Path, payload: dict, config: RunConfig) -> None:
    payload = {"config": config.to_dict(), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Pipelines: the computation of one-body and many-body, shared by reproduce
# ---------------------------------------------------------------------------

def _one_body(config: RunConfig, mesh, current=None):
    """Solve config's body on mesh and validate it: (current, gamma, report).

    current, already solved on mesh at config.bie_scale, is validated as it is.
    """
    wave = config.wave()
    if current is None:
        current = solve_current(
            mesh, wave, tol=config.tol, restart=config.restart,
            max_iter=config.max_iter, scale=config.bie_scale,
        )
    gamma = gamma_for(config.gamma_mode, mesh)
    report = validate_solution(
        mesh, wave, current, gamma,
        distances=config.distances, direction=config.eval_direction,
    )
    return current, gamma, report


def _many_body(config: RunConfig):
    """Solve config's lattice: (layout, solution, fields, probe, estimate).

    fields are the effective fields at the centres; estimate is the error
    estimate at probe, one spacing beyond the last centre along x.
    """
    wave = config.wave()
    layout = lattice_layout(config.count, config.spacing, config.particle_radius,
                            box=config.box)
    solution = solve_effective_field(
        layout, wave, gamma_sphere_analytic(), tol=config.tol,
        restart=config.restart, max_iter=config.max_iter,
    )
    fields = effective_field_at_centers(layout, wave, solution)
    probe = layout.centers[-1] + np.array([config.spacing, 0.0, 0.0])
    return layout, solution, fields, probe, error_estimate_many(layout, solution, probe)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_one_body(config: RunConfig) -> int:
    """Solve one body and write J.csv, Q.json, E_table.csv, validation.json."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    mesh = config.mesh()
    print(f"collocation points: {mesh.n_points}", file=sys.stderr)
    current, gamma, report = _one_body(config, mesh)

    _write_csv(outdir / "J.csv",
               {"": mesh.points, "w": mesh.weights, "J": current.values}, config)
    _write_json(outdir / "Q.json", {
        "q_exact": _pairs(report.q_exact), "q_asym": _pairs(report.q_asym),
        "gamma": _pairs(gamma.gamma), "tau": _pairs(gamma.tau),
        "solver": asdict(current.report), "operator": current.operator,
        "characters": list(current.characters),
    }, config)
    distances, gaps = np.reshape(report.e_asym_rel, (-1, 2)).T
    _write_csv(outdir / "E_table.csv", {"distance": distances, "Ee": report.e_exact,
                                         "Ea": report.e_asym, "rel_error": gaps}, config)
    _write_json(outdir / "validation.json", report.to_dict(), config)
    print(f"artifacts written to {outdir}", file=sys.stderr)
    return 0


def cmd_many_body(config: RunConfig) -> int:
    """Solve the lattice problem; write centers, E_centers, solution CSVs and summary.json."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    layout, solution, fields, probe, estimate = _many_body(config)

    index = np.arange(layout.count)
    _write_csv(outdir / "centers.csv", {"": layout.centers, "volume": layout.volumes}, config)
    _write_csv(outdir / "E_centers.csv", {"index": index, "E": fields}, config)
    _write_csv(outdir / "solution.csv",
               {"index": index, "A": solution.a_values, "Q": solution.q_values}, config)
    _write_json(
        outdir / "summary.json",
        {
            "count": layout.count,
            "norm_of_E": float(np.linalg.norm(fields)),
            "error_estimate": estimate,
            "error_probe_point": [float(v) for v in probe],
            "solver": asdict(solution.report),
            "operator": solution.operator,
        },
        config,
    )
    print(f"artifacts written to {outdir}", file=sys.stderr)
    return 0


def cmd_gamma(config: RunConfig) -> int:
    """Print analytic (sphere) and numeric coupling matrices as JSON."""
    mesh = config.mesh()
    out = {
        "n_points": mesh.n_points,
        "numeric_local": _pairs(gamma_numeric(mesh, "local").gamma),
        "numeric_lab": _pairs(gamma_numeric(mesh, "lab").gamma),
    }
    if config.shape == "sphere":
        out["sphere_analytic"] = _pairs(gamma_sphere_analytic().gamma)
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_mesh_export(config: RunConfig, output: str) -> int:
    """Write the collocation mesh as CSV, one row per point: x,y,z,Nx,Ny,Nz,w."""
    mesh = config.mesh()
    _write_csv(Path(output),
               {"": mesh.points, "N": mesh.normals, "w": mesh.weights}, config)
    print(f"{mesh.n_points} points -> {output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Reference-table reproduction
# ---------------------------------------------------------------------------

def _deviation(computed, published) -> np.ndarray:
    return np.abs(np.subtract(computed, published)) / np.abs(published)


def _q_columns(config: RunConfig, published: dict) -> dict:
    """q-sphere: the z moments and their gap, from one one-body run."""
    _, _, report = _one_body(config, config.mesh())
    computed = [report.q_exact[2].imag, report.q_asym[2].imag, report.q_asym_rel]
    values = list(published.values())
    return {"quantity": list(published), "published": values,
            "computed": computed, "rel_deviation": _deviation(computed, values)}


def _e_columns(config: RunConfig, published: dict) -> dict:
    """The E tables: the far-field gap at each distance, from one one-body run."""
    _, _, report = _one_body(config, config.mesh())
    distances, gaps = np.reshape(report.e_asym_rel, (-1, 2)).T
    return {"distance": distances, "published_error": published["errors"],
            "computed_error": gaps, "rel_deviation": _deviation(gaps, published["errors"])}


def _sweep_columns(config: RunConfig, published: dict) -> dict:
    """sweep-1386: per radius, the E gap at config's scale and distance, then
    the Q gap at scale 1, both solved in one shifted GMRES on one operator."""
    e_gaps, q_gaps = [], []
    for radius in published["radii"]:
        e_config = replace(config, radius=radius)
        q_config = replace(e_config, bie_scale=1.0, distances=())
        mesh = e_config.mesh()
        e_current, q_current = solve_currents(
            mesh, e_config.wave(), (e_config.bie_scale, q_config.bie_scale),
            tol=config.tol, restart=config.restart, max_iter=config.max_iter,
        )
        ((_, e_gap),) = _one_body(e_config, mesh, e_current)[2].e_asym_rel
        q_gaps.append(_one_body(q_config, mesh, q_current)[2].q_asym_rel)
        e_gaps.append(e_gap)
    return {
        "radius": published["radii"],
        "published_e_error": published["e_errors"], "computed_e_error": e_gaps,
        "e_rel_deviation": _deviation(e_gaps, published["e_errors"]),
        "published_q_error": published["q_errors"], "computed_q_error": q_gaps,
        "q_rel_deviation": _deviation(q_gaps, published["q_errors"]),
    }


def _many_columns(config: RunConfig, published: dict) -> dict:
    """many-27 and many-1000: per particle radius, the field norm at the
    centres and the error estimate, from one many-body run."""
    norms, errors = [], []
    for radius in published["radii"]:
        _, _, fields, _, error = _many_body(replace(config, particle_radius=radius))
        norms.append(float(np.linalg.norm(fields)))
        errors.append(error)
    return {
        "radius": published["radii"], "published_norm": [published["norm"]] * len(norms),
        "computed_norm": norms, "published_error": published["errors"],
        "computed_error": errors,
        "error_rel_deviation": _deviation(errors, published["errors"]),
    }


class Table(NamedTuple):
    """A bundled reference experiment of `reproduce`.

    fields are the RunConfig fields of its first solve, set over the caller's
    config: only the wave, tol, restart and max_iter are the caller's own.
    columns(table config, published) returns the CSV columns.
    """

    fields: dict
    published: dict
    columns: Callable


_ELLIPSOID_AXES = (1e-8, 1e-9, 1e-9)
_SWEEP_RADII = (1.0e-7, 1.0e-8, 1.0e-9, 1.0e-10)
_MANY_RADII = (1.0e-8, 1.0e-9, 1.0e-10, 1.0e-11)

#: The reproduce tables by id, with the published values they are compared to.
TABLES = {
    "q-sphere": Table(
        dict(shape="sphere", radius=1e-9, m_phi=12, bie_scale=1.0, gamma_mode="sphere",
             distances=()),
        {"Q_exact_z_imag": 0.3925e-21, "Q_asym_z_imag": 0.3760e-21, "Q_gap_rel": 4.21e-2},
        _q_columns,
    ),
    "e-sphere": Table(
        dict(shape="sphere", radius=1e-9, m_phi=12, bie_scale=2.0, gamma_mode="sphere",
             distances=(1.73e-8, 1.73e-7, 1.73e-6)),
        {"errors": (4.67e-4, 4.67e-7, 4.70e-10)},
        _e_columns,
    ),
    "e-ellipsoid": Table(
        # evaluated at 10, 100 and 1000 times the semi-axes vector
        dict(shape="ellipsoid", semi_axes=_ELLIPSOID_AXES, m_phi=14, bie_scale=2.0,
             gamma_mode="numeric-local", eval_direction=_ELLIPSOID_AXES,
             distances=tuple(m * float(np.linalg.norm(_ELLIPSOID_AXES))
                             for m in (10.0, 100.0, 1000.0))),
        {"errors": (1.73e-4, 1.73e-7, 1.73e-10)},
        _e_columns,
    ),
    "e-cube": Table(
        dict(shape="cube", radius=1e-7, n_per_face=10, bie_scale=2.0, gamma_mode="sphere",
             distances=(1.73e-3, 1.73e-4, 1.73e-5, 1.73e-6)),
        {"errors": (1.19e-8, 1.19e-7, 1.52e-6, 8.64e-4)},
        _e_columns,
    ),
    "sweep-1386": Table(
        dict(shape="sphere", radius=_SWEEP_RADII[0], m_phi=16, bie_scale=2.0,
             gamma_mode="sphere", distances=(1.73e-5,)),
        {"radii": _SWEEP_RADII, "e_errors": (1.08e-6, 1.08e-9, 1.08e-12, 1.12e-15),
         "q_errors": (1.96e-2, 1.96e-2, 1.96e-2, 1.89e-2)},
        _sweep_columns,
    ),
    "many-27": Table(
        dict(count=27, spacing=1e-7, particle_radius=_MANY_RADII[0], box=RunConfig.box),
        {"radii": _MANY_RADII, "norm": 5.20,
         "errors": (8.16e-6, 8.16e-10, 8.16e-14, 8.16e-18)},
        _many_columns,
    ),
    "many-1000": Table(
        dict(count=1000, spacing=1e-7, particle_radius=_MANY_RADII[0], box=RunConfig.box),
        {"radii": _MANY_RADII, "norm": 31.6,
         "errors": (3.02e-4, 3.02e-8, 3.02e-12, 3.02e-16)},
        _many_columns,
    ),
}


def cmd_reproduce(config: RunConfig, table_id: str) -> int:
    """Write reproduce_<table_id>.csv under the config of its first solve; echo it."""
    if table_id not in TABLES:
        raise ConfigError(f"unknown table id {table_id!r}; choose from {sorted(TABLES)}")
    table = TABLES[table_id]
    config = replace(config, warnings=[],
                     **{"eval_direction": (1.0, 1.0, 1.0), **table.fields})
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"reproduce_{table_id}.csv"
    _write_csv(path, table.columns(config, table.published), config)
    with open(path) as fh:
        sys.stdout.write(fh.read())
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--output-dir", help="artifact directory")
    parser.add_argument("--wavelength", type=float)
    parser.add_argument("--wavenumber", type=float)
    parser.add_argument("--frequency", type=float)
    parser.add_argument("--amplitude", type=float, nargs=3, metavar=("EX", "EY", "EZ"))
    parser.add_argument("--direction", type=float, nargs=3, metavar=("AX", "AY", "AZ"))
    parser.add_argument("--permeability", type=float)
    parser.add_argument("--permittivity", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--restart", type=int)
    parser.add_argument("--max-iter", type=int, dest="max_iter")


def _add_shape_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shape", choices=SHAPES)
    parser.add_argument("--radius", type=float, help="sphere radius / cube half side (cm)")
    parser.add_argument("--semi-axes", type=float, nargs=3, dest="semi_axes",
                        metavar=("A", "B", "C"))
    parser.add_argument("--m-phi", type=int, dest="m_phi")
    parser.add_argument("--n-per-face", type=int, dest="n_per_face")
    parser.add_argument("--bie-scale", type=float, dest="bie_scale")
    parser.add_argument("--gamma-mode", dest="gamma_mode", choices=GAMMA_MODES)
    parser.add_argument("--distances", type=float, nargs="+")
    parser.add_argument("--eval-direction", type=float, nargs=3, dest="eval_direction",
                        metavar=("X", "Y", "Z"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emscat",
        description="EM scattering by small perfectly conducting bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_one = sub.add_parser("one-body", help="boundary-integral solve for one body")
    _add_common_options(p_one)
    _add_shape_options(p_one)

    p_many = sub.add_parser("many-body", help="coupled-moment solve on a lattice")
    _add_common_options(p_many)
    p_many.add_argument("--count", type=int, help="number of particles (perfect cube)")
    p_many.add_argument("--spacing", type=float, help="lattice spacing (cm)")
    p_many.add_argument("--particle-radius", type=float, dest="particle_radius")

    p_rep = sub.add_parser("reproduce", help="rerun a bundled reference experiment")
    _add_common_options(p_rep)
    p_rep.add_argument("table_id", help=" | ".join(TABLES))

    p_gamma = sub.add_parser("gamma", help="coupling matrix of the configured body")
    _add_common_options(p_gamma)
    _add_shape_options(p_gamma)

    p_mesh = sub.add_parser("mesh-export", help="write the collocation mesh as CSV")
    _add_common_options(p_mesh)
    _add_shape_options(p_mesh)
    p_mesh.add_argument("--output", default="mesh.csv")

    return parser


#: The parser main uses, built once per process: parse_args keeps no state
#: between calls, each returning a fresh namespace of the defaults.
_parser = functools.cache(build_parser)


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        data = RunConfig.from_json(args.config).to_dict()
    skip = {"command", "config", "table_id", "output"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        data[key] = tuple(value) if isinstance(value, list) else value
    config = RunConfig.from_dict(data)
    for message in config.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return config


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            config = _resolve_config(args)
            if args.command == "one-body":
                return cmd_one_body(config)
            if args.command == "many-body":
                return cmd_many_body(config)
            if args.command == "reproduce":
                return cmd_reproduce(config, args.table_id)
            if args.command == "gamma":
                return cmd_gamma(config)
            if args.command == "mesh-export":
                return cmd_mesh_export(config, args.output)
            raise ConfigError(f"unknown command {args.command!r}")
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
