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
under a "config" key, CSV as a first "# config: {...}" line.  Complex numbers
are serialized as re/im column pairs with 16 significant digits.  This module
is the only writer of these tables.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .diagnostics import gamma_for, validate_solution
from .linalg import ConvergenceError
from .many_body import (
    effective_field_at_centers,
    error_estimate_many,
    lattice_layout,
    solve_effective_field,
)
from .one_body import (
    assemble_one_body,
    gamma_numeric,
    gamma_sphere_analytic,
    solve_current,
)

#: Published values of the bundled reference experiments, used by the
#: `reproduce` subcommand for side-by-side comparison tables.
REFERENCE_TABLES = {
    "q-sphere": {
        "q_exact_z_imag": 0.3925e-21,
        "q_asym_z_imag": 0.3760e-21,
        "q_gap_rel": 4.21e-2,
    },
    "e-sphere": {
        "distances": (1.73e-8, 1.73e-7, 1.73e-6),
        "errors": (4.67e-4, 4.67e-7, 4.70e-10),
    },
    "e-ellipsoid": {
        "axis_multiples": (10.0, 100.0, 1000.0),
        "errors": (1.73e-4, 1.73e-7, 1.73e-10),
    },
    "e-cube": {
        "distances": (1.73e-3, 1.73e-4, 1.73e-5, 1.73e-6),
        "errors": (1.19e-8, 1.19e-7, 1.52e-6, 8.64e-4),
    },
    "sweep-1386": {
        "radii": (1.0e-7, 1.0e-8, 1.0e-9, 1.0e-10),
        "e_errors": (1.08e-6, 1.08e-9, 1.08e-12, 1.12e-15),
        "q_errors": (1.96e-2, 1.96e-2, 1.96e-2, 1.89e-2),
        "distance": 1.73e-5,
    },
    "many-27": {
        "radii": (1.0e-8, 1.0e-9, 1.0e-10, 1.0e-11),
        "norm": 5.20,
        "errors": (8.16e-6, 8.16e-10, 8.16e-14, 8.16e-18),
    },
    "many-1000": {
        "radii": (1.0e-8, 1.0e-9, 1.0e-10, 1.0e-11),
        "norm": 31.6,
        "errors": (3.02e-4, 3.02e-8, 3.02e-12, 3.02e-16),
    },
}


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.16g}"


def _complex_columns(name: str):
    return [f"{name}_re", f"{name}_im"]


def _complex_values(z: complex):
    return [_fmt(z.real), _fmt(z.imag)]


def _write_csv(path: Path, header: list, rows: list, config: RunConfig) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# config: " + json.dumps(config.to_dict(), sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict, config: RunConfig) -> None:
    payload = {"config": config.to_dict(), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Pipelines: the computation of one-body and many-body, shared by reproduce
# ---------------------------------------------------------------------------

def _one_body(config: RunConfig, mesh, operator=None):
    """Solve config's body on mesh and validate it: (current, gamma, report).

    operator, from assemble_one_body on mesh, is reused at config.bie_scale.
    """
    wave = config.wave()
    current = solve_current(
        mesh, wave, tol=config.tol, restart=config.restart,
        max_iter=config.max_iter, scale=config.bie_scale, operator=operator,
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
    layout = lattice_layout(
        config.count, config.spacing, config.particle_radius, box=config.box
    )
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

    rows = [
        [_fmt(v) for v in (*pt, w)] + sum((_complex_values(j) for j in jj), [])
        for pt, w, jj in zip(mesh.points, mesh.weights, current.values)
    ]
    header = ["x", "y", "z", "w"] + sum(
        (_complex_columns(f"J{c}") for c in "xyz"), []
    )
    _write_csv(outdir / "J.csv", header, rows, config)

    _write_json(
        outdir / "Q.json",
        {
            "q_exact": [[z.real, z.imag] for z in report.q_exact],
            "q_asym": [[z.real, z.imag] for z in report.q_asym],
            "gamma": [[z.real, z.imag] for z in gamma.gamma.ravel()],
            "tau": [[z.real, z.imag] for z in gamma.tau.ravel()],
            "solver": asdict(current.report),
        },
        config,
    )

    e_rows = [
        [_fmt(dist)]
        + sum((_complex_values(z) for z in (*e_e, *e_a)), [])
        + [_fmt(gap)]
        for (dist, gap), e_e, e_a in zip(report.e_asym_rel, report.e_exact, report.e_asym)
    ]
    e_header = (
        ["distance"]
        + sum((_complex_columns(f"Ee{c}") for c in "xyz"), [])
        + sum((_complex_columns(f"Ea{c}") for c in "xyz"), [])
        + ["rel_error"]
    )
    _write_csv(outdir / "E_table.csv", e_header, e_rows, config)
    _write_json(outdir / "validation.json", report.to_dict(), config)
    print(f"artifacts written to {outdir}", file=sys.stderr)
    return 0


def cmd_many_body(config: RunConfig) -> int:
    """Solve the lattice problem; write centers, E_centers, solution CSVs and summary.json."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    layout, solution, fields, probe, estimate = _many_body(config)

    _write_csv(
        outdir / "centers.csv",
        ["x", "y", "z", "volume"],
        [[_fmt(v) for v in (*c, vol)] for c, vol in zip(layout.centers, layout.volumes)],
        config,
    )
    _write_csv(
        outdir / "E_centers.csv",
        ["index"] + sum((_complex_columns(f"E{c}") for c in "xyz"), []),
        [
            [str(i)] + sum((_complex_values(z) for z in row), [])
            for i, row in enumerate(fields)
        ],
        config,
    )
    _write_csv(
        outdir / "solution.csv",
        ["index"] + sum((_complex_columns(f"{v}{c}") for v in "AQ" for c in "xyz"), []),
        [
            [str(i)] + sum((_complex_values(z) for z in (*a, *q)), [])
            for i, (a, q) in enumerate(zip(solution.a_values, solution.q_values))
        ],
        config,
    )
    _write_json(
        outdir / "summary.json",
        {
            "count": layout.count,
            "norm_of_E": float(np.linalg.norm(fields)),
            "error_estimate": estimate,
            "error_probe_point": [float(v) for v in probe],
            "solver": asdict(solution.report),
            "operator": {
                "coupling": solution.coupling,
                "bytes": solution.operator_bytes,
            },
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
        "numeric_local": [[z.real, z.imag] for z in gamma_numeric(mesh, "local").gamma.ravel()],
        "numeric_lab": [[z.real, z.imag] for z in gamma_numeric(mesh, "lab").gamma.ravel()],
    }
    if config.shape == "sphere":
        out["sphere_analytic"] = [
            [z.real, z.imag] for z in gamma_sphere_analytic().gamma.ravel()
        ]
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_mesh_export(config: RunConfig, output: str) -> int:
    """Write the collocation mesh as CSV, one row per point: x,y,z,Nx,Ny,Nz,w."""
    mesh = config.mesh()
    _write_csv(
        Path(output),
        ["x", "y", "z", "Nx", "Ny", "Nz", "w"],
        [
            [_fmt(v) for v in (*pt, *nrm, w)]
            for pt, nrm, w in zip(mesh.points, mesh.normals, mesh.weights)
        ],
        config,
    )
    print(f"{mesh.n_points} points -> {output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Reference-table reproduction
# ---------------------------------------------------------------------------

_ELLIPSOID_AXES = (1e-8, 1e-9, 1e-9)

#: The body and evaluation fields of each table, set over the caller's
#: config: only the wave, tol, restart and max_iter are the caller's own.
_TABLE_FIELDS = {
    "q-sphere": dict(shape="sphere", radius=1e-9, m_phi=12, bie_scale=1.0,
                     gamma_mode="sphere", distances=()),
    "e-sphere": dict(shape="sphere", radius=1e-9, m_phi=12, bie_scale=2.0,
                     gamma_mode="sphere",
                     distances=REFERENCE_TABLES["e-sphere"]["distances"]),
    "e-ellipsoid": dict(shape="ellipsoid", semi_axes=_ELLIPSOID_AXES, m_phi=14,
                        bie_scale=2.0, gamma_mode="numeric-local",
                        eval_direction=_ELLIPSOID_AXES,
                        distances=tuple(
                            m * float(np.linalg.norm(_ELLIPSOID_AXES))
                            for m in REFERENCE_TABLES["e-ellipsoid"]["axis_multiples"]
                        )),
    "e-cube": dict(shape="cube", radius=1e-7, n_per_face=10, bie_scale=2.0,
                   gamma_mode="sphere",
                   distances=REFERENCE_TABLES["e-cube"]["distances"]),
    # one sphere per radius, solved at scale 2 for E and at scale 1 for Q
    "sweep-1386": dict(shape="sphere", m_phi=16, gamma_mode="sphere"),
    # one lattice per particle radius
    "many-27": dict(count=27, spacing=1e-7, box=RunConfig.box),
    "many-1000": dict(count=1000, spacing=1e-7, box=RunConfig.box),
}


def _table_config(config: RunConfig, table_id: str, **fields) -> RunConfig:
    """config with the table's fields and then fields set; its own warnings."""
    fields = {"eval_direction": (1.0, 1.0, 1.0), **_TABLE_FIELDS[table_id], **fields}
    return replace(config, warnings=[], **fields)


def _reproduce_one_body(config: RunConfig, table_id: str):
    """q-sphere and the E tables: one one-body run on the table's body."""
    ref = REFERENCE_TABLES[table_id]
    table = _table_config(config, table_id)
    _, _, report = _one_body(table, table.mesh())
    if table_id == "q-sphere":
        rows = [
            ("Q_exact_z_imag", ref["q_exact_z_imag"], report.q_exact[2].imag),
            ("Q_asym_z_imag", ref["q_asym_z_imag"], report.q_asym[2].imag),
            ("Q_gap_rel", ref["q_gap_rel"], report.q_asym_rel),
        ]
        return ["quantity", "published", "computed", "rel_deviation"], [
            [name, _fmt(pub), _fmt(val), _fmt(abs(val - pub) / abs(pub))]
            for name, pub, val in rows
        ]
    return ["distance", "published_error", "computed_error", "rel_deviation"], [
        [_fmt(dist), _fmt(pub), _fmt(gap), _fmt(abs(gap - pub) / pub)]
        for (dist, gap), pub in zip(report.e_asym_rel, ref["errors"])
    ]


def _reproduce_sweep_1386(config: RunConfig):
    ref = REFERENCE_TABLES["sweep-1386"]
    header = [
        "radius", "published_e_error", "computed_e_error", "e_rel_deviation",
        "published_q_error", "computed_q_error", "q_rel_deviation",
    ]
    rows = []
    for radius, pub_e, pub_q in zip(ref["radii"], ref["e_errors"], ref["q_errors"]):
        e_table = _table_config(config, "sweep-1386", radius=radius, bie_scale=2.0,
                                distances=(ref["distance"],))
        q_table = _table_config(config, "sweep-1386", radius=radius, bie_scale=1.0,
                                distances=())
        mesh = e_table.mesh()
        operator, _ = assemble_one_body(mesh, e_table.wave())
        ((_, e_gap),) = _one_body(e_table, mesh, operator)[2].e_asym_rel
        q_gap = _one_body(q_table, mesh, operator)[2].q_asym_rel
        del operator  # free C before the next mesh is assembled
        rows.append(
            [_fmt(radius), _fmt(pub_e), _fmt(e_gap), _fmt(abs(e_gap - pub_e) / pub_e),
             _fmt(pub_q), _fmt(q_gap), _fmt(abs(q_gap - pub_q) / pub_q)]
        )
    return header, rows


def _reproduce_many(config: RunConfig, table_id: str):
    ref = REFERENCE_TABLES[table_id]
    header = [
        "radius", "published_norm", "computed_norm",
        "published_error", "computed_error", "error_rel_deviation",
    ]
    rows = []
    for radius, pub_err in zip(ref["radii"], ref["errors"]):
        table = _table_config(config, table_id, particle_radius=radius)
        _, _, fields, _, err = _many_body(table)
        rows.append(
            [_fmt(radius), _fmt(ref["norm"]), _fmt(float(np.linalg.norm(fields))),
             _fmt(pub_err), _fmt(err), _fmt(abs(err - pub_err) / pub_err)]
        )
    return header, rows


def cmd_reproduce(config: RunConfig, table_id: str) -> int:
    if table_id not in REFERENCE_TABLES:
        raise ConfigError(
            f"unknown table id {table_id!r}; choose from {sorted(REFERENCE_TABLES)}"
        )
    if table_id == "sweep-1386":
        header, rows = _reproduce_sweep_1386(config)
    elif table_id.startswith("many-"):
        header, rows = _reproduce_many(config, table_id)
    else:
        header, rows = _reproduce_one_body(config, table_id)
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"reproduce_{table_id}.csv"
    _write_csv(path, header, rows, config)
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
    parser.add_argument("--shape", choices=["sphere", "ellipsoid", "cube"])
    parser.add_argument("--radius", type=float, help="sphere radius / cube half side (cm)")
    parser.add_argument("--semi-axes", type=float, nargs=3, dest="semi_axes",
                        metavar=("A", "B", "C"))
    parser.add_argument("--m-phi", type=int, dest="m_phi")
    parser.add_argument("--n-per-face", type=int, dest="n_per_face")
    parser.add_argument("--bie-scale", type=float, dest="bie_scale")
    parser.add_argument("--gamma-mode", dest="gamma_mode",
                        choices=["sphere", "numeric-local", "numeric-lab"])
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
    p_rep.add_argument("table_id", help="q-sphere | e-sphere | e-ellipsoid | e-cube | "
                                        "sweep-1386 | many-27 | many-1000")

    p_gamma = sub.add_parser("gamma", help="coupling matrix of the configured body")
    _add_common_options(p_gamma)
    _add_shape_options(p_gamma)

    p_mesh = sub.add_parser("mesh-export", help="write the collocation mesh as CSV")
    _add_common_options(p_mesh)
    _add_shape_options(p_mesh)
    p_mesh.add_argument("--output", default="mesh.csv")

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        data = RunConfig.from_json(args.config).to_dict()
    skip = {"command", "config", "table_id", "output", "func"}
    for key, value in vars(args).items():
        if key in skip or value is None:
            continue
        data[key] = tuple(value) if isinstance(value, list) else value
    config = RunConfig.from_dict(data)
    for message in config.warnings:
        print(f"warning: {message}", file=sys.stderr)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
