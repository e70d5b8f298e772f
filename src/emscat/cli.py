"""Command-line interface: one-body and many-body runs, table reproduction.

Subcommands
-----------
one-body     solve the boundary system for one body; writes J.csv, Q.json,
             E_table.csv and validation.json
many-body    solve the coupled-moment system on a lattice; writes
             centers.csv, E_centers.csv, solution.csv and summary.json
reproduce    rerun a bundled reference experiment and emit a side-by-side
             CSV of published versus computed values
gamma        print the shape coupling matrix of the configured body
mesh-export  write the collocation mesh as CSV

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence.
All artifacts embed the fully resolved configuration for provenance; complex
numbers are serialized as re/im column pairs with 16 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig
from .diagnostics import (
    check_e_asymptotic,
    check_q_asymptotic,
    gamma_for,
    validate_solution,
)
from .geometry import mesh_cube, mesh_ellipsoid, mesh_sphere
from .linalg import ConvergenceError
from .many_body import (
    effective_field_at_centers,
    error_estimate_many,
    lattice_layout,
    solve_effective_field,
)
from .one_body import (
    field_e_asymptotic,
    field_e_exact,
    gamma_numeric,
    gamma_sphere_analytic,
    moment_q_asymptotic,
    moment_q_exact,
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
# Subcommands
# ---------------------------------------------------------------------------

def cmd_one_body(config: RunConfig) -> int:
    """Solve one body and write J.csv, Q.json, E_table.csv, validation.json."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    wave = config.wave()
    mesh = config.shape_spec().build()
    print(f"collocation points: {mesh.n_points}", file=sys.stderr)

    current = solve_current(
        mesh, wave, tol=config.tol, restart=config.restart,
        max_iter=config.max_iter, scale=config.bie_scale,
    )
    gamma = gamma_for(config.gamma_mode, mesh)
    q_e = moment_q_exact(current, mesh)
    q_a = moment_q_asymptotic(mesh, wave, gamma)

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
            "q_exact": [[z.real, z.imag] for z in q_e],
            "q_asym": [[z.real, z.imag] for z in q_a],
            "gamma": [[z.real, z.imag] for z in gamma.gamma.ravel()],
            "tau": [[z.real, z.imag] for z in gamma.tau.ravel()],
            "solver": {
                "iterations": current.report.iterations,
                "final_residual": current.report.final_residual,
                "converged": current.report.converged,
                "residual_history": current.report.residual_history,
            },
        },
        config,
    )

    e_rows = []
    for x in config.eval_points(mesh.center):
        e_e = field_e_exact(mesh, wave, current, x)
        e_a = field_e_asymptotic(wave, q_a, mesh.center, x)
        dist = float(np.linalg.norm(x - mesh.center))
        gap = float(np.linalg.norm(e_e - e_a) / np.linalg.norm(e_e))
        e_rows.append(
            [_fmt(dist)]
            + sum((_complex_values(z) for z in e_e), [])
            + sum((_complex_values(z) for z in e_a), [])
            + [_fmt(gap)]
        )
    e_header = (
        ["distance"]
        + sum((_complex_columns(f"Ee{c}") for c in "xyz"), [])
        + sum((_complex_columns(f"Ea{c}") for c in "xyz"), [])
        + ["rel_error"]
    )
    _write_csv(outdir / "E_table.csv", e_header, e_rows, config)

    report = validate_solution(
        mesh, wave, current, gamma,
        distances=config.distances, direction=config.eval_direction,
    )
    _write_json(outdir / "validation.json", report.to_dict(), config)
    print(f"artifacts written to {outdir}", file=sys.stderr)
    return 0


def cmd_many_body(config: RunConfig) -> int:
    """Solve the lattice problem; write centers, E_centers, solution CSVs and summary.json."""
    outdir = Path(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    wave = config.wave()
    gamma = gamma_sphere_analytic()
    layout = lattice_layout(
        config.count, config.spacing, config.particle_radius, box=config.box
    )
    solution = solve_effective_field(
        layout, wave, gamma, tol=config.tol, restart=config.restart,
        max_iter=config.max_iter,
    )
    fields = effective_field_at_centers(layout, wave, solution)

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
    _write_csv(outdir / "solution.csv", *solution.csv_table(), config)

    probe = layout.centers[-1] + np.array([config.spacing, 0.0, 0.0])
    _write_json(
        outdir / "summary.json",
        {
            "count": layout.count,
            "norm_of_E": float(np.linalg.norm(fields)),
            "error_estimate": error_estimate_many(layout, solution, probe),
            "error_probe_point": [float(v) for v in probe],
            "solver": {
                "iterations": solution.report.iterations,
                "final_residual": solution.report.final_residual,
                "converged": solution.report.converged,
                "residual_history": solution.report.residual_history,
            },
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
    mesh = config.shape_spec().build()
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
    mesh = config.shape_spec().build()
    mesh.to_csv(output)
    print(f"{mesh.n_points} points -> {output}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Reference-table reproduction
# ---------------------------------------------------------------------------

def _reproduce_q_sphere(config: RunConfig):
    wave = config.wave()
    mesh = mesh_sphere(1e-9, 12)
    current = solve_current(mesh, wave, tol=config.tol, scale=1.0)
    q_e = moment_q_exact(current, mesh)
    q_a = moment_q_asymptotic(mesh, wave, gamma_sphere_analytic())
    ref = REFERENCE_TABLES["q-sphere"]
    rows = [
        ("Q_exact_z_imag", ref["q_exact_z_imag"], q_e[2].imag),
        ("Q_asym_z_imag", ref["q_asym_z_imag"], q_a[2].imag),
        ("Q_gap_rel", ref["q_gap_rel"], check_q_asymptotic(q_e, q_a)),
    ]
    return ["quantity", "published", "computed", "rel_deviation"], [
        [name, _fmt(pub), _fmt(val), _fmt(abs(val - pub) / abs(pub))]
        for name, pub, val in rows
    ]


def _e_error_rows(mesh, wave, current, q_asym, points, published):
    gaps = check_e_asymptotic(mesh, wave, current, q_asym, mesh.center, points)
    rows = []
    for (dist, gap), pub in zip(gaps, published):
        rows.append([_fmt(dist), _fmt(pub), _fmt(gap), _fmt(abs(gap - pub) / pub)])
    return ["distance", "published_error", "computed_error", "rel_deviation"], rows


def _reproduce_e_sphere(config: RunConfig):
    wave = config.wave()
    mesh = mesh_sphere(1e-9, 12)
    current = solve_current(mesh, wave, tol=config.tol, scale=2.0)
    q_a = moment_q_asymptotic(mesh, wave, gamma_sphere_analytic())
    ref = REFERENCE_TABLES["e-sphere"]
    direction = np.ones(3) / np.sqrt(3.0)
    points = [mesh.center + d * direction for d in ref["distances"]]
    return _e_error_rows(mesh, wave, current, q_a, points, ref["errors"])


def _reproduce_e_ellipsoid(config: RunConfig):
    wave = config.wave()
    axes = np.array([1e-8, 1e-9, 1e-9])
    mesh = mesh_ellipsoid(*axes, 14)
    current = solve_current(mesh, wave, tol=config.tol, scale=2.0)
    q_a = moment_q_asymptotic(mesh, wave, gamma_numeric(mesh, frame="local"))
    ref = REFERENCE_TABLES["e-ellipsoid"]
    points = [mesh.center + s * axes for s in ref["axis_multiples"]]
    return _e_error_rows(mesh, wave, current, q_a, points, ref["errors"])


def _reproduce_e_cube(config: RunConfig):
    wave = config.wave()
    mesh = mesh_cube(1e-7, 10)
    current = solve_current(mesh, wave, tol=config.tol, scale=2.0)
    q_a = moment_q_asymptotic(mesh, wave, gamma_sphere_analytic())
    ref = REFERENCE_TABLES["e-cube"]
    direction = np.ones(3) / np.sqrt(3.0)
    points = [mesh.center + d * direction for d in ref["distances"]]
    return _e_error_rows(mesh, wave, current, q_a, points, ref["errors"])


def _reproduce_sweep_1386(config: RunConfig):
    wave = config.wave()
    ref = REFERENCE_TABLES["sweep-1386"]
    direction = np.ones(3) / np.sqrt(3.0)
    header = [
        "radius", "published_e_error", "computed_e_error", "e_rel_deviation",
        "published_q_error", "computed_q_error", "q_rel_deviation",
    ]
    rows = []
    gamma = gamma_sphere_analytic()
    for radius, pub_e, pub_q in zip(ref["radii"], ref["e_errors"], ref["q_errors"]):
        mesh = mesh_sphere(radius, 16)
        q_a = moment_q_asymptotic(mesh, wave, gamma)
        x = mesh.center + ref["distance"] * direction
        cur_e = solve_current(mesh, wave, tol=config.tol, scale=2.0)
        (_, e_gap), = check_e_asymptotic(mesh, wave, cur_e, q_a, mesh.center, [x])
        cur_q = solve_current(mesh, wave, tol=config.tol, scale=1.0)
        q_gap = check_q_asymptotic(moment_q_exact(cur_q, mesh), q_a)
        rows.append(
            [_fmt(radius), _fmt(pub_e), _fmt(e_gap), _fmt(abs(e_gap - pub_e) / pub_e),
             _fmt(pub_q), _fmt(q_gap), _fmt(abs(q_gap - pub_q) / pub_q)]
        )
    return header, rows


def _reproduce_many(config: RunConfig, count: int):
    wave = config.wave()
    ref = REFERENCE_TABLES[f"many-{count}"]
    gamma = gamma_sphere_analytic()
    header = [
        "radius", "published_norm", "computed_norm",
        "published_error", "computed_error", "error_rel_deviation",
    ]
    rows = []
    for radius, pub_err in zip(ref["radii"], ref["errors"]):
        layout = lattice_layout(count, 1e-7, radius)
        solution = solve_effective_field(layout, wave, gamma, tol=config.tol)
        fields = effective_field_at_centers(layout, wave, solution)
        probe = layout.centers[-1] + np.array([layout.spacing, 0.0, 0.0])
        err = error_estimate_many(layout, solution, probe)
        rows.append(
            [_fmt(radius), _fmt(ref["norm"]), _fmt(float(np.linalg.norm(fields))),
             _fmt(pub_err), _fmt(err), _fmt(abs(err - pub_err) / pub_err)]
        )
    return header, rows


def cmd_reproduce(config: RunConfig, table_id: str) -> int:
    builders = {
        "q-sphere": _reproduce_q_sphere,
        "e-sphere": _reproduce_e_sphere,
        "e-ellipsoid": _reproduce_e_ellipsoid,
        "e-cube": _reproduce_e_cube,
        "sweep-1386": _reproduce_sweep_1386,
        "many-27": lambda cfg: _reproduce_many(cfg, 27),
        "many-1000": lambda cfg: _reproduce_many(cfg, 1000),
    }
    if table_id not in builders:
        raise ConfigError(
            f"unknown table id {table_id!r}; choose from {sorted(builders)}"
        )
    header, rows = builders[table_id](config)
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
