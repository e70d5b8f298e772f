"""CLI behavior: artifacts, exit codes, determinism, config handling."""

import json

import numpy as np
import pytest

from emscat.cli import main
from emscat.config import ConfigError, RunConfig


def run_cli(args):
    return main(args)


# --- config ------------------------------------------------------------------

def test_config_defaults_are_reference_parameters():
    config = RunConfig()
    assert config.wavenumber == pytest.approx(2 * np.pi / 6e-5)
    assert config.wavelength == pytest.approx(6e-5)
    assert config.frequency == pytest.approx(5e14)
    assert config.warnings == []


def test_config_inconsistent_wavenumber_warns():
    config = RunConfig(wavenumber=1.0)
    assert any("wavenumber" in w for w in config.warnings)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"waveln": 1.0})


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"shape": "cube", "radius": 1e-7, "n_per_face": 4}))
    config = RunConfig.from_json(path)
    assert config.shape == "cube"
    assert config.shape_spec().build().n_points == 96


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        RunConfig.from_json("/nonexistent/config.json")


def test_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        RunConfig.from_json(path)


def test_config_ellipsoid_requires_axes():
    with pytest.raises(ConfigError, match="semi_axes"):
        RunConfig(shape="ellipsoid").shape_spec()


# --- one-body ----------------------------------------------------------------

@pytest.fixture(scope="module")
def one_body_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("one_body")
    code = run_cli(
        ["one-body", "--m-phi", "8", "--output-dir", str(outdir),
         "--distances", "1.73e-6"]
    )
    assert code == 0
    return outdir


def test_one_body_artifacts_exist(one_body_run):
    for name in ("J.csv", "Q.json", "E_table.csv", "validation.json"):
        assert (one_body_run / name).exists()


def test_one_body_q_json(one_body_run):
    payload = json.loads((one_body_run / "Q.json").read_text())
    assert payload["config"]["shape"] == "sphere"
    q_asym_z = complex(*payload["q_asym"][2])
    assert q_asym_z.imag == pytest.approx(0.376e-21, rel=1e-3)
    assert payload["solver"]["converged"] is True
    history = payload["solver"]["residual_history"]
    assert len(history) == payload["solver"]["iterations"]
    assert history[-1] <= payload["config"]["tol"]


def test_one_body_validation_json(one_body_run):
    payload = json.loads((one_body_run / "validation.json").read_text())
    assert payload["tangentiality_max"] <= 1e-10
    assert len(payload["e_asym_rel"]) == 1


def test_one_body_csv_has_config_echo(one_body_run):
    first = (one_body_run / "J.csv").read_text().splitlines()[0]
    assert first.startswith("# config:")
    echoed = json.loads(first.split(": ", 1)[1])
    assert echoed["m_phi"] == 8


def read_e_table(path):
    """Data rows of E_table.csv, after the config echo and the header."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].split(",")[-1] == "rel_error"
    return [line.split(",") for line in lines[2:]]


def test_e_table_rel_error_is_validation_gap(tmp_path):
    code = run_cli(
        ["one-body", "--m-phi", "6", "--output-dir", str(tmp_path),
         "--distances", "1.73e-8", "1.73e-7", "1.73e-6"]
    )
    assert code == 0
    rows = read_e_table(tmp_path / "E_table.csv")
    gaps = json.loads((tmp_path / "validation.json").read_text())["e_asym_rel"]
    assert len(rows) == len(gaps) == 3
    for row, (dist, gap) in zip(rows, gaps):
        assert float(row[0]) == pytest.approx(dist, rel=1e-15)
        assert float(row[-1]) == pytest.approx(gap, rel=1e-15)


def test_no_distances_writes_header_only_e_table(tmp_path):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"distances": [], "m_phi": 6}))
    code = run_cli(["one-body", "--config", str(config_path), "--output-dir", str(tmp_path)])
    assert code == 0
    assert read_e_table(tmp_path / "E_table.csv") == []
    assert json.loads((tmp_path / "validation.json").read_text())["e_asym_rel"] == []


def test_cube_reports_600_points(tmp_path, capsys):
    code = run_cli(
        ["one-body", "--shape", "cube", "--radius", "1e-7",
         "--n-per-face", "10", "--distances", "1.73e-6", "1.73e-5",
         "--output-dir", str(tmp_path)]
    )
    assert code == 0
    assert "600" in capsys.readouterr().err


def test_interior_evaluation_point_exits_2(tmp_path):
    # default distances suit a 1e-9 sphere; they are inside a 1e-7 cube
    code = run_cli(
        ["one-body", "--shape", "cube", "--radius", "1e-7",
         "--n-per-face", "4", "--output-dir", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize("flag, values", [
    ("--amplitude", ["nan", "0", "0"]),
    ("--direction", ["0", "inf", "0"]),
    ("--wavenumber", ["inf"]),
], ids=["nan-amplitude", "inf-direction", "inf-wavenumber"])
def test_non_finite_wave_exits_2(tmp_path, capsys, flag, values):
    code = run_cli(["one-body", flag, *values, "--m-phi", "6", "--output-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert flag.lstrip("-") in err


def test_missing_config_file_exits_2(tmp_path):
    code = run_cli(
        ["one-body", "--config", str(tmp_path / "nope.json"),
         "--output-dir", str(tmp_path)]
    )
    assert code == 2


def test_bad_gamma_mode_exits_2(tmp_path):
    code = run_cli(
        ["one-body", "--gamma-mode", "numeric-lab", "--m-phi", "4",
         "--output-dir", str(tmp_path)]
    )
    assert code == 0  # valid mode accepted
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"gamma_mode": "bogus"}))
    code = run_cli(
        ["one-body", "--config", str(config_path), "--m-phi", "4",
         "--output-dir", str(tmp_path)]
    )
    assert code == 2


def test_determinism_byte_identical(tmp_path):
    out = tmp_path / "a"
    assert run_cli(["one-body", "--m-phi", "6", "--output-dir", str(out)]) == 0
    first = {name: (out / name).read_bytes() for name in ("J.csv", "E_table.csv", "Q.json")}
    assert run_cli(["one-body", "--m-phi", "6", "--output-dir", str(out)]) == 0
    for name, payload in first.items():
        assert (out / name).read_bytes() == payload


# --- many-body ---------------------------------------------------------------

def test_many_body_summary(tmp_path):
    code = run_cli(
        ["many-body", "--count", "27", "--spacing", "1e-7",
         "--particle-radius", "1e-9", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["norm_of_E"] == pytest.approx(5.20, abs=0.01)
    assert payload["error_estimate"] == pytest.approx(8.16e-10, rel=0.05)
    history = payload["solver"]["residual_history"]
    assert len(history) == payload["solver"]["iterations"]
    assert history[-1] <= 1e-10
    assert payload["operator"]["coupling"] == "fft"
    # six kernel spectra on the zero-padded 6^3 grid plus the 3 x 3 tau
    assert payload["operator"]["bytes"] == (6 * 6**3 + 9) * 16
    assert (tmp_path / "centers.csv").exists()
    assert (tmp_path / "E_centers.csv").exists()
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert json.loads(lines[0].split(": ", 1)[1])["count"] == 27
    assert lines[1].startswith("index,Ax_re")
    assert len(lines) == 2 + 27


def test_many_body_ratio_warning_proceeds(tmp_path):
    with pytest.warns(UserWarning, match="asymptotic regime"):
        code = run_cli(
            ["many-body", "--count", "8", "--spacing", "1e-7",
             "--particle-radius", "5e-8", "--output-dir", str(tmp_path)]
        )
    assert code == 0  # warn, not fail, at radius/spacing = 0.5


def test_many_body_bad_count_exits_2(tmp_path):
    code = run_cli(
        ["many-body", "--count", "26", "--output-dir", str(tmp_path)]
    )
    assert code == 2


# --- reproduce ---------------------------------------------------------------

def test_reproduce_unknown_table_exits_2(tmp_path):
    assert run_cli(["reproduce", "nope", "--output-dir", str(tmp_path)]) == 2


def test_reproduce_many_27(tmp_path, capsys):
    code = run_cli(["reproduce", "many-27", "--output-dir", str(tmp_path)])
    assert code == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "reproduce_many-27.csv").read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    published = np.array([float(r[3]) for r in rows])
    computed = np.array([float(r[4]) for r in rows])
    np.testing.assert_allclose(published, [8.16e-6, 8.16e-10, 8.16e-14, 8.16e-18])
    assert np.all(computed / published < 2.0)
    assert np.all(published / computed < 2.0)


def test_reproduce_q_sphere(tmp_path, capsys):
    code = run_cli(["reproduce", "q-sphere", "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Q_gap_rel" in out


# --- misc subcommands --------------------------------------------------------

def test_gamma_subcommand(tmp_path, capsys):
    code = run_cli(["gamma", "--m-phi", "8"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "numeric_local" in payload and "sphere_analytic" in payload
    g33 = payload["numeric_local"][8][0]
    assert g33 == pytest.approx(1.0 / 6.0, abs=5e-2)


def test_mesh_export_subcommand(tmp_path):
    out = tmp_path / "mesh.csv"
    code = run_cli(
        ["mesh-export", "--shape", "cube", "--radius", "1e-7",
         "--n-per-face", "5", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y,z,Nx,Ny,Nz,w"
    assert len(lines) == 1 + 6 * 25
