"""CLI behavior: artifacts, exit codes, determinism, config handling."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

import emscat.cli
from emscat.cli import main
from emscat.config import ConfigError, RunConfig
from emscat.many_body import ManyBodyOperator, lattice_layout, layout_from_csv
from emscat.one_body import (OneBodyOperator, field_e_asymptotic, field_e_exact,
                             gamma_sphere_analytic)


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
    assert config.mesh().n_points == 96


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
        RunConfig(shape="ellipsoid").mesh()
    with pytest.raises(ConfigError, match="semi_axes"):
        RunConfig(shape="ellipsoid", semi_axes=(1e-8, 1e-9)).mesh()


def config_line(path):
    """The JSON of the `# config:` line that opens a CSV artifact."""
    first = path.read_text().splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


@pytest.mark.parametrize("args, overrides, csvs, jsons", [
    (["one-body", "--m-phi", "6", "--distances", "1.73e-6"],
     {"m_phi": 6, "distances": (1.73e-6,)}, ["J.csv", "E_table.csv"],
     ["Q.json", "validation.json"]),
    (["many-body", "--count", "8"], {"count": 8},
     ["centers.csv", "E_centers.csv", "solution.csv"], ["summary.json"]),
    # a reproduce table records the config of its first solve
    (["reproduce", "q-sphere"],
     {"shape": "sphere", "radius": 1e-9, "m_phi": 12, "bie_scale": 1.0, "gamma_mode": "sphere",
      "distances": ()}, ["reproduce_q-sphere.csv"], []),
    (["reproduce", "e-cube"],
     {"shape": "cube", "radius": 1e-7, "n_per_face": 10, "bie_scale": 2.0, "gamma_mode": "sphere",
      "distances": (1.73e-3, 1.73e-4, 1.73e-5, 1.73e-6)}, ["reproduce_e-cube.csv"], []),
    (["mesh-export", "--shape", "cube", "--n-per-face", "3", "--output", "{out}/mesh.csv"],
     {"shape": "cube", "n_per_face": 3}, ["mesh.csv"], []),
], ids=["one-body", "many-body", "reproduce", "reproduce-e-cube", "mesh-export"])
def test_every_artifact_carries_resolved_config(tmp_path, args, overrides, csvs, jsons):
    args = [a.replace("{out}", str(tmp_path)) for a in args]
    assert run_cli([*args, "--output-dir", str(tmp_path)]) == 0
    resolved = RunConfig.from_dict({**overrides, "output_dir": str(tmp_path)}).to_dict()
    expected = json.loads(json.dumps(resolved))
    for name in csvs:
        assert config_line(tmp_path / name) == expected, name
    for name in jsons:
        assert json.loads((tmp_path / name).read_text())["config"] == expected, name


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


@pytest.mark.parametrize("args, mirrors, points", [
    ([], ["y", "z"], 766),
    (["--shape", "cube"], ["x", "y", "z"], 600),
], ids=["sphere", "cube"])
def test_one_body_q_json_records_the_split_operator(tmp_path, args, mirrors, points):
    assert run_cli(["one-body", *args, "--output-dir", str(tmp_path)]) == 0
    operator = json.loads((tmp_path / "Q.json").read_text())["operator"]
    order = 2 ** len(mirrors)
    assert operator["mirrors"] == mirrors and operator["order"] == order
    assert points / order <= operator["orbits"] < 1.1 * points / order
    # |G| (R, R) real matrices and the complex (R, Q) plane-wave phases at
    # the orbit representatives at both bodies' size; the orbits on the
    # mirror planes, of fewer than |G| points, put R above P / |G|; at
    # k D = 3.6e-4 the series in (kr)^2 takes degree 2
    assert operator["directions"] == 32 and operator["series"] == 2
    assert operator["bytes"] <= (8 * order * operator["orbits"]**2
                                 + 16 * operator["orbits"] * 32 + 256 * points)


@pytest.mark.parametrize("args, characters", [([], [2, 3]), (["--shape", "cube"], [4, 6])],
                         ids=["sphere", "cube"])
def test_one_body_q_json_records_the_solved_characters(tmp_path, args, characters):
    # the default wave fills 2 of the 4 characters of the sphere's group and
    # 2 of the 8 of the cube's; the solve skips the others
    assert run_cli(["one-body", *args, "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "Q.json").read_text())
    assert payload["characters"] == characters


def test_one_body_q_json_records_complex_coefficients_as_no_directions(tmp_path):
    # the 600-point cube of side 2e-7 cm needs Q = 50 directions, too many
    # for real coefficients to save bytes
    assert run_cli(["one-body", "--shape", "cube", "--radius", "1e-7", "--distances", "1.73e-5",
                    "--output-dir", str(tmp_path)]) == 0
    operator = json.loads((tmp_path / "Q.json").read_text())["operator"]
    assert operator["directions"] is None and operator["series"] is None
    assert operator["bytes"] <= 16 * 8 * operator["orbits"]**2 + 256 * 600


@pytest.mark.parametrize("args", [[], ["--shape", "cube", "--radius", "1e-7"]],
                         ids=["sphere", "cube"])
def test_q_json_operator_is_the_operator_record(tmp_path, args):
    # the real sphere operator and the complex cube one, written as they are
    assert run_cli(["one-body", *args, "--distances", "1.73e-5",
                    "--output-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "Q.json").read_text())
    config = RunConfig.from_dict(payload["config"])
    record = OneBodyOperator(config.mesh(), config.wave().wavenumber).record
    assert payload["operator"] == record
    assert (record["directions"] is None) == bool(args)


def test_operator_beyond_physical_memory_exits_2_before_assembly(tmp_path, monkeypatch,
                                                                 capsys):
    # P = 20258: 8 B x 4 x 12,969,301 stored pairs of the split operator
    # (packed_entries(5087), about 5087^2 / 2 per character) and 16 B x
    # 5087 x 32 plane-wave phases at the orbit representatives, 417,622,176 B
    # or 0.389 GiB
    asked, check = [], emscat.kernels.check_dense_bytes
    monkeypatch.setattr(emscat.kernels, "check_dense_bytes",
                        lambda nbytes, what: check(asked.append(nbytes) or nbytes, what))
    monkeypatch.setattr(emscat.linalg, "physical_memory", lambda: 2**28)
    monkeypatch.setattr(emscat.kernels, "packed_pairs",
                        lambda *a, **k: pytest.fail("assembled"))
    monkeypatch.setattr(emscat.kernels, "plane_wave_rule",
                        lambda *a, **k: pytest.fail("assembled"))
    tracemalloc.start()
    try:
        code = run_cli(["one-body", "--m-phi", "60", "--output-dir", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "the one-body operator needs 0.389 GiB, more than the 0.25 GiB" in err
    assert asked == [417_622_176]
    assert peak <= 16 * 2**20


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


def test_one_body_evaluates_each_field_once(tmp_path, monkeypatch):
    counts = {field_e_exact: 0, field_e_asymptotic: 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every emscat module that binds an evaluator calls the counted one
    for name, module in list(sys.modules.items()):
        if name == "emscat" or name.startswith("emscat."):
            for key, value in list(vars(module).items()):
                if any(value is fn for fn in counts):
                    monkeypatch.setattr(module, key, counted(value))
    code = run_cli(["one-body", "--m-phi", "6", "--output-dir", str(tmp_path)])
    assert code == 0
    assert list(counts.values()) == [1, 1]


def test_zero_eval_direction_exits_2_before_solving(tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError, match="eval_direction"):
        RunConfig(eval_direction=(0.0, 0.0, 0.0))
    calls = []
    solve_current = emscat.cli.solve_current
    monkeypatch.setattr(
        emscat.cli, "solve_current", lambda *a, **k: calls.append(1) or solve_current(*a, **k)
    )
    code = run_cli(["one-body", "--eval-direction", "0", "0", "0", "--m-phi", "6",
                    "--output-dir", str(tmp_path)])
    assert code == 2
    assert calls == []
    assert "eval_direction" in capsys.readouterr().err


@pytest.mark.parametrize("data, field", [
    ({"eval_direction": [1, 1]}, "eval_direction"),
    ({"eval_direction": [1, float("nan"), 1]}, "eval_direction"),
    ({"tol": 0}, "tol"),
    ({"tol": -1e-10}, "tol"),
    ({"wave_speed": 0}, "wave_speed"),
    ({"wavelength": "6e-5"}, "wavelength"),
    ({"distances": [1.73e-8, float("nan")]}, "distances"),
    ({"distances": [float("inf")]}, "distances"),
    ({"distances": [0.0]}, "distances"),
    ({"distances": ["far"]}, "distances"),
    ({"distances": 1e-8}, "distances"),
    ({"direction": 1}, "direction"),
    ({"direction": [1, 1, 0]}, "direction"),
    ({"direction": None}, "direction"),
    ({"eval_direction": None}, "eval_direction"),
    ({"semi_axes": 5}, "semi_axes"),
    ({"semi_axes": [1e-8, "1e-9", 1e-9]}, "semi_axes"),
    ({"m_phi": 2.5}, "m_phi"),
    ({"m_phi": "12"}, "m_phi"),
    ({"n_per_face": 2.5}, "n_per_face"),
    ({"radius": "1e-9"}, "radius"),
    ({"bie_scale": "2"}, "bie_scale"),
    ({"gamma_mode": "bogus"}, "gamma_mode"),
    ({"shape": "torus"}, "shape"),
], ids=["short-eval-direction", "nan-eval-direction", "zero-tol", "negative-tol",
        "zero-wave-speed", "string-wavelength", "nan-distance", "inf-distance",
        "zero-distance", "string-distance", "scalar-distances", "scalar-direction",
        "non-unit-direction", "null-direction", "null-eval-direction", "scalar-semi-axes",
        "string-semi-axis", "fractional-m-phi", "string-m-phi", "fractional-n-per-face",
        "string-radius", "string-bie-scale", "unknown-gamma-mode", "unknown-shape"])
def test_bad_config_exits_2_before_meshing(tmp_path, monkeypatch, capsys, data, field):
    with pytest.raises(ConfigError, match=field):
        RunConfig.from_dict(data)
    calls = []
    monkeypatch.setattr(RunConfig, "mesh", lambda self: calls.append(1))
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(data))
    code = run_cli(["one-body", "--config", str(config_path), "--output-dir", str(tmp_path)])
    assert code == 2
    assert calls == []
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("box", [
    [1, 2],
    [[0, 0, 0], [1, 1, "x"]],
    [[0, 0, 0], [1, 1]],
    [[0, 0, 0], [1, 1, float("inf")]],
], ids=["flat", "string", "short", "inf"])
def test_bad_box_exits_2_before_layout(tmp_path, monkeypatch, capsys, box):
    with pytest.raises(ConfigError, match="box"):
        RunConfig.from_dict({"box": box})
    calls = []
    monkeypatch.setattr(emscat.cli, "lattice_layout", lambda *a, **k: calls.append(1))
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps({"box": box}))
    code = run_cli(["many-body", "--config", str(config_path), "--output-dir", str(tmp_path)])
    assert code == 2
    assert calls == []
    assert "box" in capsys.readouterr().err


@pytest.mark.parametrize("args, name", [
    (["--radius", "inf"], "radius"),
    (["--shape", "cube", "--radius", "inf"], "a_half"),
    (["--shape", "ellipsoid", "--semi-axes", "1e-8", "inf", "1e-9"], "semi-axes"),
], ids=["sphere", "cube", "ellipsoid"])
def test_non_finite_size_exits_2_before_assembly(tmp_path, monkeypatch, capsys, args, name):
    calls = []
    solve_current = emscat.cli.solve_current
    monkeypatch.setattr(
        emscat.cli, "solve_current", lambda *a, **k: calls.append(1) or solve_current(*a, **k)
    )
    code = run_cli(["one-body", *args, "--m-phi", "4", "--n-per-face", "2",
                    "--output-dir", str(tmp_path)])
    assert code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert name in err and "finite" in err


@pytest.mark.parametrize("args, field", [
    (["many-body", "--count", "-8"], "count"),
    (["many-body", "--restart", "0"], "restart"),
    (["many-body", "--max-iter", "0"], "max_iter"),
    (["many-body", "--particle-radius", "0"], "particle_radius"),
    (["many-body", "--spacing", "nan"], "spacing"),
    (["many-body", "--spacing=-1e-7"], "spacing"),
    (["one-body", "--m-phi", "4", "--bie-scale", "0"], "bie_scale"),
    (["one-body", "--m-phi", "4", "--bie-scale", "nan"], "bie_scale"),
    (["one-body", "--m-phi", "4", "--wavelength", "0"], "wavelength"),
    (["one-body", "--m-phi", "4", "--wavenumber", "0"], "wavenumber"),
    (["one-body", "--m-phi", "4", "--frequency", "0"], "frequency"),
    (["one-body", "--m-phi", "4", "--permeability", "nan"], "permeability"),
    (["one-body", "--m-phi", "4", "--permittivity=-1"], "permittivity"),
    (["one-body", "--m-phi", "4", "--distances", "nan"], "distances"),
    (["many-body", "--wavelength", "inf"], "wavelength"),
], ids=["negative-count", "zero-restart", "zero-max-iter", "zero-particle-radius",
        "nan-spacing", "negative-spacing", "zero-bie-scale", "nan-bie-scale",
        "zero-wavelength", "zero-wavenumber", "zero-frequency", "nan-permeability",
        "negative-permittivity", "nan-distance", "inf-wavelength"])
def test_bad_number_exits_2_before_building(tmp_path, monkeypatch, capsys, args, field):
    calls = []
    mesh, layout = RunConfig.mesh, emscat.cli.lattice_layout
    monkeypatch.setattr(RunConfig, "mesh", lambda self: calls.append(1) or mesh(self))
    monkeypatch.setattr(
        emscat.cli, "lattice_layout", lambda *a, **k: calls.append(1) or layout(*a, **k)
    )
    assert run_cli([*args, "--output-dir", str(tmp_path)]) == 2
    assert calls == []
    assert field in capsys.readouterr().err


#: Every scalar number of RunConfig, and the bad values a --config file may
#: give it: NaN, +-inf, 0, a negative number, a bool and a string.
CONFIG_NUMBERS = ["wave_speed", "frequency", "wavelength", "wavenumber", "permeability",
                  "permittivity", "radius", "m_phi", "n_per_face", "bie_scale", "count",
                  "spacing", "particle_radius", "tol", "restart", "max_iter"]
BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), 0, -1, True, "1"]


def refused(command, field, value):
    """Whether command refuses value for field; all do, except that bie_scale
    takes either sign, and radius sizes the one-body mesh, which many-body
    does not build: there RunConfig refuses only a bool or a string."""
    if field == "bie_scale" and value == -1:
        return False
    return (field, command) != ("radius", "many-body") or isinstance(value, (bool, str))


@pytest.mark.parametrize("field", CONFIG_NUMBERS)
def test_bad_config_number_exits_2_naming_it(tmp_path, monkeypatch, capsys, field):
    # the CLI twin of tests/test_input_contract.py: exit 2, the field named
    for name in ("solve_current", "solve_effective_field"):
        monkeypatch.setattr(emscat.cli, name, lambda *a, **k: pytest.fail("solved"))
    config_path = tmp_path / "c.json"
    for command in ("one-body", "many-body"):
        for value in BAD_NUMBERS:
            if not refused(command, field, value):
                continue
            config_path.write_text(json.dumps({field: value}))
            code = run_cli([command, "--config", str(config_path), "--output-dir", str(tmp_path)])
            err = capsys.readouterr().err
            assert code == 2, (command, value)
            assert field in err and "Traceback" not in err, (command, value, err)


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

@pytest.fixture(scope="module")
def many_body_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("many_body")
    code = run_cli(
        ["many-body", "--count", "27", "--spacing", "1e-7",
         "--particle-radius", "1e-9", "--output-dir", str(outdir)]
    )
    assert code == 0
    return outdir


def test_many_body_summary(many_body_run):
    payload = json.loads((many_body_run / "summary.json").read_text())
    assert payload["norm_of_E"] == pytest.approx(5.20, abs=0.01)
    assert payload["error_estimate"] == pytest.approx(8.16e-10, rel=0.05)
    history = payload["solver"]["residual_history"]
    assert len(history) == payload["solver"]["iterations"]
    assert history[-1] <= 1e-10
    assert payload["operator"]["coupling"] == "fft"
    # six kernel spectra on the zero-padded 6^3 grid plus the 3 x 3 tau
    assert payload["operator"]["bytes"] == (6 * 6**3 + 9) * 16
    assert payload["operator"]["directions"] is None and payload["operator"]["series"] is None
    assert (many_body_run / "centers.csv").exists()
    assert (many_body_run / "E_centers.csv").exists()
    lines = (many_body_run / "solution.csv").read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert json.loads(lines[0].split(": ", 1)[1])["count"] == 27
    assert lines[1].startswith("index,Ax_re")
    assert len(lines) == 2 + 27


def test_summary_json_operator_is_the_operator_record(many_body_run):
    payload = json.loads((many_body_run / "summary.json").read_text())
    config = RunConfig.from_dict(payload["config"])
    layout = lattice_layout(config.count, config.spacing, config.particle_radius, box=config.box)
    operator = ManyBodyOperator(layout, config.wave().wavenumber, gamma_sphere_analytic())
    assert payload["operator"] == operator.record


def test_many_body_solution_csv_values(many_body_run, many27):
    _, solution = many27
    data = np.genfromtxt(many_body_run / "solution.csv", delimiter=",", skip_header=2)
    assert data.shape == (27, 13)
    np.testing.assert_array_equal(data[:, 0], np.arange(27))
    values = data[:, 1::2] + 1j * data[:, 2::2]
    np.testing.assert_allclose(values[:, :3], solution.a_values, rtol=1e-12)
    np.testing.assert_allclose(values[:, 3:], solution.q_values, rtol=1e-12)


def test_centers_csv_roundtrip(many_body_run):
    layout = lattice_layout(27, 1e-7, 1e-9)
    back = layout_from_csv(many_body_run / "centers.csv", spacing=1e-7, radius=1e-9)
    np.testing.assert_allclose(back.centers, layout.centers, rtol=1e-15)
    np.testing.assert_allclose(back.volumes, layout.volumes, rtol=1e-15)
    assert back.grid.counts == (3, 3, 3)


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


def test_many_body_zero_count_exits_2(tmp_path, capsys):
    assert run_cli(["many-body", "--count", "0", "--output-dir", str(tmp_path)]) == 2
    assert "got 0" in capsys.readouterr().err


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


def test_sweep_1386_assembles_one_operator_per_mesh(tmp_path, monkeypatch):
    built, solves = [], []

    class CountingOperator(emscat.one_body.OneBodyOperator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    solve_gmres = emscat.linalg.solve_gmres

    def counting_gmres(*args, **kwargs):
        solves.append(kwargs.get("shifts"))
        return solve_gmres(*args, **kwargs)

    monkeypatch.setattr(emscat.one_body, "OneBodyOperator", CountingOperator)
    monkeypatch.setattr(emscat.linalg, "solve_gmres", counting_gmres)
    assert run_cli(["reproduce", "sweep-1386", "--output-dir", str(tmp_path)]) == 0
    assert len(built) == 4
    # per mesh one GMRES run for both scales: the near field at 2, the moment at 1
    assert solves == [[0.0, 1.0]] * 4


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


def test_mesh_export_subcommand(tmp_path, cube600):
    out = tmp_path / "mesh.csv"
    code = run_cli(
        ["mesh-export", "--shape", "cube", "--radius", "1e-7",
         "--n-per-face", "10", "--output", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert config_line(out)["n_per_face"] == 10
    assert lines[1] == "x,y,z,Nx,Ny,Nz,w"
    assert len(lines) == 2 + 600
    data = np.genfromtxt(out, delimiter=",", skip_header=2)
    np.testing.assert_allclose(data[:, :3], cube600.points, rtol=1e-15)
    np.testing.assert_allclose(data[:, 3:6], cube600.normals, rtol=1e-15)
    np.testing.assert_allclose(data[:, 6], cube600.weights, rtol=1e-15)


def read_table(path):
    """{column: [cell, ...]} of a reproduce CSV, as the strings written."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header, *rows = (line.split(",") for line in lines)
    return {key: [row[i] for row in rows] for i, key in enumerate(header)}


E_TABLE_HEADER = ("distance,Eex_re,Eex_im,Eey_re,Eey_im,Eez_re,Eez_im,"
                  "Eax_re,Eax_im,Eay_re,Eay_im,Eaz_re,Eaz_im,rel_error")
E_REPRODUCE_HEADER = "distance,published_error,computed_error,rel_deviation"
MANY_REPRODUCE_HEADER = ("radius,published_norm,computed_norm,"
                         "published_error,computed_error,error_rel_deviation")

#: The header row of every CSV the CLI writes, by path under the output dir.
CSV_HEADERS = {
    "one/J.csv": "x,y,z,w,Jx_re,Jx_im,Jy_re,Jy_im,Jz_re,Jz_im",
    "one/E_table.csv": E_TABLE_HEADER,
    "no-distances/E_table.csv": E_TABLE_HEADER,
    "many/centers.csv": "x,y,z,volume",
    "many/E_centers.csv": "index,Ex_re,Ex_im,Ey_re,Ey_im,Ez_re,Ez_im",
    "many/solution.csv": ("index,Ax_re,Ax_im,Ay_re,Ay_im,Az_re,Az_im,"
                          "Qx_re,Qx_im,Qy_re,Qy_im,Qz_re,Qz_im"),
    "mesh.csv": "x,y,z,Nx,Ny,Nz,w",
    "reproduce_q-sphere.csv": "quantity,published,computed,rel_deviation",
    "reproduce_e-sphere.csv": E_REPRODUCE_HEADER,
    "reproduce_e-ellipsoid.csv": E_REPRODUCE_HEADER,
    "reproduce_e-cube.csv": E_REPRODUCE_HEADER,
    "reproduce_sweep-1386.csv": ("radius,published_e_error,computed_e_error,e_rel_deviation,"
                                 "published_q_error,computed_q_error,q_rel_deviation"),
    "reproduce_many-27.csv": MANY_REPRODUCE_HEADER,
    "reproduce_many-1000.csv": MANY_REPRODUCE_HEADER,
}


@pytest.fixture(scope="module")
def every_csv(tmp_path_factory):
    """Output dir holding every CSV the CLI writes, laid out as in CSV_HEADERS."""
    out = tmp_path_factory.mktemp("every_csv")
    no_distances = out / "c.json"
    no_distances.write_text(json.dumps({"distances": []}))
    runs = [
        ["one-body", "--m-phi", "6", "--output-dir", str(out / "one")],
        ["one-body", "--m-phi", "6", "--config", str(no_distances),
         "--output-dir", str(out / "no-distances")],
        ["many-body", "--count", "8", "--output-dir", str(out / "many")],
        ["mesh-export", "--shape", "cube", "--n-per-face", "3",
         "--output", str(out / "mesh.csv")],
    ] + [
        ["reproduce", table, "--output-dir", str(out)]
        for table in ("q-sphere", "e-sphere", "e-ellipsoid", "e-cube",
                      "sweep-1386", "many-27", "many-1000")
    ]
    for args in runs:
        assert run_cli(args) == 0, args
    return out


@pytest.mark.parametrize("name", sorted(CSV_HEADERS))
def test_csv_header_is_pinned(every_csv, name):
    lines = (every_csv / name).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == CSV_HEADERS[name]
    assert (len(lines) == 2) == (name == "no-distances/E_table.csv")
    assert all(len(line.split(",")) == len(lines[1].split(",")) for line in lines[2:])


@pytest.mark.parametrize("table", ["q-sphere", "e-cube", "sweep-1386", "many-27"])
def test_reproduce_honours_solver_flags(tmp_path, capsys, table):
    code = run_cli(["reproduce", table, "--max-iter", "1", "--output-dir", str(tmp_path)])
    assert code == 3
    assert "did not converge" in capsys.readouterr().err


def test_e_cube_table_equals_one_body(tmp_path):
    distances = ["1.73e-3", "1.73e-4", "1.73e-5", "1.73e-6"]
    assert run_cli(["one-body", "--shape", "cube", "--radius", "1e-7", "--n-per-face", "10",
                    "--bie-scale", "2", "--distances", *distances,
                    "--output-dir", str(tmp_path)]) == 0
    rel_errors = [row[-1] for row in read_e_table(tmp_path / "E_table.csv")]
    assert run_cli(["reproduce", "e-cube", "--output-dir", str(tmp_path)]) == 0
    assert read_table(tmp_path / "reproduce_e-cube.csv")["computed_error"] == rel_errors


def test_many_27_table_equals_many_body(tmp_path):
    assert run_cli(["many-body", "--count", "27", "--spacing", "1e-7",
                    "--particle-radius", "1e-8", "--output-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert run_cli(["reproduce", "many-27", "--output-dir", str(tmp_path)]) == 0
    table = read_table(tmp_path / "reproduce_many-27.csv")
    assert table["radius"][0] == "1e-08"
    assert table["computed_norm"][0] == f"{summary['norm_of_E']:.16g}"
    assert table["computed_error"][0] == f"{summary['error_estimate']:.16g}"


@pytest.mark.parametrize("table", ["q-sphere", "many-27"])
def test_config_file_does_not_change_tables(tmp_path, table):
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(
        {"shape": "cube", "m_phi": 5, "count": 8, "box": [[1, 1, 1], [2, 2, 2]]}
    ))
    computed = []
    for extra in ([], ["--config", str(config_path)]):
        outdir = tmp_path / str(len(extra))
        assert run_cli(["reproduce", table, *extra, "--output-dir", str(outdir)]) == 0
        columns = read_table(outdir / f"reproduce_{table}.csv")
        computed.append({k: v for k, v in columns.items() if k.startswith("computed")})
    assert computed[0] == computed[1]
    assert computed[0]


def test_table_config_keeps_caller_warnings(tmp_path, capsys):
    # a wavenumber 1% off 2 pi / wavelength warns once, when the config is built
    config = RunConfig(wavenumber=1.01 * 2 * np.pi / 6e-5, output_dir=str(tmp_path))
    assert len(config.warnings) == 1
    assert emscat.cli.cmd_reproduce(config, "q-sphere") == 0
    assert len(config.warnings) == 1
