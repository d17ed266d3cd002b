"""End-to-end command-line contract: schemas, files, exit codes."""

import json
import math

import numpy as np
import pytest

from heatspec.cli import main

MANIFEST_KEYS = {"subcommand", "flags", "seed", "version", "wall_time_s"}


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- global parser behaviour -------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# -- moments -------------------------------------------------------------------------


def test_moments_json_schema(capsys):
    code, payload = run_json(capsys, ["moments", "--t", "1.0", "--max-n", "2"])
    assert code == 0
    assert set(payload["manifest"]) == MANIFEST_KEYS
    assert payload["manifest"]["subcommand"] == "moments"
    assert payload["manifest"]["seed"] is None
    assert payload["t"] == 1.0
    moments = payload["moments"]
    assert moments[0] == [0, 1.0]
    assert moments[1][0] == 1
    assert moments[1][1] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert moments[2][1] == pytest.approx(0.0, abs=1e-16)


def test_moments_guard_exit_code(capsys):
    assert main(["moments", "--t", "1.0", "--max-n", "31"]) == 2
    capsys.readouterr()


def test_moments_unsafe_override(capsys, recwarn):
    code, payload = run_json(
        capsys, ["moments", "--t", "1.0", "--max-n", "31", "--unsafe-precision"]
    )
    assert code == 0
    assert len(payload["moments"]) == 32


# -- flow ------------------------------------------------------------------------------


def test_flow_size_one_closed_form(capsys):
    code, payload = run_json(capsys, ["flow", "--poly", "v3", "--u", "0.8", "--N", "1"])
    assert code == 0
    assert payload["N"] == 1
    assert payload["value"][0] == pytest.approx(math.exp(-3.6), abs=1e-15)
    assert payload["value"][1] == 0.0


def test_flow_limit_default(capsys):
    code, payload = run_json(capsys, ["flow", "--poly", "v1", "--u", "1.0"])
    assert code == 0
    assert payload["N"] == "limit"
    assert payload["value"][0] == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_flow_bad_size_is_parameter_error(capsys):
    assert main(["flow", "--poly", "v1", "--u", "1.0", "--N", "three"]) == 2
    assert main(["flow", "--poly", "v1", "--u", "1.0", "--N", "0"]) == 2
    capsys.readouterr()


def test_flow_degree_cap_exit(capsys):
    assert main(["flow", "--poly", "v13", "--u", "1.0", "--N", "4"]) == 2
    capsys.readouterr()


def test_flow_parse_error_exit(capsys):
    assert main(["flow", "--poly", "q1", "--u", "1.0"]) == 2
    capsys.readouterr()


# -- simulate ---------------------------------------------------------------------------


def test_simulate_json_schema(capsys):
    code, payload = run_json(capsys, [
        "simulate", "--group", "unitary", "--N", "2", "--t", "0.5",
        "--paths", "5", "--seed", "1",
    ])
    assert code == 0
    assert payload["manifest"]["seed"] == 1
    cfg = payload["config"]
    assert cfg == {
        "group": "unitary", "N": 2, "t": 0.5, "s": None,
        "steps": 50, "paths": 5, "seed": 1,
    }
    (obs,) = payload["observables"]
    assert obs["name"] == "v1"
    assert len(obs["mean"]) == 2
    assert obs["variance"] >= 0.0
    assert obs["stderr"] >= 0.0


def test_simulate_regime_errors(capsys):
    base = ["simulate", "--group", "gl", "--N", "2", "--t", "1.0", "--paths", "2"]
    assert main(base) == 2  # missing s
    assert main(base + ["--s", "0.4"]) == 2  # s <= t/2
    capsys.readouterr()


def test_simulate_empty_observables(capsys):
    assert main([
        "simulate", "--group", "unitary", "--N", "2", "--t", "0.5",
        "--paths", "2", "--observables", " , ",
    ]) == 2
    capsys.readouterr()


def test_simulate_bad_spectral_index_is_parameter_error(capsys):
    assert main([
        "simulate", "--group", "unitary", "--N", "2", "--t", "0.5",
        "--paths", "2", "--observables", "sv:x",
    ]) == 2
    assert "InvalidParameter" in capsys.readouterr().err


def test_simulate_csv_structure_and_determinism(tmp_path, capsys):
    out = tmp_path / "dump.csv"
    argv = [
        "simulate", "--group", "unitary", "--N", "3", "--t", "0.4",
        "--paths", "4", "--seed", "2", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    first = out.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0].startswith("# manifest: subcommand=simulate, version=")
    assert lines[1] == "# group=unitary, N=3, t=0.4, s=None, seed=2"
    assert lines[2] == "path,index,re,im"
    assert len(lines) == 3 + 4 * 3  # paths * N eigenvalue rows
    table = np.loadtxt(out, delimiter=",", skiprows=3)
    assert table.shape == (12, 4)
    mods = np.hypot(table[:, 2], table[:, 3])
    assert np.allclose(mods, 1.0, atol=1e-8)  # circle spectrum

    # identical invocation must reproduce the file byte for byte
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_simulate_zero_time_spectrum(tmp_path, capsys):
    out = tmp_path / "triv.csv"
    assert main([
        "simulate", "--group", "unitary", "--N", "2", "--t", "0.0",
        "--steps", "3", "--paths", "2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    table = np.loadtxt(out, delimiter=",", skiprows=3)
    assert np.all(table[:, 2] == 1.0)
    assert np.all(table[:, 3] == 0.0)


def test_simulate_gl_with_stretch_observable(capsys):
    code, payload = run_json(capsys, [
        "simulate", "--group", "gl", "--N", "3", "--t", "0.5", "--s", "1.0",
        "--steps", "25", "--paths", "8", "--observables", "sv:1,v1",
    ])
    assert code == 0
    names = [o["name"] for o in payload["observables"]]
    assert names == ["sv:1", "v1"]
    for o in payload["observables"]:
        assert math.isfinite(o["mean"][0])
        assert math.isfinite(o["variance"])


# -- density ----------------------------------------------------------------------------


def test_density_unitary_stdout(capsys):
    code = main(["density", "--law", "unitary", "--t", "1.0", "--grid", "201"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# manifest: subcommand=density, version=")
    assert lines[1] == "# law=unitary, t=1.0"
    assert lines[2] == "theta_or_x,density"
    rows = np.array([[float(a) for a in ln.split(",")] for ln in lines[3:]])
    assert rows.shape == (201, 2)
    # even in theta, nonnegative, unit trapezoid mass
    assert np.allclose(rows[:, 1], rows[::-1, 1], atol=1e-12)
    assert np.all(rows[:, 1] >= 0.0)
    mass = np.trapezoid(rows[:, 1], rows[:, 0])
    assert mass == pytest.approx(1.0, abs=2e-3)


def test_density_positive_file_and_mass(tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code, payload = run_json(capsys, [
        "density", "--law", "positive", "--t", "1.0", "--grid", "512",
        "--out", str(out),
    ])
    assert code == 0
    assert payload["trapezoid_mass"] == pytest.approx(1.0, abs=1e-4)
    lines = out.read_text().splitlines()
    assert lines[1] == "# law=positive, t=1.0"
    rows = np.array([[float(a) for a in ln.split(",")] for ln in lines[3:]])
    assert rows.shape == (512, 2)
    xs, ys = rows[:, 0], rows[:, 1]
    assert np.all(np.diff(xs) > 0)
    assert ys[0] == 0.0 and ys[-1] == 0.0  # vanishes at the support edges
    assert np.all(ys >= 0.0)
    # first moment of the dumped table matches the closed form e^{t/2}
    mean = np.trapezoid(xs * ys, xs)
    assert mean == pytest.approx(math.exp(0.5), abs=1e-3)


def test_density_guards(capsys):
    assert main(["density", "--law", "unitary", "--t", "0.0"]) == 2
    assert main(["density", "--law", "unitary", "--t", "1.0", "--grid", "1"]) == 2
    capsys.readouterr()


# -- variance scan -----------------------------------------------------------------------


def test_variance_scan_exact_column(capsys):
    code, payload = run_json(capsys, [
        "variance-scan", "--Ns", "2,4", "--t", "1.0", "--paths", "60",
    ])
    assert code == 0
    rows = payload["rows"]
    assert [r["N"] for r in rows] == [2, 4]
    for r in rows:
        want = (1.0 - math.exp(-1.0)) / (r["N"] ** 2)
        assert r["exact_variance"] == pytest.approx(want, abs=1e-10)
        assert r["variance"] > 0.0
    assert payload["slope"] < 0.0  # decreasing with N


def test_variance_scan_guards(capsys):
    assert main(["variance-scan", "--Ns", " ,", "--t", "1.0"]) == 2
    assert main(["variance-scan", "--Ns", "1,4", "--t", "1.0", "--paths", "5"]) == 2
    capsys.readouterr()


def test_variance_scan_non_integer_size_is_parameter_error(capsys):
    assert main(["variance-scan", "--Ns", "4,a", "--t", "1.0", "--paths", "5"]) == 2
    assert "InvalidParameter" in capsys.readouterr().err


# -- intertwining check ------------------------------------------------------------------


def test_check_intertwine_passes(capsys):
    code, payload = run_json(capsys, ["check-intertwine", "--N", "4"])
    assert code == 0
    assert payload["all_pass"] is True
    assert [c["poly"] for c in payload["cases"]] == ["v2", "v3", "v2*v3"]
    for case in payload["cases"]:
        assert case["rel_error"] < 1e-4


def test_check_intertwine_scalar_power_law(capsys):
    code, payload = run_json(capsys, ["check-intertwine", "--N", "1"])
    assert code == 0
    for case in payload["cases"]:
        assert case["power_law_rel_error"] < 1e-10


def test_check_intertwine_reports_failure(capsys):
    # a huge finite-difference step breaks the tolerance and flips the exit code
    code, payload = run_json(capsys, ["check-intertwine", "--N", "4", "--hstep", "1.0"])
    assert code == 1
    assert payload["all_pass"] is False


def test_check_intertwine_guards(capsys):
    assert main(["check-intertwine", "--hstep", "0.0"]) == 2
    assert main(["check-intertwine", "--N", "0"]) == 2
    capsys.readouterr()
