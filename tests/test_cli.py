import argparse
import csv
import io
import json
import os
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dnls.cli
import dnls.evolution
import dnls.oracle
import dnls.potentials
import dnls.solver
from dnls.cli import build_parser, main
from dnls.lattice import profile_from_csv

from test_evolution import reference_integrate, reference_relative_equilibrium_check


def read_json(path):
    return json.loads(path.read_text())


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "wave"
    code = main(["solve", "--potential", "saturable-log", "--alpha", "1",
                 "--rho", "3", "--scheme", "onsite", "--N", "9", "--out", str(out)])
    assert code == 0
    data = read_json(tmp_path / "wave.json")
    assert data["converged"] is True
    assert data["sigma"] > 2.0
    assert data["config"]["n"] == 9
    prof = profile_from_csv(tmp_path / "wave.profile.csv")
    assert prof.cell.n == 9
    manifest = read_json(tmp_path / "wave.manifest.json")
    assert manifest["command"] == "solve"
    assert all((tmp_path / p.split("/")[-1]).exists() for p in manifest["outputs"])
    assert "wall_time" in manifest and "tool_version" in manifest


def test_solve_rejects_bad_cell_size(tmp_path, capsys):
    code = main(["solve", "--N", "0", "--alpha", "1", "--rho", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "N must be >= 2" in capsys.readouterr().err


def test_solve_rejects_unknown_potential(tmp_path, capsys):
    code = main(["solve", "--potential", "septic", "--alpha", "1", "--rho", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "unknown potential" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["sweep", "--potential", "quartic"]) == 1  # missing --param


def test_solve_deterministic_artifacts(tmp_path):
    args = ["solve", "--potential", "quartic", "--alpha", "0.5", "--rho", "2",
            "--N", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.profile.csv").read_bytes() == (tmp_path / "b.profile.csv").read_bytes()


# one cheap run of every command
COMMANDS = {
    "solve": ["solve", "--potential", "quartic", "--alpha", "0.5", "--rho", "2", "--N", "9"],
    "sweep": ["sweep", "--param", "rho", "--values", "1.5,2", "--potential", "quartic",
              "--alpha", "0.5", "--N", "9"],
    "homoclinic": ["homoclinic", "--potential", "quartic", "--alpha", "0.3", "--rho", "2",
                   "--N-seq", "9,17"],
    "check-potential": ["check-potential", "--potential", "nonconvex-rational",
                        "--samples", "50"],
    "oracle": ["oracle", "--N", "3", "--potential", "quartic", "--alpha", "1", "--rho", "2",
               "--grid-points", "50"],
    "evolve": ["evolve", "--potential", "quartic", "--alpha", "0.5", "--rho", "2", "--N", "9",
               "--t-end", "0.05", "--dt", "0.01", "--sample-every", "2"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_every_command_repeats_its_artifacts_and_lists_them(tmp_path, monkeypatch, argv):
    # two runs in two directories under the same relative prefix
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        written = []
        real_open = io.open

        def recording_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                written.append(os.fspath(file))
            return real_open(file, mode, *args, **kwargs)

        with mock.patch("builtins.open", recording_open), mock.patch("io.open", recording_open):
            assert main([*argv, "--out", "run/x"]) == 0
        files = {p.relative_to(tmp_path / name).as_posix(): p.read_bytes()
                 for p in (tmp_path / name).rglob("*") if p.is_file()}
        manifest = json.loads(files.pop("run/x.manifest.json"))
        # the manifest lists every other file, in the order they were written
        assert written == [*manifest["outputs"], "run/x.manifest.json"]
        assert sorted(files) == sorted(manifest["outputs"])
        assert manifest["command"] == argv[0]
        del manifest["wall_time"]
        runs.append((files, manifest))
    assert runs[0] == runs[1]


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 1.0, "rho": 2.0, "n": 9,
                                    "scheme": "onsite"}))
    out = tmp_path / "w"
    code = main(["solve", "--potential", "quartic", "--config", str(cfg_file),
                 "--rho", "1.5", "--out", str(out)])
    assert code == 0
    data = read_json(tmp_path / "w.json")
    assert data["config"]["rho"] == 1.5
    assert data["config"]["n"] == 9


def test_sweep_summary(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--param", "rho", "--values", "1.0,1.5,2.0",
                 "--potential", "saturable-log", "--alpha", "1", "--N", "9",
                 "--out", str(out)])
    assert code == 0
    with open(tmp_path / "sw.summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["param", "sigma", "p_total", "t_value", "residual",
                       "max_u", "participation_ratio"]
    assert [float(r[0]) for r in rows[1:]] == [1.0, 1.5, 2.0]
    assert (tmp_path / "sw.rho=1.5.json").exists()
    # t_value increases with rho at fixed alpha
    ts = [float(r[3]) for r in rows[1:]]
    assert ts == sorted(ts)


def test_sweep_range_flags(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--param", "alpha", "--from", "0.5", "--to", "1.0",
                 "--step", "0.25", "--potential", "quartic", "--rho", "2",
                 "--N", "9", "--out", str(out)])
    assert code == 0
    with open(tmp_path / "sw.summary.csv") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [0.5, 0.75, 1.0]


def test_sweep_empty_grid(tmp_path, capsys):
    code = main(["sweep", "--param", "rho", "--values", "",
                 "--potential", "quartic", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "empty sweep grid" in capsys.readouterr().err


@pytest.mark.parametrize("bounds, message", [
    (["--from", "1", "--to", "2"], "sweep takes --values or a range, and the range lacks --step"),
    (["--to", "2", "--step", "0.5"], "sweep takes --values or a range, and the range lacks --from"),
    (["--from", "1", "--to", "2", "--step", "0"], "--step must be positive, not 0.0"),
    (["--from", "1", "--to", "2", "--step", "-0.5"], "--step must be positive, not -0.5"),
])
def test_sweep_range_names_its_missing_or_non_positive_flag(tmp_path, capsys, monkeypatch,
                                                             bounds, message):
    # each once printed only "empty sweep grid"
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    code = main(["sweep", "--param", "rho", *bounds, "--potential", "quartic", "--alpha", "1",
                 "--N", "5", "--out", str(tmp_path / "sub" / "s")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_backward_sweep_range_is_an_empty_grid(tmp_path, capsys):
    code = main(["sweep", "--param", "rho", "--from", "2", "--to", "1", "--step", "0.5",
                 "--potential", "quartic", "--alpha", "1", "--N", "5",
                 "--out", str(tmp_path / "sub" / "s")])
    assert code == 1
    assert capsys.readouterr().err == "error: empty sweep grid\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--from", "--to", "--step"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_sweep_refuses_non_finite_range_flags(tmp_path, capsys, monkeypatch, flag, value):
    # refused before any solve, naming the flag, and nothing is written
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    bounds = {"--from": "2", "--to": "3", "--step": "0.5", flag: value}
    code = main(["sweep", "--param", "rho", *[f"{k}={v}" for k, v in bounds.items()],
                 "--potential", "quartic", "--alpha", "1", "--N", "5",
                 "--out", str(tmp_path / "sub" / "s")])
    assert code == 1
    assert f"error: {flag} must be finite, not {float(value)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_check_potential_at_tiny_x_max_passes_quartic(tmp_path):
    # psi is sampled on (0, x_max] only, where x**4 is positive
    assert main(["check-potential", "--potential", "quartic", "--x-max", "1e-9",
                 "--out", str(tmp_path / "chk")]) == 0


def test_sweep_refuses_values_sharing_an_artifact_name(tmp_path, capsys):
    # both values format as rho=2, so the second point would overwrite the first
    code = main(["sweep", "--param", "rho", "--values", "2.0000001,2.0000002,2.5",
                 "--potential", "quartic", "--alpha", "1", "--N", "9",
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert "2.0000001 and 2.0000002 share the artifact name rho=2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_a_huge_range_before_building_it(tmp_path, capsys):
    # 1e300 points: the second rounds to the first, which refuses the sweep
    # before the rest of the range is generated
    code = main(["sweep", "--param", "rho", "--from", "1", "--to", "2", "--step", "1e-300",
                 "--potential", "quartic", "--alpha", "1", "--N", "5",
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert "sweep values 1.0 and 1.0 share the artifact name rho=1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("param, values, message", [
    ("rho", "3,-1", "rho must be positive"),
    ("alpha", "0.8,0", "alpha must be positive"),
    ("N", "9,1", "N must be >= 2"),
])
def test_sweep_validates_every_point_before_the_first_solve(tmp_path, capsys, monkeypatch,
                                                           param, values, message):
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    flags = {"--alpha": "0.8", "--N": "9"}
    flags.pop(f"--{param}", None)  # the swept field takes no flag
    code = main(["sweep", "--param", param, "--values", values, "--potential", "saturable-log",
                 *[x for kv in flags.items() for x in kv], "--out", str(tmp_path / "s")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_checks_every_points_potential_before_the_first_solve(tmp_path, capsys):
    # exp-quadratic fails its check on [0, 500]: the three points before it used to be
    # solved first, and the sweep then wrote nothing
    with mock.patch.object(dnls.solver, "_run", wraps=dnls.solver._run) as run:
        code = main(["sweep", "--param", "rho", "--values", "2,2.5,3,500", "--potential",
                     "exp-quadratic", "--alpha", "1", "--N", "41", "--out", str(tmp_path / "s")])
    assert code == 1 and run.call_count == 0
    assert capsys.readouterr() == ("", "error: potential violates growth assumptions on "
                                       "[0, 512]: ['consistency']\n")
    assert list(tmp_path.iterdir()) == []


def test_a_sweeps_solves_find_their_checks_kept(tmp_path):
    # the README sweep, rho 2.0 ... 3.0, spans two octaves: [0, 2] and [0, 4] are checked
    # before the first ascent, and its eleven solves check nothing again
    dnls.potentials._KEPT.clear()
    events, check, run = [], dnls.potentials.check_assumptions, dnls.solver._run

    def checked(p, x_max, samples):
        events.append(x_max)
        return check(p, x_max=x_max, samples=samples)

    def ran(*args):
        events.append("run")
        return run(*args)

    with mock.patch.object(dnls.potentials, "check_assumptions", side_effect=checked), \
            mock.patch.object(dnls.solver, "_run", side_effect=ran):
        assert main(["sweep", "--param", "rho", "--from", "2.0", "--to", "3.0", "--step", "0.1",
                     "--potential", "exp-quadratic", "--alpha", "1", "--N", "41",
                     "--out", str(tmp_path / "s")]) == 0
    assert events[:3] == [2.0, 4.0, "run"] and set(events[2:]) == {"run"}


def test_sweep_refuses_fractional_cell_sizes(tmp_path, capsys):
    # N=9.4 was rounded to 9: two identical solves under two names
    code = main(["sweep", "--param", "N", "--values", "9,9.4", "--potential", "quartic",
                 "--alpha", "1", "--rho", "2", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "sweep values of N must be whole numbers, not 9.4" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    code = main(["sweep", "--param", "N", "--values", "5,7.0", "--potential", "quartic",
                 "--alpha", "1", "--rho", "2", "--out", str(tmp_path / "s")])
    assert code == 0
    assert read_json(tmp_path / "s.N=7.json")["config"]["n"] == 7
    # the manifest records the sizes as integers, as homoclinic's n_sequence does
    grid = read_json(tmp_path / "s.manifest.json")["config"]["grid"]
    assert grid == [5, 7] and all(type(n) is int for n in grid)


def test_solve_converged_is_the_stop_rule_verdict(tmp_path):
    # the run stops on its residual at once; the artifact must call it converged
    code = main(["solve", "--potential", "nonconvex-rational", "--alpha", "3", "--rho", "8",
                 "--N", "9", "--tol-residual", "1e-15", "--out", str(tmp_path / "w")])
    assert code == 0
    data = read_json(tmp_path / "w.json")
    assert data["converged"] is True and data["iterations"] == 0
    assert data["diagnostics"]["stop_reason"] == "residual"
    assert data["residual"] <= 1e-15


@pytest.mark.parametrize("n, alpha, rho", [("3", "1.2", "29"), ("10", "2.45", "23.77")])
def test_a_high_energy_solve_converges(tmp_path, n, alpha, rho):
    # P is about 4e12 (2e10 at N=10), where no energy gain is measurable; a
    # residual test on such steps refused every trial and stopped the run on
    # stagnation after one step, at residual 6.5 (12 at N=10)
    code = main(["solve", "--potential", "exp-quadratic", "--scheme", "onsite", "--N", n,
                 "--alpha", alpha, "--rho", rho, "--out", str(tmp_path / "w")])
    assert code == 0
    data = read_json(tmp_path / "w.json")
    assert data["converged"] is True and data["iterations"] <= 10
    assert data["diagnostics"]["stop_reason"] == "residual"


def test_homoclinic_command(tmp_path):
    out = tmp_path / "homo"
    code = main(["homoclinic", "--potential", "quartic", "--alpha", "0.3",
                 "--rho", "2", "--N-seq", "9,17", "--out", str(out)])
    assert code == 0
    data = read_json(tmp_path / "homo.json")
    assert data["verdict"] == "localized"
    assert len(data["t_values"]) == 2
    rest = profile_from_csv(tmp_path / "homo.N=17.restricted.csv", periodic=False)
    assert not rest.cell.is_finite


def test_homoclinic_sizes_follow_the_library_rule(tmp_path, monkeypatch, capsys):
    # a whole-number float is that size, as in homoclinic() and sweep --param N
    runs = []
    for name, sizes in (("a", "9,17.0"), ("b", "9,17")):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["homoclinic", "--potential", "quartic", "--alpha", "0.3", "--rho", "2",
                     "--N-seq", sizes, "--out", "homo"]) == 0
        files = {p.name: p.read_bytes() for p in Path.cwd().iterdir()}
        manifest = json.loads(files.pop("homo.manifest.json"))
        del manifest["wall_time"]
        runs.append((files, manifest))
    assert runs[0] == runs[1]
    assert runs[0][1]["config"]["n_sequence"] == [9, 17]
    (tmp_path / "c").mkdir()
    monkeypatch.chdir(tmp_path / "c")
    capsys.readouterr()
    assert main(["homoclinic", "--potential", "quartic", "--alpha", "0.3", "--rho", "2",
                 "--N-seq", "9,17.5", "--out", "run/homo"]) == 1
    assert "n_sequence sizes must be whole numbers, not 17.5" in capsys.readouterr().err
    assert list(Path.cwd().iterdir()) == []


def test_solve_refuses_a_subnormal_power_per_site(tmp_path, capsys):
    # rho/N = 2e-321 is subnormal: the ansatz rounded to 8.5% off rho and the
    # solve reported sigma 1.9479 for the flat wave of frequency 2, with exit 0
    code = main(["solve", "--potential", "quartic", "--alpha", "1", "--rho", "1e-320",
                 "--N", "5", "--out", str(tmp_path / "w")])
    assert code == 1
    assert ("error: rho/N must be at least the smallest normal float 2.2250738585072014e-308, "
            "not rho/N = 1e-320/5") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_check_potential_command(tmp_path):
    code = main(["check-potential", "--potential", "nonconvex-rational",
                 "--out", str(tmp_path / "chk")])
    assert code == 0
    data = read_json(tmp_path / "chk.json")
    assert data["passed"] is True and data["violations"] == []


def test_oracle_command_cross_checks_solver(tmp_path):
    out = tmp_path / "orc"
    code = main(["oracle", "--N", "3", "--potential", "quartic", "--alpha", "1",
                 "--rho", "2", "--grid-points", "20000", "--out", str(out)])
    assert code == 0
    data = read_json(tmp_path / "orc.json")
    assert data["relative_gap"] <= 1e-4
    assert data["profile_sup_diff"] <= 1e-3


def test_oracle_command_rejects_big_cells(tmp_path, capsys):
    for flags, message in ((["--N", "7"], "N <= 4"),
                           (["--N", "3", "--grid-points", "1"],
                            "grid_points must be at least 3, not 1")):
        code = main(["oracle", *flags, "--potential", "quartic", "--alpha", "1",
                     "--rho", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_oracle_refuses_a_grid_with_no_finite_energy(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dnls.oracle, "level_energies", lambda amps, *_: np.full(amps.shape[1],
                                                                                  np.nan))
    code = main(["oracle", "--N", "3", "--potential", "quartic", "--alpha", "1", "--rho", "2",
                 "--out", str(tmp_path / "sub" / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: the oracle's grid holds no finite energy of quartic\n"
    assert list(tmp_path.iterdir()) == []


def test_readme_oracle_example_keeps_the_solve_example_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--potential", "saturable-arctan", "--alpha", "1", "--rho", "10",
                 "--scheme", "onsite", "--N", "25", "--tau", "1", "--out", "wave"]) == 0
    assert main(["oracle", "--N", "3", "--potential", "quartic", "--alpha", "1",
                 "--rho", "2"]) == 0
    assert read_json(tmp_path / "wave.manifest.json")["command"] == "solve"
    assert read_json(tmp_path / "oracle.manifest.json")["command"] == "oracle"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "oracle.json", "oracle.manifest.json", "oracle.profile.csv",
        "wave.json", "wave.manifest.json", "wave.profile.csv"]


def test_evolve_command(tmp_path):
    out = tmp_path / "evo"
    code = main(["evolve", "--potential", "saturable-log", "--alpha", "0.8",
                 "--rho", "3", "--N", "9", "--t-end", "0.5", "--dt", "0.001",
                 "--sample-every", "100", "--out", str(out)])
    assert code == 0
    data = read_json(tmp_path / "evo.json")
    assert data["modulus_drift"] <= 1e-6
    assert data["sigma_mismatch"] <= 1e-4
    with open(tmp_path / "evo.series.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "j", "re", "im", "abs"]
    # samples at steps 0, 100, ..., 500 with 9 sites each
    assert len(rows) - 1 == 6 * 9
    ts = sorted({float(r[0]) for r in rows[1:]})
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(0.5, abs=1e-12)
    assert read_json(tmp_path / "evo.manifest.json")["config"]["sample_every"] == 100


def test_evolve_of_an_unconverged_wave_writes_nothing(tmp_path, capsys):
    code = main(["evolve", "--potential", "saturable-log", "--alpha", "0.8", "--rho", "3",
                 "--N", "9", "--max-iters", "5", "--out", str(tmp_path / "evo")])
    assert code == 2
    assert capsys.readouterr().err == ("did not converge: stop=max_iters residual=1.214e-06 "
                                       "after 5 iterations\n")
    assert list(tmp_path.iterdir()) == []


def test_evolve_blow_up_is_an_operational_error(tmp_path, capsys):
    # main maps the RuntimeError of the blow-up guard to exit 2
    code = main(["evolve", "--potential", "quartic", "--alpha", "1", "--rho", "4e12",
                 "--scheme", "intersite", "--N", "2", "--out", str(tmp_path / "evo")])
    assert code == 2
    assert capsys.readouterr().err == "error: amplitude exceeded 1e+06 at t=0\n"


def test_evolve_blow_up_writes_nothing(tmp_path, capsys):
    # the series is written only after the run, so a blow-up leaves no file
    code = main(["evolve", "--potential", "quartic", "--alpha", "1", "--rho", "4e12",
                 "--scheme", "intersite", "--N", "2", "--out", str(tmp_path / "d" / "x")])
    assert code == 2
    assert capsys.readouterr().err == "error: amplitude exceeded 1e+06 at t=0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target, argv", [
    ("check_assumptions", ["check-potential", "--potential", "quartic", "--samples", "10"]),
    ("solve", ["solve", "--potential", "quartic", "--N", "9"]),
])
def test_running_out_of_memory_is_an_operational_error(tmp_path, capsys, monkeypatch,
                                                       target, argv):
    # valid inputs that the machine cannot hold: a one-line error, exit 2 and no artifact
    full = MemoryError("Unable to allocate 3.64 TiB for an array with shape (500000000000,)")
    monkeypatch.setattr(dnls.cli, target, mock.Mock(side_effect=full))
    assert main([*argv, "--out", str(tmp_path / "d" / "x")]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {full}\n"
    assert list(tmp_path.iterdir()) == []


def test_evolve_series_cells_are_numbers_and_its_labels_the_profiles(tmp_path):
    flags = ["--potential", "quartic", "--alpha", "0.5", "--rho", "2", "--scheme",
             "intersite", "--N", "8"]
    assert main(["solve", *flags, "--out", str(tmp_path / "w")]) == 0
    assert main(["evolve", *flags, "--t-end", "0.1", "--dt", "0.01", "--sample-every", "5",
                 "--out", str(tmp_path / "evo")]) == 0
    with open(tmp_path / "w.profile.csv") as fh:
        profile = list(csv.reader(fh))[1:]
    with open(tmp_path / "evo.series.csv") as fh:
        series = list(csv.reader(fh))[1:]
    assert len(series) == 3 * 8  # steps 0, 5 and 10
    assert [r[1] for r in series] == [j for j, _ in profile] * 3
    # every cell is a plain number; A(0) is the profile, bit for bit
    re, im, ab = (np.array([float(r[k]) for r in series]) for k in (2, 3, 4))
    assert np.array_equal(re[:8], [float(u) for _, u in profile]) and not im[:8].any()
    np.testing.assert_allclose(ab, np.hypot(re, im), rtol=1e-15)


def test_check_potential_report_is_strict_json(tmp_path):
    # far out exp-quadratic overflows: its infinite sides are written as null
    code = main(["check-potential", "--potential", "exp-quadratic", "--x-max", "1000",
                 "--out", str(tmp_path / "cp")])
    assert code == 2

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    data = json.loads((tmp_path / "cp.json").read_text(), parse_constant=refuse)
    assert sum(v[side] is None for v in data["violations"] for side in ("lhs", "rhs")) == 168


@pytest.mark.parametrize("value", [0, -5])
def test_evolve_refuses_sample_every_below_one(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    code = main(["evolve", "--potential", "saturable-log", "--alpha", "0.8",
                 "--rho", "3", "--N", "9", "--t-end", "0.1", "--dt", "0.01",
                 "--sample-every", str(value), "--out", str(tmp_path / "evo")])
    assert code == 1
    assert f"error: sample_every must be at least 1, not {value}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--t-end", "inf", "t_end must be non-negative and finite, not inf"),
    ("--t-end", "nan", "t_end must be non-negative and finite, not nan"),
    ("--dt", "nan", "dt must be positive and finite, not nan"),
    ("--dt", "inf", "dt must be positive and finite, not inf"),
    ("--t-end", "-1", "t_end must be non-negative and finite, not -1.0"),
    ("--dt", "0", "dt must be positive and finite, not 0.0"),
    ("--t-end", "0", "t_end must be positive to measure a phase rotation, not 0.0"),
])
def test_evolve_refuses_non_finite_times(tmp_path, capsys, monkeypatch, flag, value, message):
    # the times are checked before the solve, and nothing is written
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    times = {"--t-end": "0.1", "--dt": "0.01", flag: value}
    code = main(["evolve", "--potential", "saturable-log", "--alpha", "0.8",
                 "--rho", "3", "--N", "9", *[x for kv in times.items() for x in kv],
                 "--out", str(tmp_path / "sub" / "evo")])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_end, dt, n, message", [
    ("1", "1e-300", "5", "evolve would take 5e+300 RK4 site-steps, more than the cap of 1e+07"),
    ("1e300", "1e-300", "5", "t_end / dt must be a finite step count, not 1e+300 / 1e-300"),
    # a finite count of 1e308 steps, whose product with N overflows to inf
    ("1e300", "1e-8", "25", "evolve would take inf RK4 site-steps, more than the cap of 1e+07"),
    # just past the cap: round(1 / 4.999e-7) = 2,000,400 steps on 5 sites
    ("1", "4.999e-7", "5", "evolve would take 1e+07 RK4 site-steps, more than the cap of 1e+07"),
])
def test_evolve_refuses_too_many_site_steps_before_solving(tmp_path, capsys, monkeypatch,
                                                          t_end, dt, n, message):
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    start = time.perf_counter()
    code = main(["evolve", "--potential", "quartic", "--alpha", "1", "--rho", "2", "--N", n,
                 "--t-end", t_end, "--dt", dt, "--out", str(tmp_path / "sub" / "evo")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_evolve_at_its_cap_goes_on_to_solve(tmp_path, monkeypatch):
    # 2e6 steps on 5 sites is the cap itself: the command solves (here, refuses to converge)
    unconverged = mock.Mock(converged=False, residual=1.0, iterations=3,
                            **{"diagnostics.stop_reason": "max_iters"})
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(return_value=unconverged))
    code = main(["evolve", "--potential", "quartic", "--alpha", "1", "--rho", "2", "--N", "5",
                 "--t-end", "1", "--dt", "5e-7", "--out", str(tmp_path / "evo")])
    assert code == 2 and dnls.cli.solve.call_count == 1


@pytest.mark.parametrize("grid", [
    ["--param", "N", "--from", "2", "--to", "100000", "--step", "1"],
    # a range too long for an integer count
    ["--param", "rho", "--from", "0", "--to", "1e300", "--step", "1e-300", "--N", "5"],
    ["--param", "rho", "--values", ",".join(str(1 + k) for k in range(1001)), "--N", "5"],
])
def test_sweep_refuses_more_points_than_its_cap_before_solving(tmp_path, capsys, monkeypatch,
                                                              grid):
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    start = time.perf_counter()
    code = main(["sweep", *grid, "--potential", "quartic", "--alpha", "1",
                 "--out", str(tmp_path / "s")])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err == "error: a sweep grid may hold at most 1000 points\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_of_as_many_points_as_its_cap_goes_on_to_solve(tmp_path, monkeypatch):
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=RuntimeError("solved")))
    code = main(["sweep", "--param", "N", "--from", "2", "--to", "1001", "--step", "1",
                 "--potential", "quartic", "--alpha", "1", "--out", str(tmp_path / "s")])
    assert code == 2 and dnls.cli.solve.call_count == 1


@pytest.mark.parametrize("argv, message", [
    (["check-potential", "--potential", "quartic", "--x-max", "nan"],
     "x_max must be positive and finite, not nan"),
    (["check-potential", "--potential", "quartic", "--x-max", "inf"],
     "x_max must be positive and finite, not inf"),
    (["check-potential", "--potential", "quartic", "--x-max", "0"],
     "x_max must be positive and finite, not 0.0"),
    *[(["homoclinic", "--potential", "quartic", "--alpha", "0.3", "--rho", "2",
        "--N-seq", "9,17", "--margin", value],
       f"margin must be positive and finite, not {float(value)}")
      for value in ("nan", "inf", "-1", "0")],
])
def test_non_finite_numeric_inputs_are_usage_errors(tmp_path, capsys, monkeypatch, argv,
                                                    message):
    # refused before any solve, and nothing is written
    monkeypatch.setattr(dnls.solver, "solve", mock.Mock(side_effect=AssertionError("solved")))
    code = main([*argv, "--out", str(tmp_path / "sub" / "run")])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_readme_sweep_example_creates_its_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--param", "rho", "--from", "2.0", "--to", "3.0", "--step", "0.1",
                 "--potential", "exp-quadratic", "--alpha", "1", "--N", "41",
                 "--out", "sweep/run"]) == 0
    manifest = read_json(tmp_path / "sweep" / "run.manifest.json")
    assert len(manifest["outputs"]) == 12
    assert all((tmp_path / out).is_file() for out in manifest["outputs"])


@pytest.mark.parametrize("argv", [
    ["check-potential", "--potential", "quartic", "--samples", "50"],
    ["solve", "--potential", "quartic", "--alpha", "0.5", "--rho", "2", "--N", "9"],
])
def test_unwritable_out_prefix_is_an_error_not_a_traceback(tmp_path, capsys, argv):
    (tmp_path / "plain").write_text("a regular file\n")
    code = main([*argv, "--out", str(tmp_path / "plain" / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "plain" in err
    assert [p.name for p in tmp_path.iterdir()] == ["plain"]


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"alpha": 1.0, "rho": 2.0, "n": 9,
                                    "max_iters": 2, "tol_residual": 1e-30}))
    code = main(["solve", "--potential", "quartic", "--config", str(cfg_file),
                 "--out", str(tmp_path / "nc")])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err
    # artifacts are still written for diagnosis
    assert (tmp_path / "nc.json").exists()


@pytest.mark.parametrize("content, message", [
    ('{"bogus": 3, "alpha": 1.0}', "unknown solver config keys: bogus"),
    ('{"alpha": 1.0, "seed": 0}', "unknown solver config keys: seed"),
    ('{"cone_guard": "off"}', "unknown solver config keys: cone_guard"),
    ('{"alpha": "x"}', "alpha must be a real number, not str"),
    ('{"n": 9.0}', "n must be an integer, not float"),
    ('{"tol_residual": NaN}', "tol_residual must be finite, not nan"),
    ("[1, 2]", "must hold a JSON object"),
    ("{not json", "error:"),
])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, content, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(content)
    code = main(["solve", "--potential", "quartic", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "x.json").exists()


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code = main(["solve", "--potential", "quartic", "--config",
                 str(tmp_path / "absent.json"), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and "absent.json" in err


def test_evolve_integrates_once(tmp_path, monkeypatch):
    original = dnls.evolution.integrate
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3:5])
        return original(*args, **kwargs)

    # patch every namespace that holds the integrator, as an outside tracer would
    for module in (dnls.cli, dnls.evolution):
        if getattr(module, "integrate", None) is original:
            monkeypatch.setattr(module, "integrate", counting)
    code = main(["evolve", "--potential", "saturable-log", "--alpha", "0.8",
                 "--rho", "3", "--N", "9", "--t-end", "0.2", "--dt", "0.001",
                 "--sample-every", "50", "--out", str(tmp_path / "evo")])
    assert code == 0
    assert calls == [(0.2, 0.001)]


def test_evolve_artifacts_match_the_per_step_references(tmp_path, monkeypatch):
    # the README wave over 1,000 steps: 1,001 states, seven blocks and a part block.
    # Each run patches in the per-step reference integrator (one-row blocks), the
    # per-step reference check (which reads every block state by state), or both.
    argv = ["evolve", "--potential", "saturable-arctan", "--alpha", "1", "--rho", "10",
            "--N", "25", "--t-end", "1", "--dt", "1e-3", "--sample-every", "7", "--out", "run"]
    runs = {}
    for name, integrator, check in (("shipped", None, None),
                                    ("both", reference_integrate,
                                     reference_relative_equilibrium_check),
                                    ("integrator", reference_integrate, None),
                                    ("check", None, reference_relative_equilibrium_check)):
        (tmp_path / name).mkdir()
        with monkeypatch.context() as patch:
            patch.chdir(tmp_path / name)
            if integrator is not None:
                patch.setattr(dnls.evolution, "integrate", integrator)
            if check is not None:
                patch.setattr(dnls.cli, "relative_equilibrium_check", check)
            assert main(argv) == 0
        manifest = read_json(tmp_path / name / "run.manifest.json")
        del manifest["wall_time"]
        runs[name] = ((tmp_path / name / "run.series.csv").read_bytes(),
                      (tmp_path / name / "run.json").read_bytes(), manifest)
    assert all(run == runs["shipped"] for run in runs.values())


def test_emitted_profile_round_trips(tmp_path):
    out = tmp_path / "w"
    main(["solve", "--potential", "quartic", "--alpha", "0.5", "--rho", "2",
          "--N", "8", "--scheme", "intersite", "--out", str(out)])
    prof = profile_from_csv(tmp_path / "w.profile.csv")
    data = read_json(tmp_path / "w.json")
    assert prof.cell.n == 8
    # power recomputed from the CSV matches the JSON record exactly
    assert float(prof.values @ prof.values) == pytest.approx(
        data["energies"]["power"], rel=1e-15)


SOLVER_KEYS = ["alpha", "rho", "scheme", "n", "tau", "tol_residual", "max_iters"]
OWN_KEYS = {"solve": [], "sweep": ["sweep", "grid"], "homoclinic": ["n_sequence"],
            "oracle": ["grid_points"], "evolve": ["t_end", "dt", "sample_every"]}
VARIED = {"sweep": "rho", "homoclinic": "n"}  # the field each of COMMANDS varies


@pytest.mark.parametrize("command", OWN_KEYS)
def test_every_solving_manifest_names_its_potential(tmp_path, command):
    # the solver fields but the varied one, then the potential's label, then the
    # command's own keys; each solver field is that of every wave the command wrote
    assert main([*COMMANDS[command], "--out", str(tmp_path / "x")]) == 0
    manifest = read_json(tmp_path / "x.manifest.json")
    config = manifest["config"]
    solver_keys = [k for k in SOLVER_KEYS if k != VARIED.get(command)]
    assert list(config) == solver_keys + ["potential"] + OWN_KEYS[command]
    assert config["potential"] == "quartic"
    records = [read_json(Path(out)) for out in manifest["outputs"] if out.endswith(".json")]
    waves = [r["config"] for r in records if "config" in r]
    assert waves
    for wave in waves:
        assert {k: config[k] for k in solver_keys} == {k: wave[k] for k in solver_keys}


def test_check_potential_manifest_names_the_parsed_potential(tmp_path):
    assert main(["check-potential", "--potential", "power:eta=3", "--x-max", "10",
                 "--out", str(tmp_path / "cp")]) == 0
    label = "power:eta=3.0,c=1.0"
    assert read_json(tmp_path / "cp.json")["potential"] == label
    assert read_json(tmp_path / "cp.manifest.json")["config"] == {
        "potential": label, "x_max": 10.0, "samples": 1000}


@pytest.mark.parametrize("spec, message", [
    ("power:eta=1,c=1,eta=2", "repeated power potential key: eta"),
    ("power:eta=", "power potential key eta needs a number, not ''"),
])
@pytest.mark.parametrize("command", [["check-potential"], ["solve"]])
def test_a_malformed_power_spec_is_a_usage_error(tmp_path, capsys, command, spec, message):
    code = main([*command, "--potential", spec, "--out", str(tmp_path / "sub" / "run")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_oracle_nonconvergence_exit_code(tmp_path, capsys):
    # the solve behind the oracle stops at max_iters: exit 2, as solve does,
    # with the artifacts still written for diagnosis
    code = main(["oracle", "--N", "4", "--potential", "quartic", "--alpha", "0.4957",
                 "--rho", "0.9825", "--max-iters", "5", "--grid-points", "101",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == ("did not converge: stop=max_iters residual=1.281e-04 "
                                       "after 5 iterations\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "o.json", "o.manifest.json", "o.profile.csv"]


@pytest.mark.parametrize("argv, files, err", [
    # one point of two converges; a sweep used to exit 0 on a single converged point
    (["sweep", "--param", "rho", "--values", "2.0,2.6", "--potential", "exp-quadratic",
      "--alpha", "1", "--N", "41", "--max-iters", "3"],
     ["s.manifest.json", "s.rho=2.6.json", "s.rho=2.json", "s.summary.csv"],
     "rho=2.6: did not converge: stop=max_iters residual=4.740e-03 after 3 iterations\n"),
    # a ladder used to exit 2 without naming the rung that failed
    (["homoclinic", "--potential", "quartic", "--alpha", "0.5", "--rho", "2",
      "--N-seq", "24,48", "--max-iters", "2"],
     ["s.N=24.json", "s.N=24.restricted.csv", "s.N=48.json", "s.N=48.restricted.csv",
      "s.json", "s.manifest.json"],
     "".join(f"N={n}: did not converge: stop=max_iters residual=1.105e-02 "
             "after 2 iterations\n" for n in (24, 48))),
])
def test_every_unconverged_wave_of_a_command_is_named_by_its_artifact_tag(
        tmp_path, capsys, argv, files, err):
    # the end rule of solve and oracle: the artifacts are written, then exit 2
    assert main([*argv, "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == err
    assert sorted(p.name for p in tmp_path.iterdir()) == files


@pytest.mark.parametrize("argv, message", [
    (["homoclinic", "--N-seq", "24,48"], "homoclinic varies N, so --N would set no wave"),
    (["sweep", "--param", "N", "--values", "24,48"], "sweep varies N, so --N would set no wave"),
    (["sweep", "--param", "rho", "--values", "5,6"],
     "sweep varies rho, so --rho would set no wave"),
    (["sweep", "--param", "alpha", "--values", "1,2"],
     "sweep varies alpha, so --alpha would set no wave"),
])
def test_an_n_flag_that_sizes_no_wave_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                       argv, message):
    # a flag for the field a command varies sets no wave: the manifest recorded
    # "n": 7 for waves of N=24 and N=48, and "rho": 2.0 for waves at rho = 5 and 6
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    monkeypatch.setattr(dnls.solver, "solve", mock.Mock(side_effect=AssertionError("solved")))
    code = main([*argv, "--potential", "quartic", "--alpha", "0.5", "--rho", "2", "--N", "7",
                 "--out", str(tmp_path / "sub" / "run")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bounds", [["--from", "1"], ["--to", "9"], ["--step", "4"],
                                    ["--from", "1", "--to", "9", "--step", "4"]])
def test_a_sweep_takes_its_grid_from_one_source(tmp_path, capsys, monkeypatch, bounds):
    # the range was ignored beside --values, and the sweep exited 0
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    code = main(["sweep", "--param", "rho", "--values", "2,3", *bounds, "--potential",
                 "quartic", "--alpha", "1", "--N", "9", "--out", str(tmp_path / "sub" / "s")])
    assert code == 1
    assert capsys.readouterr().err == ("error: sweep takes its grid from --values or from "
                                       "--from, --to and --step, not both\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--param", "rho", "--values", "2, abc"], "--values takes numbers, not 'abc'"),
    (["homoclinic", "--N-seq", "9,x"], "--N-seq takes numbers, not 'x'"),
])
def test_a_grid_entry_that_is_not_a_number_names_its_flag(tmp_path, capsys, monkeypatch,
                                                          argv, message):
    # both printed float's bare "could not convert string to float: 'abc'"
    monkeypatch.setattr(dnls.cli, "solve", mock.Mock(side_effect=AssertionError("solved")))
    monkeypatch.setattr(dnls.solver, "solve", mock.Mock(side_effect=AssertionError("solved")))
    code = main([*argv, "--potential", "quartic", "--alpha", "0.3",
                 "--out", str(tmp_path / "sub" / "s")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_every_readme_cli_example_runs(tmp_path, monkeypatch, tool):
    commands = tool.readme_commands(Path(__file__).resolve().parents[1])
    assert sorted(argv[0] for argv in commands) == sorted(COMMANDS)
    for k, argv in enumerate(commands):
        (tmp_path / str(k)).mkdir()
        monkeypatch.chdir(tmp_path / str(k))
        assert main(argv) == 0, argv
        manifest = read_json(Path(build_parser().parse_args(argv).out + ".manifest.json"))
        assert manifest["outputs"], argv
        assert all(Path(out).is_file() for out in manifest["outputs"]), argv


@pytest.mark.parametrize("argv", [COMMANDS["homoclinic"],
                                  ["sweep", "--param", "N", "--values", "9,17",
                                   "--potential", "quartic", "--alpha", "0.3", "--rho", "2"]])
def test_a_config_file_n_stays_the_shared_base(tmp_path, argv):
    # only the flag is refused: a config file's n is the base of every command, and
    # the manifest, which records the sizes the command ran, does not name it
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"n": 7}')
    assert main([*argv, "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 0
    assert "n" not in read_json(tmp_path / "x.manifest.json")["config"]
    assert read_json(tmp_path / "x.N=17.json")["config"]["n"] == 17


def test_evolve_overflowing_step_is_a_blow_up(tmp_path, capsys):
    # one step of dt = 1e3 overflows to nan; that is a blow-up, not bad input
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["evolve", "--potential", "quartic", "--alpha", "1", "--rho", "2",
                     "--N", "5", "--dt", "1e3", "--t-end", "1e3",
                     "--out", str(tmp_path / "d" / "x")])
    assert code == 2
    assert capsys.readouterr().err == "error: amplitude exceeded 1e+06 at t=1000\n"
    assert caught == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, message", [
    ('{"tol_residual": 0}', "tol_residual must be positive"),
    ('{"max_iters": 0}', "max_iters must be positive"),
])
def test_config_file_out_of_range_is_a_usage_error(tmp_path, capsys, content, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(content)
    code = main(["solve", "--potential", "quartic", "--alpha", "1", "--rho", "2",
                 "--N", "9", "--config", str(cfg_file), "--out", str(tmp_path / "sub" / "x")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def built_commands(argv):
    """The commands whose subparsers ``build_parser(argv)`` builds."""
    parser = build_parser(argv)
    return list(next(a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("argv", [[], ["swe"], ["--potential", "quartic", "solve"],
                                  ["--help"], ["-h"], ["--version"], ["--", "solve"]])
def test_an_argv_that_does_not_start_with_a_command_builds_every_subparser(argv):
    assert built_commands(argv) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_only_its_own_subparser(command):
    assert built_commands(COMMANDS[command]) == [command]
    assert built_commands([command, "--help"]) == [command]


def test_every_parse_prints_and_exits_as_with_every_subparser(tool, tmp_path, monkeypatch,
                                                              capsys):
    # help, version and usage errors: the one-subparser parser answers as the full one
    monkeypatch.chdir(tmp_path)
    full = build_parser

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    for argv in tool.PARSES:
        answer = run(argv)
        with mock.patch.object(dnls.cli, "build_parser", lambda argv=(): full()):
            assert run(argv) == answer, argv


def test_every_readme_command_parses_as_with_every_subparser(tool):
    commands = tool.readme_commands(Path(__file__).resolve().parents[1])
    for argv in [*commands, *COMMANDS.values()]:
        assert build_parser(argv).parse_args(argv) == build_parser().parse_args(argv), argv
        assert build_parser(argv).format_usage() == build_parser().format_usage(), argv
