"""Tests for the experiment driver: exit codes, artifacts, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ietlab.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(out, name):
    return json.loads((out / name).read_text())


def test_class_command_writes_full_diagram(tmp_path):
    code, out = run(tmp_path, "class", "--perm", "4,3,2,1")
    assert code == 0
    artifact = read_json(out, "class.json")
    assert artifact["results"]["size"] == 7
    assert len(artifact["results"]["permutations"]) == 7
    assert all(len(e) == 3 for e in artifact["results"]["edges"])
    assert artifact["config_hash"]
    assert artifact["versions"]["ietlab"]


def test_class_command_two_letters(tmp_path):
    code, out = run(tmp_path, "class", "--perm", "2,1")
    assert code == 0
    assert read_json(out, "class.json")["results"]["size"] == 1


def test_class_rejects_reducible(tmp_path):
    code, out = run(tmp_path, "class", "--perm", "1,2")
    assert code == 2
    assert json.loads((out / "error.json").read_text())["error"] == "config"


def test_missing_perm_is_config_error(tmp_path):
    code, _ = run(tmp_path, "class")
    assert code == 2
    # a name that is no command, such as the retired metrics-selftest, is
    # refused by argparse
    with pytest.raises(SystemExit) as refused:
        run(tmp_path, "metrics-selftest")
    assert refused.value.code == 2


def test_lyapunov_torus_normalized_top(tmp_path):
    code, out = run(tmp_path, "lyapunov", "--perm", "2,1", "--seed", "5",
                    "--steps", "4000")
    assert code == 0
    exps = read_json(out, "lyapunov.json")["results"]["exponents"]
    assert abs(exps[0] - 1.0) <= 0.02
    assert abs(exps[0] + exps[-1]) <= 0.03  # symplectic pairing


def test_lyapunov_missing_seed(tmp_path):
    code, _ = run(tmp_path, "lyapunov", "--perm", "2,1", "--steps", "100")
    assert code == 2


def test_lyapunov_determinism(tmp_path):
    args = ("lyapunov", "--perm", "4,3,2,1", "--seed", "3",
            "--steps", "1500")
    code1, out1 = run(tmp_path / "a", *args)
    code2, out2 = run(tmp_path / "b", *args)
    assert code1 == code2 == 0
    assert (out1 / "lyapunov.json").read_bytes() == \
        (out2 / "lyapunov.json").read_bytes()


def test_deviation_torus_bounded_sums(tmp_path):
    # genus one has no second expanding exponent: sup |S_N| stays bounded
    code, out = run(tmp_path, "deviation", "--perm", "2,1", "--seed", "9",
                    "--steps", "20000")
    assert code == 0
    artifact = read_json(out, "deviation.json")
    assert abs(artifact["results"]["slope"]) <= 0.15
    lines = (out / "deviation.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "n_steps"


def test_cocycle_artifact_fields(tmp_path):
    code, out = run(tmp_path, "cocycle", "--perm", "4,3,2,1", "--seed", "7",
                    "--steps", "400")
    assert code == 0
    results = read_json(out, "cocycle.json")["results"]
    assert 0.0 < results["scaling_exponent_top"] < 1.0
    assert len(results["second_direction"]) == 4
    assert results["arc_values"][0]["interpolation_bound"] >= 0.0


@pytest.mark.parametrize("command,seed,field", [
    ("deviation", 1, "sup_abs_sums"), ("deviation", 4, "sup_abs_sums"),
    ("cocycle", 8, "arc_values"), ("cocycle", 14, "arc_values"),
    ("cocycle", 1, "second_direction"), ("cocycle", 8, "second_direction"),
    ("cocycle", 14, "scaling_exponent_lower"), ("limit", 1, "distances"),
    ("lyapunov", 1, "exponents"), ("lyapunov", 1, "stderr")])
def test_orbit_sums_equal_benchmark_reference(tmp_path, command, seed, field):
    # float orbit sums keep the scalar loop's order of additions; on
    # cocycle seeds 8 and 14 a reassociated sum misses by up to 2e-9.  The
    # second direction and the lower exponent pin the bits of the cocycle's
    # QR sweeps and step inverses.  The limit distances pin the whole limit
    # pipeline at its defaults: the level-0 frames, the second-component
    # observable, the batched arc walk and the Levy-Prohorov matching.  The
    # spectrum pins the forward sweep over the Zorich group products
    reference = json.loads((Path(__file__).resolve().parents[1] /
                            "perfbench" / "reference.json").read_text())
    argv = [command, "--perm", "4,3,2,1", "--seed", str(seed)]
    code, out = run(tmp_path, *argv)
    assert code == 0
    got = read_json(out, f"{command}.json")["results"][field]
    assert got == reference[" ".join(argv)][field]


def test_limit_artifacts_and_determinism(tmp_path):
    args = ("limit", "--perm", "4,3,2,1", "--seed", "11",
            "--samples", "200", "--s-grid", "2")
    code1, out1 = run(tmp_path / "a", *args)
    code2, out2 = run(tmp_path / "b", *args)
    assert code1 == code2 == 0
    assert (out1 / "limit.json").read_bytes() == \
        (out2 / "limit.json").read_bytes()
    assert (out1 / "limit.csv").read_bytes() == \
        (out2 / "limit.csv").read_bytes()
    artifact = read_json(out1, "limit.json")
    assert artifact["results"]["distances"]
    header = (out1 / "limit.csv").read_text().splitlines()[1]
    assert header.split(",")[:2] == ["s", "distance"]


def test_limit_negative_s_is_numerical_failure(tmp_path):
    code, out = run(tmp_path, "limit", "--perm", "4,3,2,1", "--seed", "2",
                    "--samples", "200", "--s-grid=-1,2")
    assert code == 3
    assert (out / "error.json").exists()


@pytest.mark.parametrize("s_grid", ["inf", "8,nan"])
def test_limit_nonfinite_s_is_refused_before_the_path(tmp_path, monkeypatch,
                                                      s_grid):
    # an infinite stretch time once grew the induction path to 10^6 steps
    # before failing, and a nan one failed later with an unrelated message
    def no_path(*args):
        raise AssertionError("an induction path was built")

    monkeypatch.setattr("ietlab.limitlab._path_reaching_tau", no_path)
    code, out = run(tmp_path, "limit", "--perm", "4,3,2,1", "--seed", "1",
                    f"--s-grid={s_grid}")
    assert code == 3
    assert read_json(out, "error.json") == {
        "error": "DomainError",
        "message": "stretch times must be finite and nonnegative"}


def test_config_file_and_json_override(tmp_path):
    conf = tmp_path / "lab.conf"
    conf.write_text("perm=2,1\nseed=5\nsteps=9999\n# comment\n")
    code, out = run(tmp_path, "lyapunov", "--config", str(conf),
                    "--set", '{"steps": 4000}')
    assert code == 0
    assert read_json(out, "lyapunov.json")["config"]["steps"] == 4000


def test_bad_json_override(tmp_path):
    code, _ = run(tmp_path, "lyapunov", "--perm", "2,1", "--seed", "1",
                  "--set", "{not json")
    assert code == 2


def test_unknown_config_keys_are_config_errors(tmp_path):
    # a key that no command reads (a removed knob, a misspelling) must not
    # be silently ignored
    code, out = run(tmp_path / "a", "lyapunov", "--perm", "2,1", "--seed",
                    "1", "--set", '{"depth": 3}')
    assert code == 2
    assert "depth" in read_json(out, "error.json")["message"]
    conf = tmp_path / "lab.conf"
    conf.write_text("perm=4,3,2,1\nseed=1\nsample=100\n")
    code, out = run(tmp_path / "b", "limit", "--config", str(conf))
    assert code == 2
    assert "sample" in read_json(out, "error.json")["message"]


PERM = ("--perm", "4,3,2,1")


@pytest.mark.parametrize("argv", [
    ("limit", *PERM, "--samples", "0"), ("limit", *PERM, "--samples", "-5"),
    ("cocycle", *PERM, "--set", '{"window": 0}'),
    ("cocycle", *PERM, "--set", '{"window": -80}'),
    ("limit", *PERM, "--set", '{"s_grid": 5}'),
    ("limit", *PERM, "--set", '{"s_grid": null}'),
    ("limit", *PERM, "--set", '{"s_grid": ["x"]}'),
    ("limit", *PERM, "--s-grid", "x"),
    ("limit", "--set", '{"perm": ["a"]}'),
    ("limit", *PERM, "--set", '{"samples": 2.5}'),
    ("limit", *PERM, "--set", '{"tau_points": 2.7}'),
    ("limit", *PERM, "--set", '{"tau_points": 1}'),
    ("lyapunov", "--perm", "2,1", "--steps", "0"),
    ("lyapunov", *PERM, "--steps", "-3"),
    ("cocycle", *PERM, "--steps", "0"),
    ("cocycle", *PERM, "--set", '{"steps": -3}')])
def test_nonpositive_samples_and_window_are_config_errors(tmp_path, argv):
    # zero must not fall back to the default and reach the artifact, a
    # fraction must not be truncated, and a malformed value must not crash
    code, out = run(tmp_path, *argv, "--seed", "1")
    assert code == 2
    assert read_json(out, "error.json")["error"] == "config"


@pytest.mark.parametrize("argv,error", [
    (("cocycle", *PERM, "--steps", "3"), "InsufficientRange"),
    (("deviation", *PERM, "--steps", "100"), "IetLabError"),
    (("deviation", *PERM, "--steps", "101"), "IetLabError"),
    (("deviation", *PERM, "--steps", "999"), "IetLabError"),
    (("cocycle", *PERM, "--steps", "1"), "InsufficientRange")])
def test_degenerate_line_fits_are_refused(tmp_path, argv, error):
    # three ladder levels with one return time (cocycle's lower exponent),
    # ten checkpoints that all round to 100, or checkpoints spanning less
    # than a decade (deviation's slope) leave a line through one abscissa
    # or too short a range: refuse it rather than write a slope.  A
    # one-step path sweeps its second direction over that one step and
    # reaches the same refusal
    code, out = run(tmp_path, *argv, "--seed", "1")
    assert code == 3
    assert read_json(out, "error.json")["error"] == error
    assert not (out / f"{argv[0]}.json").exists()


@pytest.mark.parametrize("override", [
    '{"seed": true}', '{"steps": true}', '{"samples": true}',
    '{"window": true}', '{"tau_points": true}', '{"s_grid": [true]}'])
def test_json_booleans_are_not_numbers(tmp_path, override):
    # JSON true must not be read as 1: not as a seed, a count or a grid value
    code, out = run(tmp_path, "class", *PERM, "--set", override)
    assert code == 2
    error = read_json(out, "error.json")
    assert error["error"] == "config"
    assert "boolean" in error["message"]


_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

import ietlab.cli as cli
assert not scipy_modules(), scipy_modules()[:5]
for argv in (["class", "--perm", "4,3,2,1"],
             ["lyapunov", "--perm", "4,3,2,1", "--seed", "1",
              "--steps", "300"],
             ["deviation", "--perm", "4,3,2,1", "--seed", "1",
              "--steps", "1000"],
             ["cocycle", "--perm", "4,3,2,1", "--seed", "1"],
             ["limit", "--perm", "4,3,2,1", "--seed", "11",
              "--samples", "200", "--s-grid", "2"]):
    assert cli.main([*argv, "--out", sys.argv[2]]) == 0, argv
assert not scipy_modules(), scipy_modules()[:5]

from ietlab.limitlab import lp_distance, lp_distance_grid
p = [[0.0, 0.0], [0.0, 1.0]]
q = [[0.0, 0.25], [0.0, 1.0]]
assert lp_distance_grid(p, q) == 0.25
assert lp_distance((0.0, 0.1, 2.0), (0.05, 3.0)) > 0.0
assert not scipy_modules(), scipy_modules()[:5]
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # importing the CLI, running every command and computing both
    # Levy-Prohorov distances must not load scipy, a test dependency only
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(src), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
