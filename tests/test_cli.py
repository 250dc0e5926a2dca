"""Command-line interface: exit codes, report documents, and determinism.

These run main() in-process; one subprocess-level determinism check lives
in the acceptance suite.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import axdesign
from axdesign.cli import main
from axdesign.propagation import _CHUNK_ROWS as C

from conftest import FIXTURES, fixture_path

TANK = str(fixture_path("tank.json"))
TWO_KNOB = str(fixture_path("faucet_two_knob.json"))
MIXER_TAP = str(fixture_path("faucet_mixer_tap.json"))
CASCADE = str(fixture_path("machining_cascade.json"))
NONSQUARE = str(fixture_path("nonsquare.json"))
DISJOINT = str(fixture_path("disjoint.json"))
SCHEDULING = str(fixture_path("scheduling.json"))
TURBULENT = str(fixture_path("tank_turbulent.json"))


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# classify


def test_classify_uncoupled_exits_zero(capsys):
    code, doc = run_json(capsys, "classify", TANK)
    assert code == 0
    assert doc["classification"]["class"] == "uncoupled"
    assert doc["classification"]["sequence"] == [
        ["level", "fill_valve_setpoint"],
        ["temperature", "heater_setpoint"],
        ["mix_duration", "mixer_timer"],
    ]


def test_classify_decoupled_exits_zero(capsys):
    code, doc = run_json(capsys, "classify", CASCADE)
    assert code == 0
    assert doc["classification"]["class"] == "decoupled"
    assert [fr for fr, _ in doc["classification"]["sequence"]] == [
        "station1_offset", "station2_offset", "station3_offset"]


def test_classify_coupled_exits_two(capsys):
    code, doc = run_json(capsys, "classify", TWO_KNOB)
    assert code == 2
    assert doc["classification"]["class"] == "coupled"
    assert len(doc["classification"]["blocks"]) == 1


def test_classify_degenerate_exits_three(capsys):
    code, doc = run_json(capsys, "classify", NONSQUARE)
    assert code == 3
    assert doc["classification"]["reason"] == "non_square"


def test_classify_epsilon_override(capsys, tmp_path):
    spec = {
        "frs": [
            {"id": "a", "nominal": 0, "tol_minus": 1, "tol_plus": 1},
            {"id": "b", "nominal": 0, "tol_minus": 1, "tol_plus": 1},
        ],
        "dps": [{"id": "x", "nominal": 0}, {"id": "y", "nominal": 0}],
        "matrix": [[1.0, 1e-9], [0.0, 1.0]],
    }
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "classify", str(path))
    assert code == 0 and doc["classification"]["class"] == "decoupled"
    code, doc = run_json(capsys, "classify", str(path), "--epsilon", "1e-6")
    assert code == 0 and doc["classification"]["class"] == "uncoupled"


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
def test_classify_rejects_a_non_finite_or_negative_epsilon(capsys, epsilon):
    code, out, err = run(capsys, "classify", TANK, "--epsilon", epsilon)
    assert code == 1 and out == ""
    assert err == "error: --epsilon must be a finite number >= 0\n"


def test_classify_without_matrix_exits_one(capsys):
    code, out, err = run(capsys, "classify", TURBULENT)
    assert code == 1
    assert out == ""
    assert "no design matrix" in err


def test_classify_text_format(capsys):
    code, out, _ = run(capsys, "classify", TANK, "--format", "text")
    assert code == 0
    assert "classification: uncoupled" in out


def test_classify_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", TANK, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["command"] == "classify"


def test_classify_and_info_on_a_1500_pair_ring(capsys, tmp_path):
    # FR i depends on DPs i and i + 1 (mod n): every pair lies on one cycle
    # of n pairs, far longer than Python's default recursion limit.
    n = 1500
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = matrix[i][(i + 1) % n] = 1
    spec = {
        "frs": [{"id": f"fr{i}", "nominal": 0, "tol_minus": 1, "tol_plus": 1}
                for i in range(n)],
        "dps": [{"id": f"dp{i}", "nominal": 0} for i in range(n)],
        "matrix": matrix,
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "classify", str(path))
    assert code == 2
    blocks = doc["classification"]["blocks"]
    assert len(blocks) == 1
    assert sorted(int(fr[2:]) for fr, _ in blocks[0]) == list(range(n))
    code, doc = run_json(capsys, "info", str(path), "--method", "joint",
                         "--samples", "10")
    assert code == 0
    assert doc["classification"]["class"] == "coupled"
    assert doc["info"]["method"] == "joint"


# ---------------------------------------------------------------------------
# info


def test_info_analytic_on_independent_pdfs(capsys):
    # Two timing FRs share one budget DP: the 2x1 bracket has no square
    # structure, so the analytic route runs on the per-FR pdfs and says so.
    code, doc = run_json(capsys, "info", SCHEDULING)
    assert code == 0
    info = doc["info"]
    assert info["method"] == "analytic"
    assert info["mc"] is None
    assert doc["classification"]["class"] == "degenerate"
    assert any("degenerate" in w for w in doc["warnings"])
    # oracle: mpmath, band probabilities of the two normal pdfs
    # (2e-7-wide band at sigma=5e-7; 1e-6 band at sigma=2e-6) sum to
    # -log2 of 0.15851941887820606 plus -log2 of 0.19741265136584746.
    assert info["system_bits"] == pytest.approx(4.9979821570163665, rel=1e-10)


def test_info_without_matrix_reports_null_classification(capsys, tmp_path):
    spec = {
        "frs": [{"id": "f", "nominal": 0, "tol_minus": 1, "tol_plus": 1}],
        "dps": [],
        "system_pdfs": {"f": {"kind": "normal", "mu": 0, "sigma": 1}},
    }
    path = tmp_path / "pdfonly.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "info", str(path))
    assert code == 0
    assert doc["classification"] is None
    assert doc["info"]["method"] == "analytic"
    assert any("no design matrix" in w for w in doc["warnings"])


def test_info_auto_uses_analytic_for_uncoupled_matrix(capsys):
    code, doc = run_json(capsys, "info", TANK)
    assert code == 0
    assert doc["info"]["method"] == "analytic"
    assert doc["classification"]["class"] == "uncoupled"
    assert doc["warnings"] == []
    # Every system pdf sits strictly inside its design range: zero bits.
    assert doc["info"]["system_bits"] == 0.0
    assert doc["info"]["system_probability"] == 1.0


def test_info_analytic_reports_infinite_bits_as_strings(capsys):
    code, doc = run_json(capsys, "info", DISJOINT)
    assert code == 0
    assert doc["info"]["system_bits"] == "inf"
    assert doc["info"]["per_fr"][0]["bits"] == "inf"
    assert doc["info"]["per_fr"][0]["probability"] == 0.0


def test_info_auto_picks_joint_for_coupled_matrix(capsys):
    code, doc = run_json(capsys, "info", TWO_KNOB,
                         "--seed", "1", "--samples", "2000")
    assert code == 0
    info = doc["info"]
    assert info["method"] == "joint"
    assert info["mc"]["seed"] == 1
    assert info["mc"]["n_samples"] == 2000
    assert info["order"] is None
    assert 0.4 < info["system_probability"] < 0.6


def test_info_auto_picks_chain_for_decoupled_matrix(capsys):
    code, doc = run_json(capsys, "info", CASCADE,
                         "--seed", "2", "--samples", "5000")
    assert code == 0
    info = doc["info"]
    assert info["method"] == "chain"
    assert info["order"] == ["station1_offset", "station2_offset",
                             "station3_offset"]
    product = 1.0
    for row in info["per_fr"]:
        product *= row["probability"]
    assert product == pytest.approx(info["system_probability"], rel=1e-9)


def test_info_explicit_analytic_on_coupled_design_exits_four(capsys):
    code, out, err = run(capsys, "info", TWO_KNOB, "--method", "analytic")
    assert code == 4
    assert out == ""
    assert "coupled" in err


def test_info_explicit_chain_on_coupled_design_warns_but_runs(capsys):
    code, doc = run_json(capsys, "info", TWO_KNOB, "--method", "chain",
                         "--samples", "2000")
    assert code == 0
    assert doc["info"]["method"] == "chain"
    assert any("coupled design" in w for w in doc["warnings"])


def test_info_analytic_without_pdfs_exits_four(capsys):
    code, out, err = run(capsys, "info", TURBULENT, "--method", "analytic")
    assert code == 4
    assert "missing" in err


FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json"))
# The fixtures whose FRs lack system pdfs or are coupled or decoupled.
NOT_ANALYTIC = {"faucet_two_knob", "machining_cascade", "nonsquare", "tank_turbulent"}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_info_auto_prints_the_report_of_the_route_it_names(capsys, name):
    path = str(fixture_path(f"{name}.json"))
    flags = ("info", path, "--seed", "3", "--samples", "500")
    code, auto, err = run(capsys, *flags)
    assert (code, err) == (0, "")
    method = json.loads(auto)["info"]["method"]
    assert run(capsys, *flags, "--method", method) == (0, auto, "")
    code, out, err = run(capsys, *flags, "--method", "analytic")
    if name in NOT_ANALYTIC:
        assert (code, out) == (4, "") and err.startswith("error: analytic route ")
    else:
        assert (code, err) == (0, "")


def test_info_joint_on_scenario_spec(capsys):
    code, doc = run_json(capsys, "info", TURBULENT,
                         "--samples", "300", "--seed", "5")
    assert code == 0
    assert doc["info"]["method"] == "joint"
    assert doc["classification"] is None
    assert doc["info"]["mc"]["n_samples"] == 300


def test_info_deterministic_model_warning(capsys, tmp_path):
    spec = {
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0.5, "tol_plus": 0.5}],
        "dps": [{"id": "d", "nominal": 1}],
        "matrix": [[1.0]],
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "info", str(path), "--method", "joint",
                         "--samples", "10")
    assert code == 0
    assert any("deterministic" in w for w in doc["warnings"])
    assert doc["info"]["system_probability"] == 1.0


def test_info_rejects_bad_seed_and_samples(capsys):
    code, _, err = run(capsys, "info", TANK, "--seed", "-3")
    assert code == 1 and "--seed" in err
    code, _, err = run(capsys, "info", TANK, "--samples", "0")
    assert code == 1 and "--samples" in err


OVERFLOW_SPEC = {
    "frs": [{"id": "thrust", "nominal": 0, "tol_minus": 1, "tol_plus": 1},
            {"id": "trim", "nominal": 0, "tol_minus": 1, "tol_plus": 1}],
    "dps": [{"id": "x", "nominal": 1.2e300,
             "uncertainty": {"kind": "uniform", "lo": 1e300, "hi": 1.5e300}},
            {"id": "y", "nominal": 0,
             "uncertainty": {"kind": "normal", "mu": 0, "sigma": 1}}],
    "matrix": [[1e10, 0], [1, 1]],
}


@pytest.mark.parametrize("method", ["auto", "joint", "chain"])
def test_info_samples_that_overflow_exit_four_naming_the_fr(capsys, tmp_path, method):
    # Every entry is finite, but 1e10 * 1.2e300 is not a float64.
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_SPEC))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "info", str(path), "--method", method,
                             "--samples", "20000")
    assert code == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "FR thrust" in err and "overflow" in err


# Four decoupled FRs over one DP of each pdf family, with a noise row of
# each family: multi-chunk runs of it are split into parts on many CPUs.
FAMILIES_SPEC = {
    "frs": [{"id": f"f{i}", "nominal": 0, "tol_minus": 1.5, "tol_plus": 1.0}
            for i in range(4)],
    "dps": [
        {"id": "n", "nominal": 0, "uncertainty": {"kind": "normal", "mu": 0, "sigma": 1}},
        {"id": "u", "nominal": 0, "uncertainty": {"kind": "uniform", "lo": -1, "hi": 1}},
        {"id": "t", "nominal": 0,
         "uncertainty": {"kind": "triangular", "lo": -1, "mode": 0.5, "hi": 1}},
        {"id": "e", "nominal": 0,
         "uncertainty": {"kind": "empirical", "samples": [-1, -0.25, 0, 0.5, 1.5]}},
    ],
    "matrix": [[1, 0, 0, 0], [0.5, 1, 0, 0], [0.25, -0.5, 1, 0], [0.1, 0.2, -0.3, 1]],
    "noise_pdfs": {
        "f0": {"kind": "uniform", "lo": -0.2, "hi": 0.2},
        "f1": {"kind": "normal", "mu": 0, "sigma": 0.3},
        "f2": {"kind": "triangular", "lo": -0.3, "mode": 0, "hi": 0.1},
        "f3": {"kind": "empirical", "samples": [-0.1, 0, 0.2]},
    },
}


@pytest.mark.parametrize("n", [C + 1, 3 * C + 1, 100_000])
@pytest.mark.parametrize("method", ["chain", "joint"])
def test_info_reports_do_not_depend_on_the_cpu_count(capsys, tmp_path, set_cpus, method, n):
    path = tmp_path / "families.json"
    path.write_text(json.dumps(FAMILIES_SPEC))
    argv = ("info", str(path), "--method", method, "--seed", "3", "--samples", str(n))
    set_cpus(1)
    code, serial, err = run(capsys, *argv)
    assert code == 0 and err == ""
    probabilities = [fr["probability"] for fr in json.loads(serial)["info"]["per_fr"]]
    assert all(0.0 < p < 1.0 for p in probabilities)
    for cpus in sorted({2, 3, axdesign.info._cpu_count()}):
        set_cpus(cpus)
        assert run(capsys, *argv) == (0, serial, ""), cpus


def test_an_overflowing_run_fails_alike_on_any_cpu_count(capsys, tmp_path, set_cpus):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_SPEC))
    argv = ("info", str(path), "--samples", str(3 * C + 1))
    set_cpus(1)
    serial = run(capsys, *argv)
    assert serial[0] == 4 and "FR thrust" in serial[2]
    for cpus in sorted({2, 3, axdesign.info._cpu_count()}):
        set_cpus(cpus)
        assert run(capsys, *argv) == serial, cpus


def test_one_chunk_and_scenario_runs_start_no_thread(capsys, monkeypatch, set_cpus):
    # Threads would only add latency to these runs.
    set_cpus(4)
    scorers = set()
    tally = axdesign.info._tally

    def spy(*args):
        scorers.add(threading.get_ident())
        return tally(*args)

    monkeypatch.setattr(axdesign.info, "_tally", spy)
    before = threading.active_count()
    assert main(["info", CASCADE, "--method", "chain", "--samples", str(C)]) == 0
    assert main(["info", TANK, "--method", "joint", "--samples", str(C + 1)]) == 0
    assert scorers == {threading.get_ident()}
    assert threading.active_count() == before
    # The control: a two-chunk run is scored on a second thread.
    assert main(["info", CASCADE, "--method", "chain", "--samples", str(C + 1)]) == 0
    assert len(scorers) == 2
    capsys.readouterr()


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("method", ["joint", "chain"])
def test_info_memory_does_not_grow_with_samples(method):
    # 2e7 samples of three FRs: the whole tables would need several GiB,
    # chunks of rows fit in the 1 GiB address-space limit of the child.
    # One BLAS thread, so the limit does not depend on the core count
    # (OpenBLAS reserves buffers per thread).
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "axdesign", "info", CASCADE, "--method", method,
         "--samples", "20000000"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["info"]["mc"]["n_samples"] == 20_000_000


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_report(capsys, tmp_path):
    csv_path = tmp_path / "cycles.csv"
    code, out, _ = run(capsys, "simulate", TANK, "--cycles", "40",
                       "--seed", "9", "--out", str(csv_path))
    assert code == 0
    doc = json.loads(out)  # report still goes to stdout
    assert doc["command"] == "simulate"
    assert doc["cycles"] == 40
    assert doc["seed"] == 9
    assert doc["csv"] == str(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "level,temperature,mix_duration"
    assert len(lines) == 41
    assert doc["info"]["mc"]["n_samples"] == 40


def test_simulate_csv_bytes_are_pinned(capsys, tmp_path):
    # sha256 of the CSV an earlier build wrote: a change to the simulator,
    # the draws or the CSV writer that moves any byte fails here.
    csv_path = tmp_path / "cycles.csv"
    code, _, _ = run(capsys, "simulate", TURBULENT, "--cycles", "40",
                     "--seed", "9", "--out", str(csv_path))
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == \
        "9cf74abbe381dbadb39a981419fee7aaf42db3987864c3c8de7dc0c9d36228db"


def test_simulate_without_scenario_exits_one(capsys):
    code, _, err = run(capsys, "simulate", SCHEDULING)
    assert code == 1
    assert "no scenario" in err


def test_simulate_divergence_exits_five(capsys, tmp_path):
    spec = {
        "frs": [
            {"id": "level", "nominal": 7, "tol_minus": 0.05, "tol_plus": 0.05},
            {"id": "temperature", "nominal": 65, "tol_minus": 0.5, "tol_plus": 0.5},
            {"id": "mix_duration", "nominal": 120, "tol_minus": 2, "tol_plus": 2},
        ],
        "dps": [],
        "scenario": {
            "sensor_noise": {"temp": {"kind": "normal", "mu": -1e6, "sigma": 1}},
            "cycles": 3,
        },
    }
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "simulate", str(path))
    assert code == 5
    assert "diverged" in err
    assert "cycle 0" in err


@pytest.mark.parametrize("command", [
    ("simulate", "--cycles", "2"),
    ("simulate", "--cycles", "5"),
    ("info", "--method", "joint", "--samples", "2"),
])
def test_runaway_tank_diverges_at_its_first_non_finite_cycle(capsys, tmp_path, command):
    # Agitation heat of 1e308 degC/s overflows the temperature carried out of
    # cycle 0, so cycle 1 records an infinite temperature.
    spec = json.loads(Path(TANK).read_text())
    spec["scenario"]["coupling_gains"] = {"mixer_to_temp": 1e308}
    path = tmp_path / "runaway.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 5
    assert out == ""
    assert err.startswith("error: simulation diverged at cycle 1: recorded level, "
                          "temperature and duration (")
    assert err.endswith(", inf, 119.921) are not all finite\n")
    assert err.count("\n") == 1


def _tank_with_timestep(tmp_path, timestep):
    spec = json.loads(Path(TANK).read_text())
    spec["scenario"]["timestep"] = timestep
    path = tmp_path / "timestep.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("command", [
    ("simulate", "--cycles", "2"),
    ("info", "--method", "joint", "--samples", "2"),
])
def test_tiny_timestep_runs_in_bounded_memory(capsys, tmp_path, command):
    # At 1e-7 s per step a fill phase needs ~1.2e9 sensor readings; the
    # search draws only the readings that can cross, a slice at a time.
    path = _tank_with_timestep(tmp_path, 1e-7)
    code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 0
    assert err == ""
    info = json.loads(out)["info"]
    assert info["mc"]["n_samples"] == 2
    assert [fr["probability"] for fr in info["per_fr"]] == [1, 1, 1]


def test_timestep_past_the_search_size_limit_exits_five(capsys, tmp_path):
    # A subnormal timestep makes a phase need infinitely many readings.
    path = _tank_with_timestep(tmp_path, 1e-320)
    code, out, err = run(capsys, "simulate", path, "--cycles", "1")
    assert code == 5
    assert out == ""
    assert err.startswith("error: simulation diverged at cycle 0: drain level needs more than")
    assert "size limit" in err
    assert "Traceback" not in err


def test_simulate_rejects_bad_cycle_count(capsys):
    code, _, err = run(capsys, "simulate", TANK, "--cycles", "0")
    assert code == 1
    assert "--cycles" in err


@pytest.mark.parametrize("entry", ["simulate --cycles", "scenario cycles", "info --samples"])
def test_cycle_counts_past_the_cap_exit_one_without_a_traceback(tmp_path, entry):
    # 10**12 cycles would need a 24 TB table. The child runs under a 1 GiB
    # address-space limit, so an attempt to allocate fails at once.
    spec = json.loads(Path(TURBULENT).read_text())
    argv = {"simulate --cycles": ["simulate", TURBULENT, "--cycles", str(10**12)],
            "scenario cycles": ["simulate", str(tmp_path / "huge.json")],
            "info --samples": ["info", TURBULENT, "--samples", str(10**12)]}[entry]
    spec["scenario"]["cycles"] = 10**12
    (tmp_path / "huge.json").write_text(json.dumps(spec))
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "axdesign", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
        preexec_fn=_limit_address_space)
    assert "Traceback" not in result.stderr
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "10000000" in result.stderr


def test_scenario_with_two_frs_exits_one(capsys, tmp_path):
    spec = {
        "frs": [
            {"id": "level", "nominal": 7, "tol_minus": 0.05, "tol_plus": 0.05},
            {"id": "temperature", "nominal": 65, "tol_minus": 0.5, "tol_plus": 0.5},
        ],
        "dps": [],
        "scenario": {"cycles": 3},
    }
    path = tmp_path / "two_frs.json"
    path.write_text(json.dumps(spec))
    for argv in (["info", str(path)], ["simulate", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "exactly 3 FRs" in err


@pytest.mark.parametrize("spec", [
    {"frs": [], "dps": []},
    {"frs": [{"id": "f", "nominal": 1, "tol_minus": 0.1, "tol_plus": 0.1}],
     "dps": [], "matrix": [[]]},
])
def test_empty_specs_exit_one_without_a_traceback(capsys, tmp_path, spec):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(spec))
    for command in ("classify", "info", "validate"):
        code, out, err = run(capsys, command, str(path))
        assert code == 1, command
        assert out == ""
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_clean_spec(capsys):
    code, doc = run_json(capsys, "validate", TANK)
    assert code == 0
    assert doc["valid"] is True
    assert doc["issues"] == []


def test_validate_reports_issues_and_exits_one(capsys, tmp_path):
    spec = {
        "frs": [{"id": "f", "nominal": 1, "tol_minus": 0, "tol_plus": 0}],
        "dps": [],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "validate", str(path))
    assert code == 1
    assert doc["valid"] is False
    assert any("zero-width" in issue for issue in doc["issues"])
    assert any("no system range source" in issue for issue in doc["issues"])


# ---------------------------------------------------------------------------
# Error handling shared across commands


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/path.json")
    assert code == 1
    assert "cannot read spec file" in err


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"frs": [')
    code, _, err = run(capsys, "classify", str(path))
    assert code == 1
    assert "syntax error" in err


# Files that json.loads or the UTF-8 read cannot turn into a document.
UNDECODABLE = {
    "deep-arrays": b'{"frs": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",
    "5000-digit-int": b'{"frs": [{"id": "f", "nominal": ' + b"9" * 5000
                      + b', "tol_minus": 0, "tol_plus": 0}], "dps": []}',
    "not-utf-8": b'{"frs": [{"id": "f\xff", "nominal": 1, "tol_minus": 0, "tol_plus": 0}],'
                 b' "dps": []}',
}


@pytest.mark.parametrize("name", UNDECODABLE)
def test_undecodable_spec_files_exit_one_without_a_traceback(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(UNDECODABLE[name])
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    for command in ("classify", "info", "simulate", "validate"):
        result = subprocess.run(
            [sys.executable, "-m", "axdesign", command, str(path)], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert "Traceback" not in result.stderr, command
        assert result.returncode == 1, command
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        # The interpreter's advice on its digit limit is not for CLI users.
        assert "set_int_max_str_digits" not in result.stderr


def test_a_leading_byte_order_mark_is_ignored(capsys, tmp_path):
    # RFC 8259 (section 8.1) lets a parser ignore the mark some editors save.
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + Path(CASCADE).read_bytes())
    for command in ("classify", "info", "validate"):
        plain = run(capsys, command, CASCADE)
        assert run(capsys, command, str(path)) == plain, command
        assert plain[0] == 0 and plain[2] == ""


# A 401-digit integer: valid JSON, but far beyond float64's range.
HUGE = "1" + "0" * 400
HUGE_SPEC = {
    "frs": [{"id": "f", "nominal": 0.0, "tol_minus": 1.0, "tol_plus": 1.0}],
    "dps": [{"id": "d", "nominal": 0.0}],
    "matrix": [[1.0]],
}


@pytest.mark.parametrize("where,change", [
    ("matrix: entry [0][0]", {"matrix": [["HUGE"]]}),
    ("frs[0]: field 'nominal'",
     {"frs": [{"id": "f", "nominal": "HUGE", "tol_minus": 1.0, "tol_plus": 1.0}]}),
    ("system_pdfs.f: samples[1]",
     {"system_pdfs": {"f": {"kind": "empirical", "samples": [0.5, "HUGE"]}}}),
], ids=["matrix", "fr-field", "empirical-sample"])
def test_integers_beyond_float64_exit_one_naming_the_field(capsys, tmp_path, where, change):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(HUGE_SPEC, **change)).replace('"HUGE"', HUGE))
    for command in ("classify", "info", "validate"):
        code, out, err = run(capsys, command, str(path))
        assert code == 1, command
        assert out == ""
        assert err == f"error: {where} must be a finite number\n"


# oracle: mpmath at 4000 bits, -log2 of the exact mass of each pdf on [-1, 1]
WIDE_PDF_BITS = [
    ({"kind": "uniform", "lo": -1.5e308, "hi": 1.5e308}, 1023.7388157260287),
    ({"kind": "triangular", "lo": -1e160, "mode": 0, "hi": 1e160}, 530.508495181978),
    ({"kind": "normal", "mu": 0, "sigma": 1e20}, 66.76430996248341),
]


@pytest.mark.parametrize("pdf,bits", WIDE_PDF_BITS, ids=["uniform", "triangular", "normal"])
def test_wide_pdfs_give_the_exact_analytic_bits(capsys, tmp_path, pdf, bits):
    # The width of the first overflows float64, the square of the second's;
    # the normal's CDF difference on [-1, 1] cancels to 0.
    spec = dict(HUGE_SPEC, system_pdfs={"f": pdf})
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "info", str(path), "--method", "analytic")
    assert code == 0 and err == ""
    assert json.loads(out)["info"]["system_bits"] == pytest.approx(bits, rel=1e-12)


def test_a_subnormal_sigma_off_its_range_costs_infinite_bits(tmp_path):
    # Both z-values of [1, 2] overflow to +inf at sigma 1e-311: the range
    # holds no mass, which the report gives as probability 0 and "inf" bits.
    spec = dict(HUGE_SPEC,
                frs=[{"id": "f", "nominal": 1.5, "tol_minus": 0.5, "tol_plus": 0.5}],
                system_pdfs={"f": {"kind": "normal", "mu": 0, "sigma": 1e-311}})
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(spec))
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "axdesign", "info", str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert "Traceback" not in result.stderr
    assert result.returncode == 0
    info = json.loads(result.stdout)["info"]
    assert info["per_fr"][0]["probability"] == 0.0
    assert info["per_fr"][0]["bits"] == "inf"
    assert info["system_bits"] == "inf"


def test_usage_errors_exit_one_not_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", TANK, "--format", "yaml"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_reports_are_byte_identical_across_runs(capsys):
    code1, out1, _ = run(capsys, "info", TWO_KNOB, "--seed", "7",
                         "--samples", "5000")
    code2, out2, _ = run(capsys, "info", TWO_KNOB, "--seed", "7",
                         "--samples", "5000")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "info", TWO_KNOB, "--seed", "8",
                         "--samples", "5000")
    assert out3 != out1


# ---------------------------------------------------------------------------
# One parser per process, and the import floor


def _fresh(argv, env) -> tuple[int, str]:
    result = subprocess.run([sys.executable, "-m", "axdesign", *argv],
                            capture_output=True, text=True, env=env, timeout=120)
    return result.returncode, result.stdout


def _in_process(capsys, argv) -> tuple[int, str]:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("first,second", [
    (["classify", CASCADE, "--format", "yaml"], ["classify", TWO_KNOB]),
    (["no-such-command"], ["classify", TWO_KNOB]),
    (["--help"], ["info", CASCADE, "--samples", "2000"]),
    (["info", "--help"], ["info", CASCADE, "--samples", "2000"]),
], ids=["bad-format", "unknown-command", "help", "info-help"])
def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch, first, second):
    # The help text wraps at the terminal width, so both sides get the same.
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (first, second):
        assert _in_process(capsys, argv) == _fresh(argv, env), argv


_IMPORT_FLOOR = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
import axdesign.cli

def scipy_loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

seen = {"import": scipy_loaded()}
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    for command in ("classify", "validate"):
        with contextlib.redirect_stdout(io.StringIO()):
            axdesign.cli.main([command, str(path)])
        seen[f"{command} {path.name}"] = scipy_loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = axdesign.cli.main(["info", sys.argv[2], *sys.argv[3:]])
seen["info"] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "scipy.special" in sys.modules]
print(json.dumps(seen))
"""


def test_classify_and_validate_never_import_scipy():
    from test_pinned_reports import PINNED, RUNS

    src = str(Path(axdesign.__file__).resolve().parent.parent)
    fixtures = Path(CASCADE).parent
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_FLOOR, str(fixtures), CASCADE,
         *RUNS["info"][1:]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    info = seen.pop("info")
    assert len(seen) == 1 + 2 * len(list(fixtures.glob("*.json")))
    assert all(loaded == [] for loaded in seen.values()), seen
    # A Normal pdf loads scipy.special on first use, with the pinned bytes.
    assert info == [*PINNED[("machining_cascade.json", "info")], True]
