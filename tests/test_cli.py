"""Command-line interface: exit codes, report documents, and determinism.

These run main() in-process; one subprocess-level determinism check lives
in the acceptance suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    assert err == "error: --epsilon: epsilon must be a finite number >= 0\n"


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


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_dp_without_uncertainty_reports_as_a_one_observation_pdf(capsys, tmp_path, fmt):
    # A DP without an uncertainty is held at its nominal: the report is the
    # one its nominal as a one-observation empirical pdf gives.
    spec = json.loads(Path(CASCADE).read_text())
    dp = spec["dps"][1]
    path = tmp_path / "cascade.json"
    outs = []
    for uncertainty in (None, {"kind": "empirical", "samples": [dp["nominal"]]}):
        dp["uncertainty"] = uncertainty
        if uncertainty is None:
            del dp["uncertainty"]
        path.write_text(json.dumps(spec))
        code, out, _ = run(capsys, "info", str(path), "--samples", "20000",
                           "--seed", "3", "--format", fmt)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("spec, digest", [
    (TURBULENT, "715f15c4a69a6f5f1c709a1237b9831bc8890c563290f15a5542ef03e97f4953"),
    # Every tank.json cycle is in band, so its pinned reports hold only
    # counts that no noise value moves; its CSV holds the values.
    (TANK, "40813aed72b875e23c39465ee7b7bc1a4e0f8bf071365b72a057d1229443b888"),
], ids=["tank_turbulent", "tank"])
def test_simulate_csv_bytes_are_pinned(capsys, tmp_path, spec, digest):
    # sha256 of the CSV an earlier build wrote: a change to the simulator,
    # the draws or the CSV writer that moves any byte fails here.
    csv_path = tmp_path / "cycles.csv"
    code, _, _ = run(capsys, "simulate", spec, "--cycles", "40",
                     "--seed", "9", "--out", str(csv_path))
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest


ACCENTED = "m\u00e9lange\u6e29"


def _accented_tank(tmp_path) -> str:
    """tank.json with FR level renamed ACCENTED."""
    spec = json.loads(Path(TANK).read_text())
    spec["frs"][0]["id"] = ACCENTED
    spec["system_pdfs"][ACCENTED] = spec["system_pdfs"].pop("level")
    path = tmp_path / "accented.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def _run_in_ascii_locale(*argv):
    """``python -m axdesign argv`` under the C locale without UTF-8 mode,
    where stdout's encoding is ASCII."""
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    return subprocess.run([sys.executable, "-m", "axdesign", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_simulate_writes_its_csv_as_utf8_in_an_ascii_locale(tmp_path):
    # The CSV's encoding does not follow the locale's: a non-ASCII FR id is
    # still written as UTF-8.
    csv_path = tmp_path / "cycles.csv"
    result = _run_in_ascii_locale("simulate", _accented_tank(tmp_path), "--cycles", "3",
                                  "--out", str(csv_path))
    assert result.returncode == 0, result.stderr
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"{ACCENTED},temperature,mix_duration"
    assert len(lines) == 4


@pytest.mark.parametrize("command", ["classify", "info", "simulate", "validate"])
def test_a_text_report_that_stdout_cannot_encode_exits_one(tmp_path, command):
    # A text report holds the FR ids as they are; the JSON one escapes them.
    path = _accented_tank(tmp_path)
    cycles = ["--cycles", "5"] if command == "simulate" else []
    result = _run_in_ascii_locale(command, path, *cycles, "--format", "text")
    assert "Traceback" not in result.stderr
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: stdout's encoding (ascii) cannot write this report")
    assert result.stderr.count("\n") == 1
    # simulate's --out is the CSV, so only the other three point to it.
    assert ("--out" in result.stderr) == (command != "simulate")
    result = _run_in_ascii_locale(command, path, *cycles)
    assert result.returncode == 0 and ACCENTED not in result.stdout


def test_simulate_runs_the_scenario_cycles_without_the_flag(capsys, tmp_path):
    spec = json.loads(fixture_path("tank_turbulent.json").read_text())
    spec["scenario"]["cycles"] = 25
    path, csv_path = tmp_path / "short.json", tmp_path / "short.csv"
    path.write_text(json.dumps(spec))
    code, doc = run_json(capsys, "simulate", str(path), "--seed", "3", "--out", str(csv_path))
    assert code == 0
    assert doc["cycles"] == 25
    assert doc["info"]["mc"]["n_samples"] == 25
    assert len(csv_path.read_text().splitlines()) == 26


def test_info_on_a_scenario_scores_the_table_simulate_writes(capsys):
    # Both sample the run of 50 cycles at seed 3, so both report it alike.
    code, info = run_json(capsys, "info", TURBULENT, "--method", "joint",
                          "--samples", "50", "--seed", "3")
    assert code == 0
    code, sim = run_json(capsys, "simulate", TURBULENT, "--cycles", "50", "--seed", "3")
    assert code == 0
    assert info["info"] == sim["info"]
    assert 0.0 < info["info"]["system_probability"] < 1.0


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
    assert err.endswith(", inf, 119.988) are not all finite\n")
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
    # search draws only the readings that can cross, a block at a time.
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


_CYCLES = "cycles must be an integer in [1, 10000000]"


@pytest.mark.parametrize("argv, message", [
    (["info", TANK, "--seed", "-3"], "--seed: seed must be a non-negative integer"),
    (["simulate", TANK, "--seed", "-3"], "--seed: seed must be a non-negative integer"),
    (["info", TANK, "--samples", "0"], "--samples: n_samples must be a positive integer"),
    (["simulate", TANK, "--cycles", "0"], f"--cycles: {_CYCLES}"),
    (["simulate", TANK, "--cycles", "10000001"], f"--cycles: {_CYCLES}"),
    # One simulated cycle per sample, whichever route info takes.
    (["info", TANK, "--samples", "10000001"], f"--samples: {_CYCLES}"),
    (["classify", TANK, "--epsilon", "-1"], "--epsilon: epsilon must be a finite number >= 0"),
    # Faults are reported in order: in simulate a missing scenario, then
    # --seed, then --cycles; in info --seed, then --samples, then --epsilon.
    (["simulate", DISJOINT, "--seed", "-3", "--cycles", "0"],
     "no scenario block in spec; nothing to simulate"),
    (["simulate", TANK, "--seed", "-3", "--cycles", "0"],
     "--seed: seed must be a non-negative integer"),
    (["info", TANK, "--seed", "-3", "--samples", "0", "--epsilon", "-1"],
     "--seed: seed must be a non-negative integer"),
    (["info", TANK, "--samples", "10000001", "--epsilon", "-1"], f"--samples: {_CYCLES}"),
])
def test_a_flag_outside_its_owners_limit_exits_one_naming_it(capsys, argv, message):
    # The object that owns the limit checks the flag, and the message names
    # the flag and that limit.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


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


def _normal_band_spec(nominal, tol, mu, sigma):
    """A one-FR spec: the band nominal +- tol under the system pdf
    normal(mu, sigma)."""
    return dict(HUGE_SPEC,
                frs=[{"id": "f", "nominal": nominal, "tol_minus": tol, "tol_plus": tol}],
                system_pdfs={"f": {"kind": "normal", "mu": mu, "sigma": sigma}})


# Each band lies far beyond 40 sigmas on one side of the mean: at sigma
# 1e-311 both z-values of [1, 2] overflow to +inf, z = 1e200 squares to inf,
# and z = +-1e308 sums to inf.
FAR_TAIL_BANDS = [(1.5, 0.5, 0, 1e-311), (1e200, 0, 0, 1), (0, 1, -1e308, 1)]


@pytest.mark.parametrize("nominal,tol,mu,sigma", FAR_TAIL_BANDS,
                         ids=["subnormal-sigma", "band-at-1e200", "mean-at-minus-1e308"])
def test_a_subnormal_sigma_off_its_range_costs_infinite_bits(tmp_path, nominal, tol, mu, sigma):
    # No such band holds any mass, which the report gives as probability 0
    # and "inf" bits.
    path = tmp_path / "far.json"
    path.write_text(json.dumps(_normal_band_spec(nominal, tol, mu, sigma)))
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "axdesign", "info", str(path)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert result.stderr == ""
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


# ---------------------------------------------------------------------------
# Property: specs valid by construction, with extreme values inside the
# documented limits, reach the sampling and tank paths, and every
# subcommand ends there in a documented exit code.

# Near 0, or anywhere in float64's finite range.
_REALS = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
_SPREADS = st.one_of(st.floats(1e-3, 10.0), st.floats(min_value=5e-324, allow_infinity=False))
_TOLERANCES = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.floats(0.0, allow_infinity=False))


def _pdf_objs(reals, spreads):
    """JSON pdf objects of all four kinds, with parameters from ``reals``
    and a normal sigma from ``spreads``."""
    ends = st.lists(reals, min_size=2, max_size=2, unique=True).map(sorted)
    return st.one_of(
        ends.map(lambda v: {"kind": "uniform", "lo": v[0], "hi": v[1]}),
        st.builds(lambda mu, sigma: {"kind": "normal", "mu": mu, "sigma": sigma},
                  reals, spreads),
        st.lists(reals, min_size=3, max_size=3).map(sorted).filter(lambda v: v[0] < v[2])
        .map(lambda v: {"kind": "triangular", "lo": v[0], "mode": v[1], "hi": v[2]}),
        st.lists(reals, min_size=1, max_size=5).map(
            lambda v: {"kind": "empirical", "samples": v}),
    )


_PDFS = _pdf_objs(_REALS, _SPREADS)
# Every level or temperature reading within the noise's reach of the
# setpoint takes a value, so noise that is wide against a phase's step, and
# narrow against its distance, reads about sigma / step values before a
# crossing grows likely. These stay within 1 of 0, so that a run is fast.
_READING_NOISE = _pdf_objs(st.floats(-1.0, 1.0), st.floats(1e-3, 1.0))
_GAINS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([1e6, -1e6, 1e308]))


@st.composite
def _specs(draw):
    tank = draw(st.booleans())
    n_frs = 3 if tank else draw(st.integers(1, 4))
    n_dps = draw(st.integers(1, 4))
    ids = [f"f{i}" for i in range(n_frs)]
    spec = {
        "frs": [{"id": fr, "nominal": draw(_REALS), "tol_minus": draw(_TOLERANCES),
                 "tol_plus": draw(_TOLERANCES)} for fr in ids],
        "dps": [{"id": f"d{j}", "nominal": draw(_REALS)} for j in range(n_dps)],
    }
    for dp in spec["dps"]:
        if draw(st.booleans()):
            dp["uncertainty"] = draw(_PDFS)
    # Mostly with a matrix, and a system pdf for every FR, so that most
    # specs get past the route choice.
    if draw(st.sampled_from([True, True, True, False])):
        entries = st.one_of(st.just(0.0), _REALS)
        spec["matrix"] = [[draw(entries) for _ in range(n_dps)] for _ in ids]
    for key in ("system_pdfs", "noise_pdfs"):
        if draw(st.booleans()):
            frs = draw(st.one_of(st.just(ids), st.lists(st.sampled_from(ids), unique=True)))
            spec[key] = {fr: draw(_PDFS) for fr in frs}
    if draw(st.booleans()):
        spec["epsilon"] = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, allow_infinity=False)))
    if tank:
        # Three tank specs in four start above 1.5 m, so that most drain
        # above empty and run to exit 0; the rest start lower and keep the
        # divergence paths (exit 5) covered.
        above = draw(st.sampled_from([True, True, True, False]))
        low = draw(st.floats(1.5, 5.0) if above else st.floats(-5.0, 1.5, exclude_max=True))
        channels = {"level": _READING_NOISE, "temp": _READING_NOISE,
                    "duration": _PDFS, "inlet": _PDFS}
        spec["scenario"] = {
            "level_low": low, "level_high": low + draw(st.floats(0.5, 10.0)),
            "temp_setpoint": draw(st.floats(50.0, 80.0)),
            "mix_duration": draw(st.floats(1.0, 300.0)),
            "timestep": draw(st.sampled_from([0.1, 1.0])),
            "cycles": draw(st.integers(1, 30)),
            "sensor_noise": {ch: draw(channels[ch])
                             for ch in draw(st.sets(st.sampled_from(sorted(channels))))},
            "coupling_gains": {key: draw(_GAINS) for key in draw(st.sets(st.sampled_from(
                ["mixer_to_temp", "heater_to_level", "mixer_to_level"])))},
        }
    return spec


def _empty_fill_spec():
    spec = json.loads(Path(TANK).read_text())
    spec["scenario"]["sensor_noise"]["level"] = {"kind": "uniform", "lo": 0, "hi": 9}
    spec["scenario"]["timestep"] = 1.0
    return spec


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=_normal_band_spec(*FAR_TAIL_BANDS[1]), seed=0)
@example(spec=_normal_band_spec(*FAR_TAIL_BANDS[2]), seed=0)
@example(spec=_empty_fill_spec(), seed=14)
def test_valid_specs_end_every_subcommand_in_a_documented_exit_code(spec, seed):
    # Exit 0-5 only, no warning, and nothing raised out of main. A failure
    # (exit 1, 4 or 5) prints one "error:" line and nothing else, except
    # validate, whose exit 1 lists the spec's issues in its report.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        runs = [["classify", path], ["validate", path],
                ["simulate", path, "--cycles", "20", "--seed", str(seed)]]
        runs += [["info", path, "--method", method, "--format", fmt,
                  "--samples", "20", "--seed", str(seed)]
                 for method in ("auto", "analytic", "chain", "joint") for fmt in ("json", "text")]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            assert [str(w.message) for w in caught] == [], argv
            assert code in range(6), argv
            if code in (1, 4, 5) and argv[0] != "validate":
                assert err.getvalue().startswith("error: "), argv
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
            else:
                assert err.getvalue() == "", argv
