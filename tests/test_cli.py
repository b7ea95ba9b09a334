import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import qdiscord.cli
import qdiscord.discord
import qdiscord.geodiscord
from qdiscord import QubitEnsemble
from qdiscord.cli import (
    EXIT_INTERNAL,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP_COLUMNS,
    ensemble_from_document,
    ensemble_to_document,
    main,
    parse_ensemble_spec,
)

D_PI4 = 0.201752073385712202
KW_THIRD = 0.165857027124402748
H_THREE_QUARTERS = 0.811278124459132864
CHI_HALF_MIXED = 0.188721875540867136
DATA = pathlib.Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_report(out: str) -> dict:
    doc = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        doc[key] = value
    return doc


def parse_csv(out: str):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------

def test_parse_spec_bloch_form():
    ens = parse_ensemble_spec('{"weights": [0.5, 0.5], "bloch": [[0,0,0.5],[0,0,-0.5]]}')
    assert ens.lambda0 == 0.5
    np.testing.assert_allclose(ens.b, [0, 0, -0.5])


def test_parse_spec_pure_pair_form():
    ens = parse_ensemble_spec('{"pure_pair": {"theta": 1.0, "lambda0": 0.25}}')
    assert ens.lambda0 == 0.25
    np.testing.assert_allclose(ens.a, [np.sin(1.0), 0, np.cos(1.0)], atol=1e-15)


def test_spec_roundtrip(rng):
    from qdiscord import random_ensemble

    for _ in range(10):
        ens = random_ensemble(rng)
        doc = ensemble_to_document(ens)
        back = ensemble_from_document(json.loads(json.dumps(doc)))
        np.testing.assert_array_equal(back.a, ens.a)
        np.testing.assert_array_equal(back.b, ens.b)
        assert back.lambda0 == ens.lambda0


@pytest.mark.parametrize(
    "bad",
    [
        "not json at all",
        '{"weights": [0.5, 0.5]}',
        '{"bloch": [[0,0,0],[0,0,0]]}',
        '{"weights": [0.5, 0.5], "bloch": [[0,0,0]]}',
        '{"weights": [0.5], "bloch": [[0,0,0],[0,0,0]]}',
        '{"pure_pair": {"lambda0": 0.5}}',
        '{"pure_pair": {"theta": 1.0}, "bloch": [[0,0,0],[0,0,0]]}',
        '{"weights": ["a", 0.5], "bloch": [[0,0,0],[0,0,0]]}',
        "[1, 2, 3]",
        '{"pure_pair": {"theta": 0.5, "lamda0": 0.9}}',
        '{"pure_pair": {"theta": 0.5}, "weights": [0.9, 0.1]}',
        '{"weights": [0.5, 0.5], "bloch": [[0,0,0],[0,0,0]], "blochh": [[0,0,1],[0,0,1]]}',
        '{"weights": [0.5, 0.5], "bloch": [[0,0,0.5],[0,0,-0.5]], "weights": [1, 0]}',
        '{"pure_pair": {"theta": 0.5, "lambda0": 0.5, "theta": 1.0}}',
    ],
)
def test_parse_spec_structural_errors(bad):
    from qdiscord.cli import EnsembleSpecError

    with pytest.raises(EnsembleSpecError):
        parse_ensemble_spec(bad)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_pure_pair(capsys):
    code, out, _ = run_cli(capsys, "compute", "--theta", repr(np.pi / 4))
    assert code == EXIT_OK
    doc = parse_report(out)
    assert float(doc["discord"]) == pytest.approx(D_PI4, abs=1e-9)
    assert float(doc["geo_discord"]) == pytest.approx(0.125, abs=1e-9)
    assert float(doc["kw_discord"]) == pytest.approx(D_PI4, abs=1e-9)
    assert abs(float(doc["n_opt_x"])) == pytest.approx(1.0, abs=1e-6)
    assert float(doc["stationarity_residual"]) <= 1e-6


def test_compute_degenerate_weights(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--spec", '{"weights": [1, 0], "bloch": [[0,0,0.8],[0.5,0,0]]}'
    )
    assert code == EXIT_OK
    doc = parse_report(out)
    for key in ("chi", "i_acc", "discord", "geo_discord"):
        assert float(doc[key]) == pytest.approx(0.0, abs=1e-10)


def test_compute_commuting_mixed_states(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--spec", '{"weights": [0.5, 0.5], "bloch": [[0,0,0.5],[0,0,-0.5]]}'
    )
    assert code == EXIT_OK
    doc = parse_report(out)
    assert float(doc["chi"]) == pytest.approx(CHI_HALF_MIXED, abs=1e-10)
    assert float(doc["discord"]) == pytest.approx(0.0, abs=1e-10)
    assert "kw_discord" not in doc  # states are mixed


def test_compute_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "compute", "--theta", "0.9", "--verify", "2000")
    assert code == EXIT_OK
    doc = parse_report(out)
    assert abs(float(doc["oracle_i_acc"]) - float(doc["i_acc"])) <= 1e-5
    assert abs(float(doc["oracle_geo_discord"]) - float(doc["geo_discord"])) <= 1e-5


def test_compute_spec_from_file(tmp_path, capsys):
    path = tmp_path / "ens.json"
    path.write_text('{"pure_pair": {"theta": 0.9}}')
    code, out, _ = run_cli(capsys, "compute", "--spec", str(path))
    assert code == EXIT_OK
    assert float(parse_report(out)["lambda0"]) == 0.5


def test_compute_degrees(capsys):
    code, out, _ = run_cli(capsys, "compute", "--theta", "45", "--degrees")
    assert code == EXIT_OK
    assert float(parse_report(out)["discord"]) == pytest.approx(D_PI4, abs=1e-9)


def test_compute_usage_errors(tmp_path, capsys):
    assert run_cli(capsys, "compute")[0] == EXIT_USAGE
    assert run_cli(capsys, "compute", "--spec", "{}", "--theta", "1")[0] == EXIT_USAGE
    code, _, err = run_cli(capsys, "compute", "--spec", "/nonexistent/path.json")
    assert code == EXIT_USAGE and "not found" in err
    for option in (["--lambda0", "0.3"], ["--degrees"]):
        code, out, err = run_cli(capsys, "compute", "--spec", '{"pure_pair": {"theta": 0.5}}', *option)
        assert (code, out) == (EXIT_USAGE, "") and option[0] in err
    code, _, err = run_cli(capsys, "compute", "--spec", '{"weights": [0.5,0.5]')
    assert code == EXIT_USAGE and "line" in err
    code, out, err = run_cli(
        capsys, "compute", "--spec", '{"pure_pair": {"theta": 0.5}, "weights": [0.9, 0.1]}'
    )
    assert (code, out) == (EXIT_USAGE, "") and "unknown spec fields: ['weights']" in err
    twice = '{"weights": [0.5, 0.5], "bloch": [[0,0,0.5],[0,0,-0.5]], "weights": [1, 0]}'
    code, out, err = run_cli(capsys, "compute", "--spec", twice)
    assert (code, out) == (EXIT_USAGE, "") and "duplicate spec field: 'weights'" in err
    spec = tmp_path / "not_utf8.json"
    spec.write_bytes(b'{"pure_pair": {"theta": 0.5}}\n\xff\n')
    code, out, err = run_cli(capsys, "compute", "--spec", str(spec))
    assert (code, out) == (EXIT_USAGE, "") and "spec error: spec file is not UTF-8" in err


def test_compute_spec_path_that_is_not_a_regular_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "compute", "--spec", str(tmp_path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"spec error: spec path is not a regular file: {tmp_path}\n"


def test_compute_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(capsys, "compute", "--theta", "0.7", "--output", str(target))
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "i/o error" in err
    assert not target.parent.exists()


def test_compute_invariant_violation_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--spec", '{"weights": [0.7, 0.7], "bloch": [[0,0,0],[0,0,0]]}'
    )
    assert code == EXIT_INVARIANT
    code, _, _ = run_cli(
        capsys, "compute", "--spec", '{"weights": [0.5, 0.5], "bloch": [[0,0,1.5],[0,0,0]]}'
    )
    assert code == EXIT_INVARIANT
    # A negative angle in exponent form is a value, and out of range.
    code, out, err = run_cli(capsys, "compute", "--theta", "-1e-3")
    assert (code, out) == (EXIT_INVARIANT, "")
    assert "theta must lie in [0, pi]" in err


def test_compute_non_finite_weight_is_rejected_at_the_ensemble(capsys):
    # json.loads accepts NaN; the ensemble names the weights, not the Bloch vectors
    code, _, err = run_cli(
        capsys, "compute", "--spec", '{"weights": [NaN, 0.5], "bloch": [[0,0,0.5],[0,0,-0.5]]}'
    )
    assert code == EXIT_INVARIANT
    assert "weights must be finite" in err


def test_compute_near_collinear_pair(capsys):
    code, out, err = run_cli(
        capsys, "compute", "--spec", '{"weights":[0.5,0.5],"bloch":[[1e-8,0,0.5],[0,0,-0.5]]}'
    )
    assert code == EXIT_OK, err
    doc = {k: float(v) for k, v in parse_report(out).items() if k != "degenerate_optimum"}
    assert doc["i_acc"] <= doc["chi"] + 1e-12
    assert abs(doc["chi"] - doc["i_acc"] - doc["discord"]) <= 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "--theta", "1", "--verify", "1"),
        ("compute", "--theta", "1", "--verify", "1000001"),
        ("verify", "--grid", "1000001"),
        ("verify", "--trials", "100001"),
        ("sweep", "--steps", "1000001"),
        ("landscape", "--theta", "1", "--delta-steps", "1"),
    ],
)
def test_size_arguments_out_of_range_are_usage_errors(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for name in ("accessible_information", "holevo_chi", "random_ensemble"):
        monkeypatch.setattr(qdiscord.cli, name, no_work)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "must lie in" in err


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run_cli(capsys)[0] == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_header_and_identity(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "7")
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == list(SWEEP_COLUMNS)
    assert len(rows) == 7
    for row in rows:
        assert abs(row["discord"] - (row["chi"] - row["i_acc"])) <= 1e-10
        assert abs(row["discord"] - row["discord_closed_form"]) <= 1e-6
        assert abs(row["geo_discord"] - row["geo_closed_form"]) <= 1e-9
    assert rows[0]["discord"] <= 1e-10
    assert rows[-1]["discord"] <= 1e-10


def test_sweep_five_steps_peak_in_the_middle(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "5")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    discords = [row["discord"] for row in rows]
    assert discords[0] <= 1e-10 and discords[-1] <= 1e-10
    assert int(np.argmax(discords)) == 2  # theta = pi/4


def test_sweep_two_steps(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "2")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert all(row["discord"] <= 1e-10 for row in rows)


def test_sweep_step_bounds(capsys):
    assert run_cli(capsys, "sweep", "--steps", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "sweep", "--steps", "1000001")[0] == EXIT_USAGE


def test_sweep_deterministic_and_file_output(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "sweep", "--steps", "5")
    assert code == EXIT_OK
    path = tmp_path / "sweep.csv"
    code2, out2, _ = run_cli(capsys, "sweep", "--steps", "5", "--output", str(path))
    assert code2 == EXIT_OK and out2 == ""
    data = path.read_bytes()
    assert data.decode("ascii") == out
    assert b"\r" not in data
    assert data.endswith(b"\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--stop", "4"),
        ("--start", "-0.1"),
        ("--start", "inf"),
        ("--stop=-inf",),
        ("--lambda0", "1.5"),
        ("--lambda0", "nan"),
        ("--stop", "-inf"),
    ],
)
def test_sweep_invalid_range_writes_nothing(tmp_path, capsys, argv):
    """Rows are streamed, so a bad range or weight must fail before the output opens."""
    path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", "--steps", "600", *argv, "--output", str(path))
    assert code == EXIT_INVARIANT, err
    assert out == ""
    assert not path.exists()


# The measures cli computes a block with, each through its public name.
_BLOCK_MEASURES = ("geometric_discord", "accessible_information", "holevo_chi")


def _counter(calls, name, fn):
    """fn, counting its calls in calls[name]."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_block_measures(monkeypatch, calls):
    for name in _BLOCK_MEASURES:
        calls[name] = 0
        monkeypatch.setattr(qdiscord.cli, name, _counter(calls, name, getattr(qdiscord.cli, name)))


def test_sweep_block_goes_through_the_public_layer_functions(monkeypatch, tmp_path):
    """A block makes one call of each public measure and builds no ensemble per row.

    Its optimizer runs inside the public accessible_information and its
    measurement work goes through the public canonical_axis, so a tracer
    that wraps public functions sees every layer of the sweep.
    """
    calls = {"canonical_axis": 0, "QubitEnsemble": 0}
    _count_block_measures(monkeypatch, calls)
    for module in (qdiscord.discord, qdiscord.geodiscord):
        counted = _counter(calls, "canonical_axis", module.canonical_axis)
        monkeypatch.setattr(module, "canonical_axis", counted)
    monkeypatch.setattr(
        QubitEnsemble, "__post_init__", _counter(calls, "QubitEnsemble", QubitEnsemble.__post_init__)
    )

    def sweep(steps):
        for name in calls:
            calls[name] = 0
        path = tmp_path / f"sweep{steps}.csv"
        assert main(["sweep", "--steps", str(steps), "--output", str(path)]) == EXIT_OK
        return dict(calls)

    few = sweep(20)
    assert all(few[name] == 1 for name in _BLOCK_MEASURES)
    assert few["canonical_axis"] >= 1
    many = sweep(400)
    assert all(many[name] == 1 for name in _BLOCK_MEASURES)
    assert many["QubitEnsemble"] <= few["QubitEnsemble"]
    # One call of each per block of cli._BLOCK rows.
    blocks = sweep(2 * qdiscord.cli._BLOCK + 1)
    assert all(blocks[name] == 3 for name in _BLOCK_MEASURES)


def test_sweep_degrees_matches_radians(capsys):
    _, out_deg, _ = run_cli(capsys, "sweep", "--steps", "4", "--start", "0", "--stop", "90", "--degrees")
    _, out_rad, _ = run_cli(capsys, "sweep", "--steps", "4", "--start", "0", "--stop", repr(np.pi / 2))
    _, rows_deg = parse_csv(out_deg)
    _, rows_rad = parse_csv(out_rad)
    for rd, rr in zip(rows_deg, rows_rad):
        for key in rd:
            assert rd[key] == pytest.approx(rr[key], abs=1e-9)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--steps", "101"], "sweep_steps101.csv"),
        # crosses the flat ends and the nearly identical pair of the last row
        (
            ["--steps", "64", "--lambda0", "0.3", "--start", "0", "--stop", "3.14159"],
            "sweep_lambda03_steps64.csv",
        ),
    ],
    ids=["steps101", "lambda03_steps64"],
)
def test_sweep_matches_golden_csv(tmp_path, argv, golden):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_sweep_lambda_dependence(capsys):
    # closed-form columns stay exact away from equal weights
    code, out, _ = run_cli(capsys, "sweep", "--steps", "6", "--lambda0", "0.3")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    for row in rows:
        assert abs(row["discord"] - row["discord_closed_form"]) <= 1e-6
        assert abs(row["geo_discord"] - row["geo_closed_form"]) <= 1e-9


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def test_landscape_values(capsys):
    code, out, _ = run_cli(
        capsys, "landscape", "--theta", repr(np.pi / 3), "--delta-steps", "9"
    )
    assert code == EXIT_OK
    header, rows = parse_csv(out)
    assert header == ["theta", "delta", "discord_rough"]
    assert rows[0]["delta"] == 0.0
    assert rows[0]["discord_rough"] == pytest.approx(KW_THIRD, abs=1e-9)
    assert rows[2]["delta"] == pytest.approx(np.pi / 2, abs=1e-11)  # 12 sig digits in CSV
    assert rows[2]["discord_rough"] == pytest.approx(H_THREE_QUARTERS, abs=1e-9)


def test_landscape_flat_at_theta_zero(capsys):
    code, out, _ = run_cli(capsys, "landscape", "--theta", "0", "--delta-steps", "13")
    assert code == EXIT_OK
    _, rows = parse_csv(out)
    assert all(abs(row["discord_rough"]) <= 1e-12 for row in rows)


def test_landscape_minimum_at_optimal_angles(capsys):
    for theta in (0.4, np.pi / 4, 1.2):
        code, out, _ = run_cli(
            capsys, "landscape", "--theta", repr(theta), "--delta-steps", "73"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        deltas = np.array([row["delta"] for row in rows])
        values = np.array([row["discord_rough"] for row in rows])
        best = deltas[int(np.argmin(values))]
        step = deltas[1] - deltas[0]
        assert min(abs(best), abs(best - np.pi), abs(best - 2 * np.pi)) <= step + 1e-12


def test_landscape_usage_errors(capsys):
    assert run_cli(capsys, "landscape", "--theta", "1", "--delta-steps", "1")[0] == EXIT_USAGE
    assert run_cli(capsys, "landscape")[0] == EXIT_USAGE


def test_landscape_negative_angle_in_exponent_form_is_a_value(capsys):
    """A separate -1e-3 is the option's value, as its attached form is."""
    landscape = ("landscape", "--theta", "0.5", "--delta-steps", "2")
    attached = run_cli(capsys, *landscape, "--delta-start=-1e-3")
    assert attached[0] == EXIT_OK
    assert run_cli(capsys, *landscape, "--delta-start", "-1e-3") == attached
    assert run_cli(capsys, *landscape, "--delta-sta", "-1e-3") == attached  # an abbreviation
    # A token that is not a number stays an option.
    code, _, err = run_cli(capsys, *landscape, "--delta-start", "-x")
    assert code == EXIT_USAGE
    assert "expected one argument" in err


@pytest.mark.parametrize(
    "end",
    [["--delta-start", "nan"], ["--delta-stop", "inf"], ["--delta-stop=-inf"]],
    ids=["nan", "inf", "minus_inf"],
)
def test_landscape_non_finite_angle_is_rejected(capsys, end):
    code, out, err = run_cli(capsys, "landscape", "--theta", "1", *end, "--delta-steps", "3")
    assert code == EXIT_INVARIANT
    assert out == ""
    assert end[0].split("=")[0] in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--trials", "3", "--grid", "400")
    assert code == EXIT_OK
    assert "result = PASS" in out
    for suite in ("entropy_identities", "holevo_bound", "complementarity", "koashi_winter"):
        assert f"suite {suite}: 3/3 pass" in out


def test_verify_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--seed", "3", "--trials", "2", "--grid", "300")
    _, second, _ = run_cli(capsys, "verify", "--seed", "3", "--trials", "2", "--grid", "300")
    assert first == second


@pytest.mark.host_bits
def test_verify_matches_golden_output(tmp_path):
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "1", "--trials", "20", "--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == (DATA / "verify_seed1_trials20.txt").read_bytes()


def test_verify_block_goes_through_the_public_layer_functions(monkeypatch, tmp_path):
    """A block of trials, with its pure pairs, makes one accessible_information and one holevo_chi call.

    geometric_discord stays a one-ensemble call per trial.
    """
    calls = {}
    _count_block_measures(monkeypatch, calls)
    out = tmp_path / "verify.txt"
    assert main(["verify", "--seed", "1", "--trials", "20", "--output", str(out)]) == EXIT_OK
    assert calls == {"geometric_discord": 20, "accessible_information": 1, "holevo_chi": 1}


def test_verify_usage_errors(capsys):
    assert run_cli(capsys, "verify", "--trials", "0")[0] == EXIT_USAGE
    assert run_cli(capsys, "verify", "--grid", "1")[0] == EXIT_USAGE
    # Refused before the generator is seeded, which would be exit 2.
    code, _, err = run_cli(capsys, "verify", "--seed", "-1", "--trials", "2")
    assert code == EXIT_USAGE
    assert "--seed" in err


def test_verify_corrupted_tolerance_reports_failures(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--seed", "1", "--trials", "2", "--grid", "300", "--tol", "0"
    )
    assert code == EXIT_INVARIANT
    assert "result = FAIL" in out
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail_lines
    # the echoed specs replay into valid ensembles
    for line in fail_lines:
        doc = json.loads(line.partition("spec=")[2])
        ens = ensemble_from_document(doc)
        assert isinstance(ens, QubitEnsemble)


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qdiscord", "compute", "--theta", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "discord = " in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "qdiscord", "compute"], capture_output=True, text=True
    )
    assert proc.returncode == 1


# A fresh interpreter runs the sweep, so that the peak resident set of its
# children is the sweep's own and not that of an earlier test's child.
_SWEEP_PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "qdiscord", "sweep", "--steps", sys.argv[1],
                "--output", sys.argv[2]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _sweep_peak_mb(steps, output):
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_PEAK_RSS, str(steps), str(output)],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux


def test_sweep_peak_memory_is_bounded(tmp_path):
    """Four 512-row blocks, each scanned in slices, add at most 8 MB to a 2-row sweep.

    The difference leaves out the interpreter's, numpy's and BLAS's start-up,
    which varies with the host; a block scanned whole would add some 40 MB.
    """
    small = _sweep_peak_mb(2, tmp_path / "small.csv")
    large = _sweep_peak_mb(2048, tmp_path / "sweep.csv")
    assert large - small <= 8.0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 2049
