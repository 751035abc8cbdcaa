"""Tests for the command-line front end: parsing, artifacts, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cryptoherm import biorthogonal_decompose, cli, models, quasistationary
from cryptoherm.cli import COMMANDS, main, parse_config, run
from cryptoherm.errors import ParseError, ValidationError


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


MATRIX_2 = [[1, 1], [4, 1]]
EVOLVE_CFG = {
    "command": "evolve",
    "model": {"taylor": [[[1, 0], [0, -1]], [[0, 3], [0, 0]]]},
    "dyson": {"kind": "exp_poly", "generator": [[0, 1.5], [0, 0]], "theta": [0.0, 1.0]},
    "grid": {"t_start": 0.0, "t_end": 1.0, "n_samples": 5},
    "step": 1e-2,
    "phi0": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
}


def test_parse_minimal_decompose():
    cfg = parse_config(json.dumps({"command": "decompose", "model": {"matrix": MATRIX_2}}))
    assert cfg.command == "decompose"
    npt.assert_array_equal(cfg.matrix, np.array(MATRIX_2, dtype=complex))


def test_parse_rejects_unknown_keys_and_lists_everything():
    with pytest.raises(ValidationError) as excinfo:
        parse_config(
            json.dumps(
                {
                    "command": "metric",
                    "model": {"matrix": MATRIX_2},
                    "kappa": [1, -1],
                    "bogus": 1,
                }
            )
        )
    message = str(excinfo.value)
    assert "kappa" in message
    assert "bogus" in message


def test_parse_rejects_dimension_mismatch():
    with pytest.raises(ValidationError):
        parse_config(
            json.dumps(
                {"command": "decompose", "model": {"matrix": [[1, 2, 3], [4, 5, 6]]}}
            )
        )


def test_parse_rejects_zero_step():
    cfg = dict(EVOLVE_CFG)
    cfg["step"] = 0
    with pytest.raises(ValidationError) as excinfo:
        parse_config(json.dumps(cfg))
    assert "step" in str(excinfo.value)


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_config("{not json")


def test_parse_rejects_non_finite_values():
    with pytest.raises(ValidationError):
        parse_config(
            '{"command": "decompose", "model": {"matrix": [[Infinity, 0], [0, 1]]}}'
        )
    cfg = dict(EVOLVE_CFG)
    cfg["step"] = float("nan")
    with pytest.raises(ValidationError):
        parse_config(json.dumps(cfg))


def test_parse_rejects_singular_constant_dyson():
    cfg = {
        "command": "hermitize",
        "model": {"matrix": MATRIX_2},
        "dyson": {"kind": "constant", "matrix": [[1, 2], [2, 4]]},
    }
    with pytest.raises(ValidationError) as excinfo:
        parse_config(json.dumps(cfg))
    assert "invertible" in str(excinfo.value)


def test_decompose_roundtrip(tmp_path):
    cfg = parse_config(json.dumps({"command": "decompose", "model": {"matrix": MATRIX_2}}))
    (path,) = run(cfg, tmp_path, quiet=True)
    payload = json.loads(path.read_text())
    system = biorthogonal_decompose(np.array(MATRIX_2, dtype=complex))
    parsed_eigs = np.array([complex(re, im) for re, im in payload["eigenvalues"]])
    npt.assert_array_equal(parsed_eigs, system.eigenvalues)
    parsed_right = np.array(
        [[complex(re, im) for re, im in row] for row in payload["right_vectors"]]
    )
    npt.assert_array_equal(parsed_right, system.right_vectors)


def test_trajectory_csv_roundtrip(tmp_path):
    from cryptoherm import DysonFamily, TaylorHamiltonian, propagate_pair

    cfg = parse_config(json.dumps(EVOLVE_CFG))
    paths = run(cfg, tmp_path, quiet=True)
    csv_path = next(p for p in paths if p.suffix == ".csv")
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])

    ham = TaylorHamiltonian(tuple(np.array(c, dtype=complex) for c in EVOLVE_CFG["model"]["taylor"]))
    fam = DysonFamily.exp_poly(np.array([[0, 1.5], [0, 0]]), [0.0, 1.0])
    phi0 = np.array([0.7071067811865476, 0.7071067811865476], dtype=complex)
    traj = propagate_pair(ham, fam, phi0, None, np.linspace(0, 1, 5), 1e-2)

    assert header[0] == "t"
    npt.assert_array_equal(rows[:, 0], traj.times)
    phi_re = rows[:, 1:5:2] + 1j * rows[:, 2:5:2]
    npt.assert_array_equal(phi_re, traj.phi)  # exact full-precision round trip
    overlap = rows[:, header.index("overlap_re")] + 1j * rows[:, header.index("overlap_im")]
    npt.assert_array_equal(overlap, traj.overlap)
    drift = rows[:, header.index("drift")]
    assert (np.diff(drift) >= 0).all()  # cumulative


def test_substep_cap_is_a_validation_error(tmp_path):
    cfg = dict(EVOLVE_CFG, step=1e-12, grid={"t_start": 0.0, "t_end": 1.0, "n_samples": 2})
    with pytest.raises(ValidationError, match="substeps"):
        parse_config(json.dumps(cfg))
    path = _write(tmp_path, "huge.json", cfg)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert not (tmp_path / "out").exists()


def test_qs_scan_dimension_beyond_the_planted_spectrum_exits_2(tmp_path):
    cfg = {"command": "qs-scan", "sampler": "shared", "trials": 1, "n": 41, "seed": 0}
    with pytest.raises(ValidationError, match="41 eigenvalues"):
        parse_config(json.dumps(cfg))
    path = _write(tmp_path, "wide.json", cfg)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    path = _write(tmp_path, "widest.json", dict(cfg, n=40))
    assert main(["--config", str(path), "--out", str(tmp_path / "ok"), "--quiet"]) == 0


def test_exit_codes(tmp_path):
    good = _write(tmp_path, "good.json", {"command": "decompose", "model": {"matrix": MATRIX_2}})
    assert main(["--config", str(good), "--out", str(tmp_path / "a"), "--quiet"]) == 0

    bad_cfg = dict(EVOLVE_CFG)
    bad_cfg["step"] = 0
    bad = _write(tmp_path, "bad.json", bad_cfg)
    assert main(["--config", str(bad), "--out", str(tmp_path / "b"), "--quiet"]) == 2

    defective = _write(
        tmp_path, "defective.json", {"command": "decompose", "model": {"matrix": [[0, 1], [0, 0]]}}
    )
    assert main(["--config", str(defective), "--out", str(tmp_path / "c"), "--quiet"]) == 1

    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing), "--out", str(tmp_path / "d"), "--quiet"]) == 2


def test_overflowing_dyson_map_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = dict(EVOLVE_CFG, psi0=EVOLVE_CFG["phi0"], dyson={
        "kind": "exp_poly", "generator": [[1, 0.5], [0.5, -1]], "theta": [1000],
    })
    path = _write(tmp_path, "overflow.json", cfg)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("NonFiniteState: ")
    assert not any((tmp_path / "out").iterdir())


def test_exhausted_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # numpy raises a MemoryError subclass for an array it cannot allocate; it
    # used to escape main as a traceback
    class ArrayMemoryError(MemoryError):
        pass

    def exhausted(cfg):
        raise ArrayMemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setitem(COMMANDS, "decompose", COMMANDS["decompose"]._replace(handler=exhausted))
    path = _write(tmp_path, "big.json", {"command": "decompose", "model": {"matrix": MATRIX_2}})
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("MemoryError: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "where, below",
    [("--out", "sub"), ("output.path", "sub"), ("--out", ""), ("output.path", "")],
    ids=["out-flag-under-a-file", "output-path-under-a-file", "out-flag-a-file", "output-path-a-file"],
)
def test_an_output_directory_that_cannot_be_made_exits_1_with_one_line(
    tmp_path, capsys, where, below
):
    # the OSError of creating the directory used to escape main as a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / below if below else blocker
    cfg = {"command": "decompose", "model": {"matrix": MATRIX_2}}
    if where == "output.path":
        cfg["output"] = {"path": str(out)}
    path = _write(tmp_path, "cfg.json", cfg)
    flag_out = out if where == "--out" else tmp_path / "out"
    assert main(["--config", str(path), "--out", str(flag_out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"(FileExists|NotADirectory)Error: [^\n]+\n", err), err
    assert blocker.read_text() == ""


def test_metric_command(tmp_path):
    cfg_path = _write(
        tmp_path,
        "metric.json",
        {"command": "metric", "model": {"matrix": MATRIX_2}, "kappa": [1, 1]},
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "m"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "m" / "metric.json").read_text())
    assert payload["min_eig"] > 0
    assert payload["quasi_hermiticity_residual"] <= 1e-10
    theta = np.array([[complex(re, im) for re, im in row] for row in payload["theta"]])
    npt.assert_allclose(theta, theta.conj().T)


def test_hermitize_command(tmp_path):
    cfg_path = _write(
        tmp_path,
        "herm.json",
        {
            "command": "hermitize",
            "model": {"matrix": [[1, 0], [0, -1]]},
            "dyson": {"kind": "constant", "matrix": [[1, 0], [0, 1]]},
        },
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "h"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "h" / "hermitize.json").read_text())
    assert payload["hermiticity_residual"] <= 1e-12
    npt.assert_allclose(
        [complex(re, im) for re, im in payload["eigenvalues"]], [-1.0, 1.0]
    )


def test_naive_evolve_command(tmp_path):
    cfg = dict(EVOLVE_CFG)
    cfg["command"] = "naive-evolve"
    cfg_path = _write(tmp_path, "naive.json", cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "n"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "n" / "naive_trajectory_summary.json").read_text())
    assert summary["max_metric_drift"] >= 1e-3  # falsification-grade drive
    assert (tmp_path / "n" / "naive_trajectory.csv").exists()


def test_qs_check_hermitian_inputs(tmp_path):
    h0 = [[2, [0, 1]], [[0, -1], 3]]  # Hermitian with complex off-diagonal
    h1 = [[1, 0], [0, -1]]
    cfg_path = _write(
        tmp_path, "qs.json", {"command": "qs-check", "model": {"taylor": [h0, h1]}}
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert payload["status"] == "compatible"
    npt.assert_allclose(payload["kappa"], [1.0, 1.0], atol=1e-9)


def test_qs_check_with_a_zero_linear_coefficient_gives_the_order_2_verdict(tmp_path):
    # a zero H₁ used to end the run with exit 1 on a 0/0 weight ratio
    h0 = [[1, 2], [0, -1]]  # non-normal, real spectrum
    cfg_path = _write(tmp_path, "qs.json", {
        "command": "qs-check", "model": {"taylor": [h0, [[0, 0], [0, 0]], [[0, 1], [1, 0]]]},
    })
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert (payload["status"], payload["first_violation_order"]) == ("incompatible", 2)
    assert payload["kappa"] == [1.0, 1.0]


def test_qs_check_of_a_linear_coefficient_with_a_non_real_spectrum_is_incompatible(tmp_path):
    # H₁ is not factorized, so its spectrum ±i is no error: the congruence
    # weights refute every positive metric
    cfg_path = _write(tmp_path, "qs.json", {
        "command": "qs-check", "model": {"taylor": [[[1, 0], [0, 2]], [[0, -1], [1, 0]]]},
    })
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert (payload["status"], payload["kappa"]) == ("incompatible", None)
    assert "min Re = -1.000e+00" in payload["detail"]


#: a successful run that meets an ill-conditioned map, and its one warning line
ILL_CONDITIONED = {
    "command": "hermitize", "model": {"matrix": MATRIX_2},
    "dyson": {"kind": "constant", "matrix": [[1, 1], [1, 1.0000001]]},
}
ILL_CONDITIONED_LINE = (
    "IllConditionedWarning: map condition number 4.000e+07 exceeds 1e+06; "
    "Hermiticity residuals are not guaranteed\n"
)


def test_a_warning_of_a_successful_run_is_one_line(tmp_path):
    # in a fresh process, as a user runs the CLI: no file path, line number
    # or source echo of Python's own warning format
    cfg_path = _write(tmp_path, "h.json", ILL_CONDITIONED)
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "cryptoherm.cli", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 0
    assert result.stdout.startswith(f"wrote {tmp_path / 'out' / 'hermitize.json'} (")
    assert result.stderr == ILL_CONDITIONED_LINE


def test_main_hands_its_warnings_to_a_recording_caller_and_restores_the_format(tmp_path):
    cfg_path = _write(tmp_path, "h.json", ILL_CONDITIONED)
    formatwarning = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _cli(cfg_path, tmp_path / "out", "--quiet") == (0, "", "")
    assert [type(w.message).__name__ for w in caught] == ["IllConditionedWarning"]
    assert warnings.formatwarning is formatwarning


def test_qs_scan_seed_override(tmp_path):
    cfg_path = _write(
        tmp_path,
        "scan.json",
        {"command": "qs-scan", "sampler": "shared", "trials": 3, "n": 3, "seed": 5},
    )
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "s1"), "--quiet"]) == 0
    assert (
        main(
            [
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "s2"),
                "--seed",
                "5",
                "--quiet",
            ]
        )
        == 0
    )
    a = (tmp_path / "s1" / "qs_scan.json").read_bytes()
    b = (tmp_path / "s2" / "qs_scan.json").read_bytes()
    assert a == b
    payload = json.loads(a)
    assert payload["compatible"] == 3


def test_demo_outputs_show_drift_gap(tmp_path):
    cfg_path = _write(tmp_path, "demo.json", {"command": "demo"})
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "demo"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "demo" / "demo_summary.json").read_text())
    assert summary["naive_metric_drift"] >= 1e-3
    assert summary["naive_metric_drift"] >= 100 * summary["covariant_metric_drift"]
    assert (tmp_path / "demo" / "covariant.csv").exists()
    assert (tmp_path / "demo" / "naive.csv").exists()


def test_rerun_byte_identical(tmp_path):
    cfg_path = _write(tmp_path, "demo.json", {"command": "demo"})
    main(["--config", str(cfg_path), "--out", str(tmp_path / "r1"), "--quiet"])
    main(["--config", str(cfg_path), "--out", str(tmp_path / "r2"), "--quiet"])
    for name in ("covariant.csv", "naive.csv", "demo_summary.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_crosscheck_command(tmp_path):
    cfg = dict(EVOLVE_CFG)
    cfg["command"] = "crosscheck"
    cfg_path = _write(tmp_path, "cc.json", cfg)
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "cc"), "--quiet"]) == 0
    payload = json.loads((tmp_path / "cc" / "crosscheck.json").read_text())
    assert payload["max_pairwise_deviation"] <= 1e-7


def _exit_code(tmp_path, cfg, *flags):
    """Exit code of a CLI run of ``cfg`` into ``tmp_path / "out"``."""
    path = _write(tmp_path, "cfg.json", cfg)
    return main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet", *flags])


SCENARIO = {"model": {"scenario": "falsification"}, "step": 0.01}
EYE_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "cfg, code",
    [
        # demo runs on the grid its step was validated against
        ({"command": "demo", "grid": {"t_start": 0, "t_end": 1, "n_samples": 3}, "step": 0.5}, 0),
        # inputs given beside a scenario are checked against its dimension
        ({"command": "evolve", **SCENARIO, "psi0": [1, 2, 3]}, 2),
        ({"command": "evolve", **SCENARIO, "dyson": {"kind": "constant", "matrix": EYE_3}}, 2),
        ({"command": "evolve", **SCENARIO, "phi0": [1, 0, 0]}, 2),
    ],
)
def test_scenario_inputs_are_validated_as_they_run(tmp_path, cfg, code):
    assert _exit_code(tmp_path, cfg) == code
    assert (tmp_path / "out").exists() == (code == 0)
    if cfg["command"] == "demo":
        rows = (tmp_path / "out" / "covariant.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.5, 1.0]


def test_scenario_fills_only_what_the_config_leaves_out(tmp_path):
    cfg = parse_config(json.dumps({"command": "evolve", **SCENARIO, "phi0": [0, 1]}))
    npt.assert_array_equal(cfg.phi0, [0, 1])
    assert cfg.dyson is not None and cfg.grid.size == 21
    assert _exit_code(tmp_path, {"command": "evolve", **SCENARIO, "phi0": [0, 1]}) == 0
    first = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert [float(x) for x in first[1:5]] == [0.0, 0.0, 1.0, 0.0]


SCAN = {"command": "qs-scan", "sampler": "shared", "trials": 1, "n": 3}


@pytest.mark.parametrize("key, value", [("trials", True), ("seed", True), ("seed", -1)])
def test_booleans_and_negative_seeds_exit_2(tmp_path, key, value):
    assert _exit_code(tmp_path, dict(SCAN, **{key: value})) == 2
    assert not (tmp_path / "out").exists()


def test_flags_do_not_leak_into_the_next_call(tmp_path, capsys):
    # one parser serves every call in a process
    path = _write(tmp_path, "scan.json", dict(SCAN, seed=5))
    seeds = []
    for i, flags in enumerate((["--seed", "6", "--quiet"], [])):
        out = tmp_path / f"out{i}"
        assert main(["--config", str(path), "--out", str(out), *flags]) == 0
        seeds.append(json.loads((out / "qs_scan.json").read_text())["seed"])
    assert seeds == [6, 5]
    assert capsys.readouterr().out.count("wrote") == 1


def test_exhausted_resampling_exits_1_with_one_typed_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(models, "DEFAULT_COND_CAP", 1.0)
    assert _exit_code(tmp_path, dict(SCAN, trials=5)) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ResampleExhausted: no similarity transform with condition <= 1.0 in 100 draws"
    ]


def test_negative_seed_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        _exit_code(tmp_path, SCAN, "--seed", "-1")
    assert excinfo.value.code == 2
    assert not (tmp_path / "out").exists()


def test_grid_sample_cap_rejects_before_allocating(tmp_path):
    cfg = dict(EVOLVE_CFG, grid={"t_start": 0.0, "t_end": 1.0, "n_samples": 10**12})
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="n_samples"):
            parse_config(json.dumps(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _exit_code(tmp_path, cfg) == 2


#: one accepted configuration per command
VALID = {
    "decompose": {"command": "decompose", "model": {"matrix": MATRIX_2}},
    "metric": {"command": "metric", "model": {"matrix": MATRIX_2}, "kappa": [1, 1]},
    "hermitize": {
        "command": "hermitize",
        "model": {"matrix": MATRIX_2},
        "dyson": {"kind": "constant", "matrix": [[1, 0], [0, 1]]},
    },
    **{name: dict(EVOLVE_CFG, command=name) for name in ("evolve", "naive-evolve", "crosscheck")},
    "qs-check": {"command": "qs-check", "model": {"taylor": [[[1, 0], [0, 2]], [[1, 0], [0, -1]]]}},
    "qs-scan": SCAN,
    "demo": {"command": "demo"},
}

#: one invalid value per top-level key, set on an otherwise valid config
INVALID = {
    "command": "nope",
    "model": {},
    "dyson": {"kind": "constant", "matrix": [[1, 2], [2, 4]]},
    "grid": {"t_start": 0, "t_end": 1, "n_samples": True},
    "step": True,
    "phi0": [True, 0],
    "psi0": [],
    "kappa": [1, True],
    "t": True,
    "tolerances": {"tol_qs": True},
    "seed": 1.0,
    "trials": 0,
    "n": True,
    "sampler": ["shared"],
    "output": {"format": "xml"},
}

# a requirement is left out by dropping its top-level key; demo has none
# to drop, since the falsification scenario fills every input it needs
REQUIREMENTS = [
    (name, key)
    for name, command in COMMANDS.items()
    for key in command.needs
    if key.split(".")[0] in VALID[name]
]


def test_tables_are_covered():
    assert set(VALID) == set(COMMANDS)
    assert set(INVALID) == set(cli._KEYS)
    assert {name for name, _ in REQUIREMENTS} == set(COMMANDS) - {"demo"}


#: further invalid values of keys that can be wrong in more than one way
MORE_INVALID = [
    ("output", {"path": None}),
    ("output", {"path": 3}),
    ("output", {"path": ["out"]}),
    ("output", {"path": ""}),
    ("output", "out"),
    ("trials", quasistationary.MAX_TRIALS + 1),
    ("model", [[1, 0], [0, 1]]),
    ("model", {"matrix": 3}),
    ("model", {"taylor": {"0": [[1]]}}),
    ("model", {"taylor": [[[1, 0], [0, -1]], [[1]]]}),
    ("dyson", [[1, 0], [0, 1]]),
    ("dyson", {"kind": "linear", "generator": [[0, 1], [0, 0]], "theta": [0.0]}),
    ("dyson", {"kind": "exp_poly", "generator": [[0, 1], [0, 0]]}),
    ("dyson", {"kind": "constant"}),
    ("dyson", {"kind": "exp_poly", "generator": [[0, 1], [0, 0]], "theta": ["1"]}),
    ("dyson", {"kind": "exp_poly", "generator": [[0, 1], [0, 0]], "theta": 1.0}),
    ("grid", [0.0, 1.0, 5]),
    ("tolerances", 1e-8),
]


def _assert_rejected(tmp_path, monkeypatch, key, value):
    """Parsing names ``key``, and the CLI exits 2 writing nothing, not even
    relative to the working directory."""
    cfg = dict(EVOLVE_CFG, **{key: value})
    with pytest.raises(ValidationError, match=rf"(^|; ){re.escape(key)}\b"):
        parse_config(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert _exit_code(tmp_path, cfg) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("key", sorted(INVALID))
def test_every_key_rejects_an_invalid_value(tmp_path, monkeypatch, key):
    _assert_rejected(tmp_path, monkeypatch, key, INVALID[key])


@pytest.mark.parametrize("key, value", MORE_INVALID)
def test_more_invalid_values_are_rejected(tmp_path, monkeypatch, key, value):
    _assert_rejected(tmp_path, monkeypatch, key, value)


@pytest.mark.parametrize("document", ["[1, 2]", '"evolve"', "3", "null"])
def test_a_document_that_is_not_an_object_is_a_parse_error(tmp_path, document, capsys):
    with pytest.raises(ParseError, match="must be a JSON object"):
        parse_config(document)
    path = tmp_path / "cfg.json"
    path.write_text(document)
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("ParseError: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (dict(EVOLVE_CFG, command="crosscheck", psi0=EVOLVE_CFG["phi0"]), "crosscheck derives psi0"),
        (
            {"command": "qs-check", "model": {"taylor": [[[1, 0], [0, 2]]]}},
            "qs-check needs at least two taylor coefficients",
        ),
        (dict(EVOLVE_CFG, model={"scenario": "nope"}), "unknown scenario 'nope'"),
    ],
    ids=["crosscheck-psi0", "qs-check-one-coefficient", "unknown-scenario"],
)
def test_a_config_the_command_cannot_run_exits_2(tmp_path, cfg, message):
    with pytest.raises(ValidationError, match=message):
        parse_config(json.dumps(cfg))
    assert _exit_code(tmp_path, cfg) == 2
    assert not (tmp_path / "out").exists()


def test_a_configured_output_path_is_used_over_the_out_flag(tmp_path):
    chosen = tmp_path / "chosen"
    cfg = dict(VALID["decompose"], output={"path": str(chosen)})
    assert _exit_code(tmp_path, cfg) == 0
    assert [p.name for p in chosen.iterdir()] == ["decomposition.json"]
    assert not (tmp_path / "out").exists()


def test_evolve_writes_its_trajectory_as_json_when_configured(tmp_path):
    cfg = dict(EVOLVE_CFG, output={"format": "json"})
    assert _exit_code(tmp_path, cfg) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "trajectory.json", "trajectory_summary.json",
    ]
    payload = json.loads((tmp_path / "out" / "trajectory.json").read_text())
    assert sorted(payload) == ["drift", "overlap", "phi", "psi", "times"]
    assert payload["times"] == np.linspace(0.0, 1.0, 5).tolist()
    # the same trajectory the CSV writer writes, bit for bit
    (tmp_path / "csv").mkdir()
    assert _exit_code(tmp_path / "csv", EVOLVE_CFG) == 0
    rows = np.loadtxt(tmp_path / "csv" / "out" / "trajectory.csv", delimiter=",", skiprows=1)
    phi = np.array(payload["phi"])
    npt.assert_array_equal(rows[:, 1:5], phi.reshape(5, 4))
    npt.assert_array_equal(rows[:, -1], payload["drift"])


#: each tolerance key, a command that reads it, and the library call it reaches
TOLERANCES = [
    ("tol_qs", VALID["qs-check"], "qs_certify"),
    ("tol_qs", VALID["qs-scan"], "qs_scan"),
    ("decompose_tol", VALID["decompose"], "biorthogonal_decompose"),
    ("decompose_tol", VALID["metric"], "biorthogonal_decompose"),
]


@pytest.mark.parametrize("key, cfg, name", TOLERANCES, ids=[c["command"] for _, c, _ in TOLERANCES])
def test_every_tolerance_reaches_its_library_call(tmp_path, monkeypatch, key, cfg, name):
    seen = []
    call = getattr(cli, name)

    def spy(*args):
        seen.append(args[-1])
        return call(*args)

    monkeypatch.setattr(cli, name, spy)
    assert _exit_code(tmp_path, dict(cfg, tolerances={key: 2.5e-7})) == 0
    assert seen == [2.5e-7]


def test_trials_cap_rejects_before_sampling(tmp_path):
    cfg = dict(SCAN, trials=10**9)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="trials"):
            parse_config(json.dumps(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _exit_code(tmp_path, cfg) == 2
    assert parse_config(json.dumps(dict(SCAN, trials=quasistationary.MAX_TRIALS))).trials == 10**5


@pytest.mark.parametrize("name, key", REQUIREMENTS)
def test_every_requirement_is_checked(tmp_path, name, key):
    cfg = {k: v for k, v in VALID[name].items() if k != key.split(".")[0]}
    with pytest.raises(ValidationError, match=f"{name} needs {re.escape(key)}"):
        parse_config(json.dumps(cfg))
    assert _exit_code(tmp_path, cfg) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(VALID))
def test_every_command_accepts_its_valid_config(name):
    assert parse_config(json.dumps(VALID[name])).command == name


# ---------------------------------------------------------------------------
# fuzzed configs: VALID with at most two keys replaced or dropped
# ---------------------------------------------------------------------------

#: a real entry in [−10, 10], none of it near the float limits
_ENTRY = st.integers(-40, 40).map(lambda i: i / 4) | st.floats(1e-3, 10) | st.floats(-10, -1e-3)
_COMPLEX = _ENTRY | st.lists(_ENTRY, min_size=2, max_size=2)
_DIM = st.integers(1, 3)


def _matrices(d):
    return st.lists(st.lists(_COMPLEX, min_size=d, max_size=d), min_size=d, max_size=d)


_MATRIX = _DIM.flatmap(_matrices)

#: small random values of each key, most of them valid on their own
SMALL = {
    "command": st.sampled_from(list(COMMANDS)),
    "model": st.one_of(
        _MATRIX.map(lambda m: {"matrix": m}),
        _DIM.flatmap(lambda d: st.lists(_matrices(d), min_size=1, max_size=3)).map(
            lambda coeffs: {"taylor": coeffs}
        ),
        st.just({"scenario": "falsification"}),
    ),
    "dyson": st.one_of(
        _MATRIX.map(lambda m: {"kind": "constant", "matrix": m}),
        st.builds(
            lambda g, theta: {"kind": "exp_poly", "generator": g, "theta": theta},
            _MATRIX, st.lists(_ENTRY, max_size=3),
        ),
    ),
    # intervals of k/20, which the steps 0.01 and 0.05 divide
    "grid": st.builds(
        lambda a, k, n: {"t_start": a, "t_end": a + k * (n - 1) / 20, "n_samples": n},
        st.integers(-8, 8).map(lambda i: i / 4), st.integers(1, 4), st.integers(2, 11),
    ),
    "step": st.sampled_from([0.01, 0.05, 0.25]) | st.floats(1e-2, 10),
    "phi0": st.lists(_COMPLEX, min_size=1, max_size=3),
    "psi0": st.lists(_COMPLEX, min_size=1, max_size=3),
    "kappa": st.lists(_ENTRY, min_size=1, max_size=3),
    "t": _ENTRY,
    "tolerances": st.fixed_dictionaries(
        {}, optional={"tol_qs": st.floats(1e-12, 1.0), "decompose_tol": st.floats(1e-12, 1.0)}
    ),
    "seed": st.integers(0, 2**32),
    "trials": st.integers(1, 3),
    "n": st.integers(2, 3),
    "sampler": st.sampled_from(sorted(quasistationary.SAMPLERS)),
    "output": st.fixed_dictionaries({"format": st.sampled_from(["csv", "json"])}),
}

_DROP = object()


@st.composite
def _fuzzed_configs(draw):
    """``VALID[command]`` with at most two keys dropped or replaced by a value
    of ``INVALID``, ``MORE_INVALID`` or ``SMALL``."""
    cfg = dict(VALID[draw(st.sampled_from(sorted(VALID)))])
    for key in draw(st.lists(st.sampled_from(sorted(cli._KEYS)), max_size=2, unique=True)):
        invalid = st.sampled_from([INVALID[key]] + [v for k, v in MORE_INVALID if k == key])
        value = draw(invalid | SMALL[key] | st.just(_DROP))
        if value is _DROP:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


def _cli(path, out, *flags):
    """Exit code, stdout and stderr of one in-process CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--config", str(path), "--out", str(out), *flags])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cfg=_fuzzed_configs())
def test_fuzzed_configs_end_in_one_line_and_rerun_byte_identical(tmp_path, cfg):
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        work = Path(work)
        path = _write(work, "cfg.json", cfg)
        code, out, err = _cli(path, work / "a")
        assert code in (0, 1, 2)
        if code:
            assert out == "" and re.fullmatch(r"[A-Za-z_]\w*: [^\n]+\n", err), err
        else:
            assert err == "" and re.fullmatch(r"wrote \S[^\n]* \([^\n]+\)\n", out), out
            assert _cli(path, work / "b", "--quiet") == (0, "", "")
            first, second = (sorted(p.name for p in (work / d).iterdir()) for d in "ab")
            assert first == second
            assert all((work / "a" / n).read_bytes() == (work / "b" / n).read_bytes() for n in first)
    # no run switched off the suite's error::RuntimeWarning filter
    with pytest.raises(RuntimeWarning):
        warnings.warn("probe", RuntimeWarning)


def test_readme_lists_exactly_the_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    assert re.findall(r"^\| `([a-z-]+)` \|", section, re.M) == list(COMMANDS)


# ---------------------------------------------------------------------------
# whole-array JSON writing and matrix parsing
# ---------------------------------------------------------------------------

def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


SPECIAL_FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-05, 1e16, 5e-324, 0.1, 2.0])


@pytest.mark.parametrize(
    "payload",
    [
        {
            "flat": SPECIAL_FLOATS,
            "pairs": SPECIAL_FLOATS[:8].reshape(2, 2, 2),
            "empty": np.zeros(0),
            "empty_rows": np.zeros((2, 0)),
            "no_rows": np.zeros((0, 3)),
            "scalar": np.array(-0.0),
            "nan_scalar": np.array(np.nan),
            "none": None,
            "nested": {"b": {"list": [1, 2.5, "text", True, None], "empty": {}}, "a": []},
            "integers": np.arange(3),
        },
        SPECIAL_FLOATS.reshape(3, 3),
        [SPECIAL_FLOATS, (1, [])],
        {},
        np.zeros((1, 1, 0)),
        "é",
        # shapes with 0 and 1 entries along an axis, at three nesting levels
        {"a": [{"b": np.resize(np.append(SPECIAL_FLOATS, 1e308), shape)} for shape in (
            (0,), (1,), (1, 1), (0, 1), (1, 0), (2, 0, 1), (1, 2, 1)
        )]},
    ],
)
def test_json_writer_matches_json_dumps(tmp_path, payload):
    path = cli._write_json(tmp_path / "out.json", payload)
    expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


#: where orjson's spelling leaves repr's: its exponents from below 1e-4 and
#: from 1e16 on, and the neighbours on both sides of those bounds
SPELLING_EDGES = [
    np.nextafter(bound, toward)
    for bound in (1e-4, -1e-4, 1e16, -1e16)
    for toward in (-np.inf, bound, np.inf)
]


@st.composite
def _float_arrays(draw):
    n, r, c = draw(st.integers(0, 40)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    shape = draw(st.sampled_from([(n,), (n, 2), (r, c, 2)]))
    # any bit pattern: subnormals, ±0, NaN with any payload and ±inf included
    floats = st.one_of(
        st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64)),
        st.sampled_from(SPELLING_EDGES + [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]),
    )
    values = draw(st.lists(floats, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=np.float64).reshape(shape)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(array=_float_arrays())
def test_json_float_spelling_is_json_dumps(tmp_path, array):
    payload = {"array": array, "nested": [array]}
    path = cli._write_json(tmp_path / "out.json", payload)
    expected = json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode()


#: (matrix, the messages parsing it gives), each as the entry-by-entry parser gave them
MATRIX_MESSAGES = [
    ([[1, [True, 0]], [0, 1]], ["m[0][1] must be a finite number or a [re, im] pair"]),
    ([[1, "2"], [0, 1]], ["m[0][1] must be a finite number or a [re, im] pair"]),
    ([[1, 0], [float("inf"), 1]], ["m[1][0] must be a finite number or a [re, im] pair"]),
    ([[1, [0, 10**400]], [0, 1]], ["m[0][1] must be a finite number or a [re, im] pair"]),
    ([[1, [1, 2, 3]], [0, 1]], ["m[0][1] must be a finite number or a [re, im] pair"]),
    (
        [[1, "x", 0], [True, [0, 1], 2], [3]],
        [
            "m[0][1] must be a finite number or a [re, im] pair",
            "m[1][0] must be a finite number or a [re, im] pair",
            "m row 2 must have 3 entries (square matrix)",
        ],
    ),
    ([[1, 2, 3], [0, 1]], ["m row 0 must have 2 entries (square matrix)"]),
]


@pytest.mark.parametrize("matrix, messages", MATRIX_MESSAGES)
def test_matrix_parser_names_each_offending_entry(matrix, messages):
    errors = []
    cli._matrix(matrix, errors, "m")
    assert errors == messages


@pytest.mark.parametrize(
    "entries, messages",
    [
        ([1, [True, 0]], ["v[1] must be a finite number or a [re, im] pair"]),
        (
            ["a", 1e999, [0, 10**400], [1, 2, 3], None],
            [f"v[{k}] must be a finite number or a [re, im] pair" for k in range(5)],
        ),
    ],
)
def test_vector_parser_names_each_offending_entry(entries, messages):
    errors = []
    cli._vector("v")(entries, errors)
    assert errors == messages


def test_whole_array_parse_equals_entry_by_entry():
    matrix = [[1, [0.5, -0.25], 10**30], [-0.0, [2, 1e-300], [0, -0.0]], [3.5, [1e308, 5e-324], 7]]
    errors = []
    parsed = cli._matrix(matrix, errors, "m")
    expected = np.array([[cli._complex_entry(x, errors, "m") for x in row] for row in matrix])
    assert errors == []
    assert parsed.dtype == complex and parsed.shape == (3, 3)
    assert parsed.tobytes() == expected.tobytes()
    top = sys.float_info.max
    vector = cli._vector("v")([top, [0, -top]], errors)["v"]
    assert vector.tobytes() == np.array([top, complex(0, -top)]).tobytes()
    assert errors == []
    errors = []
    cli._vector("v")([2**1024 - 2**970 - 1], errors)  # an integer that rounds to the float maximum
    assert errors == ["v[0] must be a finite number or a [re, im] pair"]


# ---------------------------------------------------------------------------
# the demo's one RK4 run, and the template writers of trajectories
# ---------------------------------------------------------------------------

def test_demo_makes_one_rk4_run_equal_to_evolve_and_naive_evolve(tmp_path, monkeypatch):
    from cryptoherm import evolution

    calls, rk4 = [], evolution._rk4
    monkeypatch.setattr(evolution, "_rk4", lambda *args: calls.append(1) or rk4(*args))
    assert _exit_code(tmp_path, {"command": "demo"}) == 0
    assert len(calls) == 1
    demo = tmp_path / "out"
    # the same falsification inputs, one propagator per run
    for command, name, alone in (
        ("evolve", "covariant", "trajectory"), ("naive-evolve", "naive", "naive_trajectory")
    ):
        path = _write(tmp_path, f"{command}.json", {"command": command, **SCENARIO, "step": 1e-3})
        assert main(["--config", str(path), "--out", str(tmp_path / command), "--quiet"]) == 0
        written = (tmp_path / command / f"{alone}.csv").read_bytes()
        assert (demo / f"{name}.csv").read_bytes() == written
        summary = json.loads((tmp_path / command / f"{alone}_summary.json").read_text())
        demo_summary = json.loads((demo / "demo_summary.json").read_text())
        assert demo_summary[f"{name}_metric_drift"] == summary["max_metric_drift"]
        assert demo_summary[f"{name}_norm_drift"] == summary["max_norm_drift"]
    assert len(calls) == 3


#: floats whose shortest and 17-digit spellings are easy to get wrong
WRITER_FLOATS = [-0.0, 5e-324, 1e308, 0.1, 3.0, -2.0, 1e16, 0.0]


def _trajectory(samples, dim, values):
    """A trajectory whose t, Φ, Ψ and overlap floats cycle through ``values``,
    with the library's drift of that overlap."""
    from cryptoherm.evolution import StateTrajectory

    floats = np.resize(np.array(values), (samples, 4 * dim + 3))
    c = np.ascontiguousarray(floats[:, 1:]).view(complex)
    overlap = c[:, -1]
    with np.errstate(invalid="ignore"):  # inf − inf in the overlap excursion
        drift = np.maximum.accumulate(np.abs(overlap - overlap[0]))
    zeros = np.zeros(samples)
    return StateTrajectory(floats[:, 0], c[:, :dim], c[:, dim:-1], overlap, drift, zeros, 0.0)


def _assert_writers_match(tmp_path, samples, dim):
    """Both trajectory formats equal the whole text of per-float formatting
    and ``json.dumps``."""
    traj = _trajectory(samples, dim, WRITER_FLOATS)
    drift = np.maximum.accumulate(np.abs(traj.overlap - traj.overlap[0]))
    pairs = lambda z: np.stack([z.real, z.imag], -1)
    rows = [
        [t, *pairs(phi).ravel(), *pairs(psi).ravel(), o.real, o.imag, d]
        for t, phi, psi, o, d in zip(traj.times, traj.phi, traj.psi, traj.overlap, drift)
    ]
    path = cli._write_trajectory(tmp_path / "traj", traj, "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == samples + 1 and lines[0].split(",")[0] == "t"
    assert lines[1:] == [",".join(format(float(x), ".17g") for x in row) for row in rows]

    # JSON, with the non-finite spellings as well (inf − inf in the drift is nan)
    traj = _trajectory(samples, dim, WRITER_FLOATS + [np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        drift = np.maximum.accumulate(np.abs(traj.overlap - traj.overlap[0]))
        path = cli._write_trajectory(tmp_path / "traj", traj, "json")
    expected = {
        "times": traj.times.tolist(),
        "phi": pairs(traj.phi).tolist(),
        "psi": pairs(traj.psi).tolist(),
        "overlap": pairs(traj.overlap).tolist(),
        "drift": drift.tolist(),
    }
    assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("samples, dim", [(1, 1), (3, 2), (1, 4)])
def test_trajectory_writers_match_per_float_formatting(tmp_path, samples, dim):
    _assert_writers_match(tmp_path, samples, dim)


@pytest.mark.parametrize(
    "piece_floats, samples, dim",
    [
        # pieces of one CSV row, two Φ entries and ten times
        (10, 23, 2),
        # a piece smaller than one row, and than one Φ entry
        (3, 7, 2),
        # the module's own piece size, two full times pieces and a partial one
        (cli.PIECE_FLOATS, 2 * cli.PIECE_FLOATS + 3, 1),
    ],
)
def test_writers_in_pieces_match_the_whole_text(
    tmp_path, monkeypatch, piece_floats, samples, dim
):
    # a value cycle of 11 floats puts NaN and ±inf on both sides of every
    # piece boundary of the JSON arrays
    assert samples % piece_floats
    monkeypatch.setattr(cli, "PIECE_FLOATS", piece_floats)
    _assert_writers_match(tmp_path, samples, dim)
    payload = {
        "a": np.resize(SPECIAL_FLOATS, (samples, 3, 2)), "b": [np.resize(SPECIAL_FLOATS, 13)]
    }
    path = cli._write_json(tmp_path / "out.json", payload)
    assert path.read_text() == json.dumps(_as_lists(payload), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_writer_memory_does_not_grow_with_the_samples(tmp_path, fmt):
    # the whole text of 20 001 samples took 15 MiB (CSV) and 17 MiB (JSON)
    peaks = []
    for samples in (2001, 20001):
        traj = _trajectory(samples, 2, WRITER_FLOATS + [np.nan, np.inf, -np.inf])
        tracemalloc.start()
        try:
            with np.errstate(invalid="ignore"):
                cli._write_trajectory(tmp_path / "traj", traj, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) < 512 * 1024, peaks
