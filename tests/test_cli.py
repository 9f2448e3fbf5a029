"""End-to-end tests for the command-line interface."""

import csv
import glob
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logdet_equiv import (
    cli,
    operator_norm,
    parse_matrix_arg,
    read_config,
    realize,
    sample,
    smallest_singular_value,
    write_matrix_csv,
)

SUBCOMMANDS = ("equiv", "grushin-verify", "mc", "sweep", "field", "probe-noise")


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_equiv_jordan(capsys):
    code = cli.main(["equiv", "--matrix", "jordan", "--n", "64", "--alpha", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rhs = 0.0" in out
    assert "M = 1" in out
    assert "bpz_inclusive = -inf" in out
    assert "bpz_drop_all_small = 0.0" in out


def test_equiv_shifted_zero_matrix(capsys):
    code = cli.main(["equiv", "--matrix", "zero", "--n", "32", "--shift", "2", "--alpha", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "matrix = zero N=32 shift=(2+0j)" in out
    assert f"rhs = {2 * 0.34657359027997264!r}" in out  # log 2


def test_grushin_verify_passes(tmp_path, capsys):
    code = cli.main(
        ["grushin-verify", "--matrix", "diag:2x9,0x3", "--n", "12",
         "--alpha", "1.0", "--delta", "1e-4", "--gamma", "4.0", "--trials", "3",
         "--out", str(tmp_path / "suite")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ok = True" in out
    assert (tmp_path / "suite_checks.json").exists()
    assert (tmp_path / "suite_summary.json").exists()


def test_grushin_verify_failure_exit(monkeypatch, capsys):
    def fake_suite(config, workers=1):
        summary = {
            "checks_total": 1, "checks_failed": 1, "alpha": 1.0, "M": 1,
            "delta": 0.0, "ok": False,
            "failing": [{"check": "det_identity", "lhs": 1.0, "rhs": 2.0}],
        }
        return [], summary

    monkeypatch.setattr(cli, "run_grushin_suite", fake_suite)
    code = cli.main(["grushin-verify", "--matrix", "jordan", "--n", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "FAILED det_identity" in captured.err
    assert "lhs=1.0 rhs=2.0" in captured.err


def test_mc_with_flags(tmp_path, capsys):
    code = cli.main(
        ["mc", "--matrix", "diag:2x9,0x3", "--n", "12", "--alpha", "1.0",
         "--delta", "1e-4", "--gamma", "4.0", "--trials", "4", "--seed", "3",
         "--out", str(tmp_path / "run")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "N = 12" in out and "trials = 4" in out
    assert "eps_hat = unavailable" in out
    assert (tmp_path / "run_records.csv").exists()
    assert json.loads((tmp_path / "run_summary.json").read_text())["trials"] == 4


def test_mc_config_with_overrides(tmp_path, capsys):
    code = cli.main(
        ["mc", "--config", "configs/jordan500.json", "--n", "20", "--trials", "2",
         "--delta", "1e-4", "--out", str(tmp_path / "small")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "N = 20" in out and "trials = 2" in out
    summary = json.loads((tmp_path / "small_summary.json").read_text())
    assert summary["config"]["matrix"]["n"] == 20
    assert summary["config"]["params"]["delta"] == 1e-4


def test_mc_config_multiband_diagonal_resize_rejected(capsys):
    assert cli.main(["mc", "--config", "configs/diag200.json", "--n", "20"]) == 3
    assert "configuration error" in capsys.readouterr().err


def test_mc_probe_eps_flag(capsys):
    code = cli.main(
        ["mc", "--matrix", "diag:2x9,0x3", "--n", "12", "--alpha", "1.0",
         "--delta", "1e-4", "--gamma", "4.0", "--trials", "3", "--probe-eps"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "eps_hat = unavailable" not in out


def test_probe_eps_accepts_every_delta_that_mc_accepts(capsys):
    # delta sits just under N^-gamma = 1e-4, inside the window gate's relative slack of 1e-12.
    argv = ["mc", "--matrix", "jordan", "--n", "100", "--alpha", "0.5", "--gamma", "2",
            "--delta", "9.9999999999990e-05", "--trials", "3"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert cli.main([*argv, "--probe-eps"]) == 0
    probed = capsys.readouterr().out.splitlines()
    assert [line for line in plain if not line.startswith("eps_hat = ")] == [
        line for line in probed if not line.startswith("eps_hat = ")
    ]
    assert "eps_hat = unavailable" in plain and "eps_hat = 0.0" in probed


def test_mc_probe_eps_hat_is_pinned(tmp_path, capsys):
    # Taken before the probe stopped measuring s_min(A + G): 3 of 7 draws fall under N^-(gamma + beta).
    payload = {**HOSTILE_BASE, "trials": 7, "seed": 11}
    payload["params"] = {**HOSTILE_BASE["params"], "tau": 10.0, "beta": 0.25}
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["mc", "--config", str(path), "--probe-eps"]) == 0
    out = capsys.readouterr().out
    assert "eps_hat = 0.42857142857142855" in out.splitlines()


# sha256 of probe-noise --n 24 --trials 100 --n-list 8,16 --beta-list 0.5,1, taken before the three
# probes shared one draw loop.
PROBE_NOISE_SHA256 = {
    "probes.csv": "beecd06e16b621e7d467855ef93d7fc1af3542cf65fa3f0bb17e9338b6558b06",
    "summary.json": "a1b7956f7788826f43938e468758dd7f935f0bd9bfdd19358e29416acdea2a98",
}


def test_probe_noise_artifacts_are_pinned(tmp_path, capsys):
    argv = ["probe-noise", "--n", "24", "--trials", "100", "--n-list", "8,16", "--beta-list", "0.5,1"]
    assert cli.main([*argv, "--out", str(tmp_path / "p")]) == 0
    capsys.readouterr()
    for suffix, digest in PROBE_NOISE_SHA256.items():
        assert hashlib.sha256((tmp_path / f"p_{suffix}").read_bytes()).hexdigest() == digest


def test_unallocatable_size_exits_three(capsys):
    # 1.42 PiB exceeds any user address space, so the allocation fails at once, touching no page.
    assert cli.main(["mc", "--matrix", "jordan", "--n", "10000000", "--delta", "0", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert "configuration error: Unable to allocate 1.42 PiB" in err
    assert "(10000000, 10000000)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--config", "/no/such/file.json"],
        ["mc", "--matrix", "jordan"],  # --n missing
        ["mc", "--matrix", "diag:nonsense", "--n", "8"],
        ["mc", "--matrix", "jordan", "--n", "8", "--workers", "0"],
        ["mc", "--matrix", "jordan", "--n", "8", "--shift", "abc"],
        ["sweep", "--matrix", "jordan", "--n", "8"],  # no n-list anywhere
        ["sweep", "--matrix", "jordan", "--n", "8", "--n-list", "32,16"],
        ["field", "--matrix", "jordan", "--n", "8"],  # no grid anywhere
        ["field", "--matrix", "jordan", "--n", "8", "--re-min", "0", "--re-max", "1", "--steps", "2"],
    ],
)
def test_config_errors_exit_three(argv, capsys):
    assert cli.main(argv) == 3
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["mc", "--matrix", "jordan", "--n", "8", "--delta", "nan"], "config.params.delta: expected float, got nan"),
        (["equiv", "--matrix", "jordan", "--n", "8", "--eta", "nan"], "config.params.eta: expected float, got nan"),
        (["sweep", "--matrix", "jordan", "--n", "8", "--n-list", "8,16", "--gamma", "nan"], "config.params.gamma"),
        (["field", "--config", "configs/field_jordan.json", "--n", "8", "--re-max", "inf"], "config.z_grid.re_max"),
        (["mc", "--matrix", "jordan", "--n", "8", "--shift", "nan"], "config.matrix.shift"),
        (["mc", "--matrix", "jordan", "--n", "8", "--alpha=-inf"], "config.params.alpha"),
        (["equiv", "--config", "configs/jordan500.json", "--n", "0"], "matrix size must be >= 1, got 0"),
        (["sweep", "--config", "configs/jordan_sweep.json", "--n-list", ""], "needs a nonempty N_list"),
        (["probe-noise", "--n", "0", "--trials", "100", "--n-list", "4,8"], "matrix size must be >= 1, got 0"),
        (["sweep", "--matrix", "jordan", "--n", "8", "--n-list", "8,16", "--gamma", "0.3"],
         "gamma must exceed 1/2, got 0.3"),
        (["equiv", "--matrix", "jordan", "--n", "8", "--workers", "0"], "workers must be >= 1, got 0"),
    ],
)
def test_given_flag_is_checked_like_a_config_value(capsys, argv, named):
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "configuration error: " in err and named in err
    assert "Traceback" not in err


def test_shift_flag_applies_to_a_config_matrix(capsys):
    assert cli.main(["equiv", "--config", "configs/jordan500.json", "--n", "8", "--shift", "2"]) == 0
    assert "matrix = jordan N=8 shift=(2+0j)" in capsys.readouterr().out


def test_malformed_json_exit_three(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json\n")
    assert cli.main(["mc", "--config", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_workers_env_var_junk(monkeypatch, capsys):
    monkeypatch.setenv("LOGDET_EQUIV_WORKERS", "many")
    code = cli.main(
        ["mc", "--matrix", "diag:2x9,0x3", "--n", "12", "--alpha", "1.0",
         "--delta", "1e-4", "--gamma", "4.0", "--trials", "2"]
    )
    assert code == 3
    assert "LOGDET_EQUIV_WORKERS" in capsys.readouterr().err


def test_workers_env_var_used(monkeypatch, capsys):
    monkeypatch.setenv("LOGDET_EQUIV_WORKERS", "3")
    code = cli.main(
        ["mc", "--matrix", "diag:2x9,0x3", "--n", "12", "--alpha", "1.0",
         "--delta", "1e-4", "--gamma", "4.0", "--trials", "5"]
    )
    assert code == 0
    assert "trials = 5" in capsys.readouterr().out


def test_sweep_from_flags(capsys):
    code = cli.main(
        ["sweep", "--matrix", "jordan", "--n", "16", "--n-list", "16,32",
         "--gamma", "1.0", "--trials", "2", "--convention", "drop_all_small"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "N=16" in out and "N=32" in out
    assert "flagged_steps = 0" in out


def test_field_from_flags(tmp_path, capsys):
    code = cli.main(
        ["field", "--matrix", "zero", "--n", "16", "--alpha", "1.0",
         "--delta", "1e-4", "--gamma", "4.0", "--trials", "2",
         "--re-min", "2", "--re-max", "2", "--im-min", "0", "--im-max", "0", "--steps", "1",
         "--out", str(tmp_path / "pt")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "points = 1" in out
    lines = (tmp_path / "pt_field.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def test_probe_noise_smoke(capsys):
    code = cli.main(
        ["probe-noise", "--n", "40", "--trials", "100",
         "--n-list", "16,32", "--tau-list", "2", "--beta-list", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "kappa1_hat" in out
    assert "tail tau=2.0" in out and "(pass)" in out
    assert "s_min <= N^-1.0" in out


def test_shipped_configs_parse_and_run(tmp_path, capsys):
    paths = sorted(glob.glob("configs/*.json"))
    assert len(paths) == 5
    for path in paths:
        config = read_config(path)  # schema check
        argv = {
            "single": ["mc"],
            "sweep": ["sweep", "--n-list", "16,32"],
            "field": ["field"],
        }[config.mode]
        # grushin_diag doubles as the identity-suite driver
        if "grushin" in path:
            argv = ["grushin-verify"]
        argv += ["--config", path, "--trials", "2", "--out", str(tmp_path / config.mode)]
        assert cli.main(argv) == 0, f"{path}: {capsys.readouterr()}"
        capsys.readouterr()


HOSTILE_BASE = {
    "matrix": {"kind": "diagonal", "n": 12, "diag": [[2.0, 9], [0.0, 3]]},
    "model": "complex_ginibre",
    "params": {"alpha": 1.0, "gamma": 4.0, "delta": 1e-4},
    "trials": 2,
}


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("params", "tau", None),
        ("matrix", "n", None),
        ("matrix", "diag", 5),
        (None, "z_grid", 5),
        (None, "N_list", 5),
        (None, "trials", True),
        ("params", "alpha", True),
        (None, "trials", 2.7),
        (None, "probe_eps", "no"),
        ("params", "gamma", -1000.0),
        ("params", "L", -400.0),
        ("params", "C", -1.0),
        ("params", "headroom", 2.0),
    ],
)
def test_hostile_config_values_exit_three(tmp_path, capsys, section, key, value):
    payload = json.loads(json.dumps(HOSTILE_BASE))
    (payload[section] if section else payload)[key] = value
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["mc", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, params, argv, named",
    [
        ("mc", {"L": -400.0}, [], "L = -400.0"),
        ("mc", {"gamma": -1000.0}, [], "gamma = -1000.0"),
        ("mc", {"kappa1": 1000.0, "delta": 0.0}, [], "kappa1 = 1000.0"),
        ("mc", {"alpha": "auto", "L": -400.0}, [], "L = -400.0"),
        ("equiv", {"alpha": "auto", "L": -400.0}, [], "L = -400.0"),
        ("grushin-verify", {"alpha": "auto", "L": -400.0}, [], "L = -400.0"),
        ("sweep", {"eta": 1000.0}, ["--matrix", "jordan", "--n-list", "8,16"], "eta - gamma = 996.0"),
        ("mc", {"beta": -1000.0}, ["--probe-eps"], "beta = -1000.0"),
        ("probe-noise", {}, ["--n", "12", "--trials", "100", "--n-list", "4,8", "--tau-list", "2",
                             "--beta-list=1,-1000"], "beta = -1000.0"),
    ],
)
def test_overflowing_parameter_is_named(tmp_path, capsys, command, params, argv, named):
    payload = json.loads(json.dumps(HOSTILE_BASE))
    payload["params"].update(params)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, "--config", str(path), *argv]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {named}: N^(" in err
    assert "overflows a float" in err
    assert "Traceback" not in err


DIAGNOSTIC_COLUMNS = ("norm_G", "s_min_perturbed", "contraction")


def read_records(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "argv, matrix",
    [
        (["mc", "--matrix", "diag:2x9,0x3", "--n", "12", "--alpha", "1.0", "--delta", "1e-4",
          "--gamma", "4.0", "--trials", "4", "--seed", "3"], "diag:2x9,0x3"),
        (["sweep", "--matrix", "bidiag:0.5,1", "--n", "8", "--n-list", "8,16", "--gamma", "1.0",
          "--trials", "3", "--seed", "5", "--convention", "drop_all_small"], "bidiag:0.5,1"),
    ],
)
def test_diagnostics_flag_fills_only_the_diagnostic_columns(tmp_path, capsys, argv, matrix):
    assert cli.main(argv + ["--out", str(tmp_path / "off")]) == 0
    assert cli.main(argv + ["--diagnostics", "--out", str(tmp_path / "on")]) == 0
    capsys.readouterr()
    off, on = read_records(tmp_path / "off_records.csv"), read_records(tmp_path / "on_records.csv")
    assert len(off) == len(on) > 0
    summaries = []
    for prefix in ("off", "on"):
        payload = json.loads((tmp_path / f"{prefix}_summary.json").read_text())
        payload["config"].pop("output")
        summaries.append(payload)
    assert summaries[0] == summaries[1]
    for row_off, row_on in zip(off, on):
        for column in row_off:
            if column not in DIAGNOSTIC_COLUMNS:
                assert row_off[column] == row_on[column], column
        assert [row_off[c] for c in DIAGNOSTIC_COLUMNS] == ["nan"] * 3
        # Redraw the trial's noise from its recorded substream seed.
        n, delta, alpha = int(row_on["N"]), float(row_on["delta"]), float(row_on["alpha"])
        g = sample("complex_ginibre", n, int(row_on["seed_used"]))
        a = realize(parse_matrix_arg(matrix, n, None))
        norm_g = operator_norm(g)
        assert float(row_on["norm_G"]) == norm_g
        assert float(row_on["s_min_perturbed"]) == smallest_singular_value(a + delta * g)
        if math.isnan(alpha):  # sweep mode claims no cutoff
            assert row_on["contraction"] == "nan"
        else:
            assert float(row_on["contraction"]) == delta * norm_g / alpha


# One small, valid config per fuzzed subcommand; every value that sizes the
# work (matrix.n, N_list, trials, z_grid.steps) is at most 8.
FUZZ_BASES = {
    "mc": {
        "matrix": {"kind": "diagonal", "n": 8, "diag": [[2.0, 6], [0.0, 2]]},
        "model": "complex_ginibre",
        "params": {"alpha": 1.0, "gamma": 4.0, "delta": 1e-3},
        "trials": 2,
        "seed": 1,
    },
    "sweep": {
        "matrix": {"kind": "jordan", "n": 4},
        "model": "real_gaussian",
        "params": {"gamma": 1.0, "eta": 0.01},
        "trials": 2,
        "seed": 2,
        "mode": "sweep",
        "convention": "drop_all_small",
        "N_list": [4, 8],
    },
    "field": {
        "matrix": {"kind": "zero", "n": 4},
        "model": "complex_ginibre",
        "params": {"alpha": 1.0, "gamma": 4.0, "delta": 1e-3},
        "trials": 2,
        "seed": 3,
        "mode": "field",
        "z_grid": {"re_min": 0.5, "re_max": 1.5, "im_min": -0.5, "im_max": 0.5, "steps": 2},
    },
    "grushin-verify": {
        "matrix": {"kind": "bidiagonal_toeplitz", "n": 6, "a": [0.5, 0.0], "b": [1.0, 0.0]},
        "model": "complex_ginibre",
        "params": {"alpha": "auto", "delta": 1e-4, "gamma": 4.0},
        "trials": 2,
        "seed": 4,
    },
}

# Arbitrary JSON whose integers never exceed 8, so no replaced value can ask
# for a large matrix, many trials or a large grid.
SMALL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(max_value=8) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def same_json_type(value):
    """Replacements of the JSON type of ``value``, which pass the type checks more often."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(max_value=8)
    if isinstance(value, float):
        return st.floats()
    return SMALL_JSON


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
def test_cli_fuzz_bases_run(tmp_path, capsys, command):
    config = tmp_path / "base.json"
    config.write_text(json.dumps(FUZZ_BASES[command]))
    assert cli.main([command, "--config", str(config), "--workers", "1"]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(FUZZ_BASES))
@given(data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_config_with_one_replaced_value(tmp_path, capsys, command, data):
    payload = json.loads(json.dumps(FUZZ_BASES[command]))
    nested = [(key, sub) for key, value in payload.items() if isinstance(value, dict) for sub in value]
    path = data.draw(st.sampled_from([(key,) for key in payload] + nested))
    target = payload if len(path) == 1 else payload[path[0]]
    target[path[-1]] = data.draw(SMALL_JSON | same_json_type(target[path[-1]]))
    config = tmp_path / "fuzz.json"
    config.write_text(json.dumps(payload))
    code = cli.main([command, "--config", str(config), "--workers", "1", "--out", str(tmp_path / "fuzz")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


# One small, valid command line per fuzzed subcommand, and the flags that
# take a value.  --config and --out are left out: an arbitrary value there
# names a file to read or a prefix to write anywhere.
COMMON_VALUE_FLAGS = (
    "--seed", "--trials", "--workers", "--matrix", "--n", "--shift", "--model", "--alpha",
    "--delta", "--gamma", "--eta", "--tau", "--nu-target", "--headroom", "--convention",
)
FLAG_FUZZ_BASES = {
    "mc": (["mc", "--matrix", "diag:2x6,0x2", "--n", "8", "--alpha", "1.0", "--gamma", "4.0",
            "--delta", "1e-3", "--trials", "2", "--seed", "1"], ()),
    "sweep": (["sweep", "--matrix", "jordan", "--n", "4", "--n-list", "4,8", "--gamma", "1.0",
               "--trials", "2", "--seed", "2", "--convention", "drop_all_small"], ("--n-list",)),
    "field": (["field", "--matrix", "zero", "--n", "4", "--alpha", "1.0", "--gamma", "4.0", "--delta", "1e-3",
               "--trials", "2", "--seed", "3", "--re-min", "0.5", "--re-max", "1.5", "--im-min", "-0.5",
               "--im-max", "0.5", "--steps", "2"], ("--re-min", "--re-max", "--im-min", "--im-max", "--steps")),
    "equiv": (["equiv", "--matrix", "jordan", "--n", "8", "--alpha", "0.5"], ()),
}

# Flag values as text.  No text holds a decimal digit and every integer is at
# most 8, so no value asks for a large matrix, many trials, a large grid or
# many threads; floats range over everything, nan and inf included.
NO_DIGITS = st.characters(blacklist_categories=("Nd", "Cs"))
FLAG_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf"]),
    st.sampled_from(["", "0", "-0", "auto", "jordan", "zero", "diag:", "bidiag:1,2", "file:"]),
    st.integers(max_value=8).map(str),
    st.floats().map(repr),
    st.lists(st.integers(max_value=8), max_size=3).map(lambda sizes: ",".join(map(str, sizes))),
    st.text(alphabet=NO_DIGITS, max_size=8),
)


def non_finite(text) -> bool:
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


@pytest.mark.parametrize("command", sorted(FLAG_FUZZ_BASES))
def test_cli_flag_fuzz_bases_run(capsys, command):
    argv, _ = FLAG_FUZZ_BASES[command]
    assert cli.main([*argv, "--workers", "1"]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(FLAG_FUZZ_BASES))
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_with_one_flag_set_to_any_value(capsys, command, data):
    argv, extra_flags = FLAG_FUZZ_BASES[command]
    flag = data.draw(st.sampled_from(COMMON_VALUE_FLAGS + extra_flags))
    value = data.draw(FLAG_VALUES)
    workers = [] if flag == "--workers" else ["--workers", "1"]
    try:
        code = cli.main([*argv, *workers, f"{flag}={value}"])
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if non_finite(value):  # no flag takes nan or inf
        assert code != 0


# ---------------------------------------------------------------------------
# structured spectra and the SVD floor on the command line

LOG_ABS_Z = math.log(abs(0.3 + 0.2j))  # log|det(zI - J)|/N for z = 0.3+0.2j, at any N


def test_sweep_on_a_shifted_jordan_block_reports_the_exact_inclusive_sum(tmp_path, capsys):
    argv = ["sweep", "--matrix", "jordan", "--n", "100", "--shift", "0.3+0.2j", "--n-list", "100,200",
            "--gamma", "1", "--convention", "inclusive", "--trials", "2", "--out", str(tmp_path / "s")]
    assert cli.main(argv) == 0
    assert "below_svd_floor" not in capsys.readouterr().out
    per_n = json.loads((tmp_path / "s_summary.json").read_text())["per_N"]
    assert [step["N"] for step in per_n] == [100, 200]
    for step in per_n:
        assert abs(step["rhs"] - LOG_ABS_Z) <= 1e-12
        assert step["below_svd_floor"] is False


def test_equiv_inclusive_sum_on_a_shifted_jordan_block(capsys):
    assert cli.main(["equiv", "--matrix", "jordan", "--n", "200", "--shift", "0.3+0.2j"]) == 0
    out = capsys.readouterr().out
    value = float(out.split("bpz_inclusive = ")[1].split("\n")[0])
    assert abs(value - LOG_ABS_Z) <= 1e-12


@pytest.mark.parametrize(
    "command, extra, line",
    [
        ("mc", {}, "below_svd_floor = True\n"),
        ("equiv", {}, "below_svd_floor = True\n"),
        ("sweep", {"mode": "sweep", "N_list": [40], "convention": "inclusive", "params": {"gamma": 1.0}},
         "flagged=False below_svd_floor=True\n"),
        ("field", {"mode": "field", "z_grid": {"re_min": 0.3, "re_max": 0.3, "im_min": 0.2, "im_max": 0.2,
                                               "steps": 1}}, "below_svd_floor = True\n"),
    ],
)
def test_results_under_the_svd_floor_are_flagged_on_stdout(tmp_path, capsys, command, extra, line):
    n, shift = 40, 0.3 + 0.2j
    path = tmp_path / "m.csv"
    field = command == "field"
    write_matrix_csv(realize(parse_matrix_arg("jordan", n, None if field else shift)), path)
    # alpha far under the floor N*eps*s_max of a dense SVD at N = 40; L keeps it admissible.
    params = {"alpha": 1e-15, "L": 20.0, "delta": 0.0, **extra.get("params", {})}
    payload = {
        "matrix": {"kind": "custom", "n": n, "path": str(path)},
        "model": "complex_ginibre",
        "trials": 2,
        **extra,
        "params": params,
    }
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(payload))
    assert cli.main([command, "--config", str(dense)]) == 0
    assert line in capsys.readouterr().out
    # The same matrix with a structured spectrum reads no roundoff.
    payload["matrix"] = {"kind": "jordan", "n": n} if field else {"kind": "jordan", "n": n, "shift": [0.3, 0.2]}
    structured = tmp_path / "structured.json"
    structured.write_text(json.dumps(payload))
    assert cli.main([command, "--config", str(structured)]) == 0
    assert "below_svd_floor" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# probe-noise takes only the flags it reads, and finite lists

PROBE_BASE = ["probe-noise", "--n", "12", "--trials", "100", "--n-list", "4,8"]


@pytest.mark.parametrize(
    "flag",
    ["--alpha=0.5", "--delta=nan", "--gamma=1", "--eta=1", "--tau=1", "--nu-target=0.5", "--headroom=0.1",
     "--convention=inclusive", "--workers=1"],
)
def test_probe_noise_rejects_flags_it_does_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([*PROBE_BASE, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_probe_noise_with_an_ignored_flag_and_a_missing_config_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["probe-noise", "--config", "/no/such.json", "--delta", "nan", "--n", "12", "--trials", "100",
                  "--n-list", "4,8"])
    assert exc.value.code == 2


def test_probe_noise_reads_its_config(tmp_path, capsys):
    config = tmp_path / "probe.json"
    config.write_text(json.dumps({"matrix": {"kind": "jordan", "n": 12, "shift": [0.5, 0.0]},
                                  "model": "real_gaussian", "trials": 100, "seed": 9}))
    lists = ["--n-list", "4,8", "--tau-list", "2", "--beta-list", "1"]
    assert cli.main(["probe-noise", "--config", str(config), *lists]) == 0
    from_config = capsys.readouterr().out
    flags = ["--matrix", "jordan", "--n", "12", "--shift", "0.5", "--model", "real_gaussian", "--trials", "100",
             "--seed", "9"]
    assert cli.main(["probe-noise", *flags, *lists]) == 0
    assert capsys.readouterr().out == from_config
    assert "model = real_gaussian" in from_config
    assert cli.main(["probe-noise", "--config", "/no/such.json", *lists]) == 3
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--tau-list", "nan"], "--tau-list: expected finite numbers, got nan"),
        (["--tau-list", "2,inf"], "--tau-list: expected finite numbers, got inf"),
        (["--beta-list", "nan"], "--beta-list: expected finite numbers, got nan"),
        (["--beta-list=1,-inf"], "--beta-list: expected finite numbers, got -inf"),
        (["--shift", "nan"], "config.matrix.shift: expected complex"),
    ],
)
def test_probe_noise_rejects_non_finite_values_before_sampling(monkeypatch, capsys, argv, named):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    for probe in ("norm_growth_probe", "markov_tail_check", "anti_concentration_probe"):
        monkeypatch.setattr(cli, probe, no_sampling)
    assert cli.main([*PROBE_BASE, *argv]) == 3
    err = capsys.readouterr().err
    assert f"configuration error: {named}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# one flag table: each subcommand takes the flags it reads, none abbreviated

EQUIV_FLAGS = {"--config", "--matrix", "--n", "--shift", "--alpha", "--gamma", "--eta", "--nu-target", "--workers"}


def test_equiv_help_lists_exactly_the_flags_it_reads(capsys):
    with pytest.raises(SystemExit):
        cli.main(["equiv", "--help"])
    options = capsys.readouterr().out.split("options:")[1]
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", options)) == EQUIV_FLAGS | {"--help"}


@pytest.mark.parametrize(
    "flag", ["--out=X", "--seed=1", "--trials=2", "--model=real_gaussian", "--delta=0.5", "--tau=1",
             "--headroom=0.1", "--convention=drop_all_small"],
)
def test_equiv_rejects_flags_it_does_not_read(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["equiv", "--matrix", "jordan", "--n", "8", flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_equiv_command_line_with_unread_flags_is_a_usage_error(tmp_path):
    argv = ["equiv", "--matrix", "jordan", "--n", "8", "--workers", "0", "--out", str(tmp_path / "X"),
            "--convention", "drop_all_small", "--delta", "0.5"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [([command, "--conf", "configs/jordan500.json"], "--conf") for command in SUBCOMMANDS]
    + [(["mc", "--matrix", "jordan", "--n", "8", "--alpha", "0.5", "--trials", "2", "--diag"], "--diag")],
)
def test_no_subcommand_accepts_an_abbreviated_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_a_delta_that_overflows_the_suite_exits_three(capsys):
    # A + delta G overflows, so an SVD of the perturbed system cannot converge.
    argv = ["grushin-verify", "--matrix", "diag:2x10,0x2", "--n", "12", "--alpha", "1.0", "--delta", "1e308",
            "--trials", "1", "--workers", "1"]
    with np.errstate(all="ignore"):
        assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "configuration error: SVD did not converge" in err
    assert "Traceback" not in err


def test_a_delta_that_overflows_a_field_exits_three(tmp_path, capsys):
    argv = ["field", "--matrix", "jordan", "--n", "8", "--delta", "1e308", "--trials", "2", "--re-min", "-1",
            "--re-max", "1", "--im-min", "-1", "--im-max", "1", "--steps", "2", "--out", str(tmp_path / "f")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err == "configuration error: A + delta G overflows a float at delta = 1e+308\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--config", "{tmp}"],
        ["mc", "--matrix", "jordan", "--n", "8", "--delta", "0", "--trials", "2", "--out", "{tmp}/file/run"],
        ["equiv", "--matrix", "file:{tmp}/missing.csv", "--n", "4"],
    ],
)
def test_io_errors_exit_three(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert "i/o error: " in err
    assert "Traceback" not in err
