"""Command-line interface: config validation, output files, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import re
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leofim.cli import (
    COLUMNS,
    ConfigError,
    RunConfig,
    config_from_dict,
    effective_config_dict,
    load_config,
    main,
    run_command,
)
from leofim.analysis import SWEEP_AXES
from leofim.geometry import SPEED_OF_LIGHT_M_S
from leofim.scenario import _MAX_SNR_DB, Case, ScenarioConfig

WIDE = {
    "n_leo": 1,
    "n_bs": 3,
    "n_ant": 4,
    "n_slots": 4,
    "slot_spacing_s": 50.0,
    "bs_distance_m": 5e5,
    "n_trials": 2,
}


# Fields a run adds to the scenario settings it inherits, in echo order.
RUN_FIELDS = (
    "seed",
    "n_trials",
    "rel_tol",
    "command",
    "sweep_axis",
    "sweep_values",
    "grid_n_leo",
    "grid_n_bs",
    "grid_n_slots",
    "grid_n_ant",
    "out",
    "format",
)

# The effective-configuration echo of the defaults, key order included.
DEFAULT_ECHO = [
    ("n_leo", 1),
    ("n_bs", 3),
    ("n_ant", 4),
    ("n_slots", 3),
    ("slot_spacing_s", 1.0),
    ("carrier_freq_hz", 40e9),
    ("eff_bandwidth_hz", 100e6),
    ("bcc", 0.0),
    ("observation_duration_s", 1e-3),
    ("snr_db", 20.0),
    ("snr_linear", 100.0),
    ("case", "with_bs"),
    ("leo_distance_m", 2e6),
    ("receiver_distance_m", 30.0),
    ("bs_distance_m", 100.0),
    ("leo_speed_m_s", 8000.0),
    ("receiver_speed_m_s", 25.0),
    ("leo_dir_perturb_rad", 0.1),
    ("array_radius_wavelengths", 20.0),
    ("seed", 0),
    ("n_trials", 5),
    ("rel_tol", 1e-10),
    ("command", "bound"),
    ("format", "csv"),
]

# One out-of-range value per ranged ScenarioConfig field.
OUT_OF_RANGE = {
    "n_leo": 0,
    "n_bs": -1,
    "n_ant": 0,
    "n_slots": 0,
    "slot_spacing_s": 0.0,
    "carrier_freq_hz": 0.0,
    "eff_bandwidth_hz": -1.0,
    "bcc": 1.5,
    "observation_duration_s": 0.0,
    "rms_duration_s": 0.0,
    "snr_db": 4000.0,
    "snr_db_leo_rx": 4000.0,
    "snr_db_bs_rx": 4000.0,
    "snr_db_leo_bs": 4000.0,
    "leo_distance_m": 0.0,
    "receiver_distance_m": -1.0,
    "bs_distance_m": 0.0,
    "leo_speed_m_s": -1.0,
    "receiver_speed_m_s": -1.0,
    "leo_dir_perturb_rad": -0.1,
    "array_radius_wavelengths": -1.0,
}


def _write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_fills_defaults():
    config = config_from_dict({"n_leo": 2})
    assert config.n_leo == 2
    assert config.n_bs == 3
    assert config.snr_db == 20.0
    assert config.command == "bound"
    assert config.format == "csv"


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown configuration keys.*n_pigeons"):
        config_from_dict({"n_pigeons": 7})


def test_snr_linear_consistency():
    ok = config_from_dict({"snr_db": 20.0, "snr_linear": 100.0})
    assert ok.snr_db == 20.0
    implied = config_from_dict({"snr_linear": 50.0})
    assert implied.snr_db == pytest.approx(10.0 * math.log10(50.0), rel=1e-12)
    with pytest.raises(ConfigError, match="snr_linear: inconsistent"):
        config_from_dict({"snr_db": 20.0, "snr_linear": 99.0})
    with pytest.raises(ConfigError, match="snr_linear"):
        config_from_dict({"snr_linear": -3.0})


def test_out_of_band_carrier_warns():
    with pytest.warns(UserWarning, match="carrier_freq_hz"):
        config_from_dict({"carrier_freq_hz": 1e8})


def test_field_constraints_are_reported_by_name():
    with pytest.raises(ConfigError, match="n_ant"):
        config_from_dict({"n_ant": 0})
    with pytest.raises(ConfigError, match="bcc"):
        config_from_dict({"bcc": 1.5})
    with pytest.raises(ConfigError, match="case"):
        config_from_dict({"case": "standalone"})
    with pytest.raises(ConfigError, match="sweep_values"):
        config_from_dict({"sweep_values": []})
    with pytest.raises(ConfigError, match="grid_n_ant"):
        config_from_dict({"grid_n_ant": [4, 0]})
    with pytest.raises(ConfigError, match="slot_spacing_s"):
        config_from_dict({"slot_spacing_s": 0.0})


def test_json_errors_carry_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "n_leo": 1,\n  "n_bs" 3\n}\n')
    with pytest.raises(ConfigError, match=r"line 3, column 1[01]"):
        load_config(str(path))


def test_missing_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no-such.json"):
        load_config(str(tmp_path / "no-such.json"))


def test_effective_config_round_trips():
    config = config_from_dict(WIDE)
    echoed = effective_config_dict(config)
    assert echoed["snr_linear"] == pytest.approx(100.0, rel=1e-12)
    assert config_from_dict(echoed) == config


def test_main_rejects_bad_config_with_exit_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "absent.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["leo_speed_m_s", "receiver_speed_m_s"])
def test_speed_at_or_above_light_exits_2(tmp_path, capsys, field):
    """A speed at or above ``c`` is a configuration error naming the field."""
    path = _write_config(tmp_path, {field: SPEED_OF_LIGHT_M_S})
    assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {field} must be slower than light")
    assert len(err.strip().splitlines()) == 1


def test_bound_exit_3_when_not_identifiable(tmp_path, capsys):
    """The reference configuration fails the default PD tolerance."""
    path = _write_config(tmp_path, {"n_trials": 2})
    assert main(["--config", path]) == 3
    assert "not identifiable" in capsys.readouterr().err


def _station_on_reference_point(trials, t, config):
    """Move trial ``t``'s first station onto the array reference point at slot
    1 (as ``_oracle.receiver_reference`` places it) in sampled ``trials``."""
    trials.bs_position[t, 0] = trials.position[t] + config.slot_spacing_s * trials.velocity[t]


def test_degenerate_geometry_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    """A station sitting on the array reference point is reported as exit 4."""
    import leofim.analysis as analysis

    sample = analysis._sample

    def station_on_receiver(config, seeds):
        trials = sample(config, seeds)
        _station_on_reference_point(trials, 0, config)
        return trials

    monkeypatch.setattr(analysis, "_sample", station_on_receiver)
    out = tmp_path / "bounds.csv"
    path = _write_config(tmp_path, {"n_trials": 1, "out": str(out)})
    assert main(["--config", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("degenerate geometry: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "identifiability"])
def test_degenerate_later_trial_exits_4_without_traceback(tmp_path, capsys, monkeypatch, command):
    """A family's trials are all sampled before any is decided, so a station
    on the array reference point in the last trial alone still exits 4 with
    one stderr line and no output file."""
    import leofim.analysis as analysis

    sample = analysis._sample

    def degenerate_last_trial(config, seeds):
        trials = sample(config, seeds)
        _station_on_reference_point(trials, len(seeds) - 1, config)
        return trials

    monkeypatch.setattr(analysis, "_sample", degenerate_last_trial)
    out = tmp_path / "bounds.csv"
    settings = {**WIDE, "command": command, "n_trials": 3, "seed": 123, "out": str(out)}
    assert main(["--config", _write_config(tmp_path, settings)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("degenerate geometry: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "identifiability"])
@pytest.mark.parametrize(
    "settings",
    [{"slot_spacing_s": 1e306}, {"slot_spacing_s": 1e300, "leo_speed_m_s": 2.9e8}],
    ids=["spacing_1e306", "spacing_1e300_speed_2.9e8"],
)
def test_overflowing_track_exits_4_as_degenerate_geometry(tmp_path, capsys, command, settings):
    """Slot times that carry the tracks beyond double range are degenerate
    geometry (exit 4, one stderr line naming the overflowing range), not a
    numerical failure raised by an overflow warning ahead of the check."""
    out = tmp_path / "bounds.csv"
    settings = {**settings, "command": command, "n_trials": 1, "out": str(out)}
    assert main(["--config", _write_config(tmp_path, settings)]) == 4
    err = capsys.readouterr().err
    assert err == "degenerate geometry: a range overflows a double: coordinates too large\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "settings",
    [
        {"snr_db": 3000},
        {"snr_db": 2900, "command": "identifiability"},
        # Only the offset groups' weight totals overflow here; dividing by
        # them would leave a finite EFIM without its centering.
        {"snr_db": 2858},
        # Squaring a waveform moment overflows before any information is formed.
        {"rms_duration_s": 1e200},
        {"eff_bandwidth_hz": 1.7e308, "command": "identifiability"},
    ],
    ids=[
        "bound_3000_db",
        "identifiability_2900_db",
        "bound_2858_db",
        "bound_rms_duration_1e200",
        "identifiability_bandwidth_1.7e308",
    ],
)
def test_information_overflow_exits_4_without_traceback(tmp_path, capsys, settings):
    """A validated SNR or waveform moment whose information overflows a double
    is a numerical failure (exit 4), not a LinAlgError or OverflowError
    traceback."""
    out = tmp_path / "bounds.csv"
    path = _write_config(tmp_path, {**settings, "n_trials": 1, "out": str(out)})
    assert main(["--config", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "settings",
    [{"snr_db": 3000}, {"eff_bandwidth_hz": 1e300}],
    ids=["snr_3000_db", "bandwidth_1e300"],
)
def test_overflowing_link_weight_exits_4_with_the_named_error(tmp_path, capsys, settings):
    """A delay weight beyond double range reaches the CLI as the library's
    named error, not as the numpy overflow that formed it."""
    out = tmp_path / "bounds.csv"
    path = _write_config(tmp_path, {**settings, "command": "bound", "n_trials": 1, "out": str(out)})
    assert main(["--config", path]) == 4
    err = capsys.readouterr().err
    assert err == "numerical failure: a leo_rx link's delay weight snr * omega overflows a double\n"
    assert not out.exists()


def test_bounds_beyond_double_range_exit_4_with_the_named_error(tmp_path, capsys):
    """An SNR of -3200 dB leaves a PD EFIM whose inverse overflows a double:
    the library's named error, not the numpy overflow."""
    out = tmp_path / "bounds.csv"
    settings = {"command": "bound", "snr_db": -3200, "slot_spacing_s": 50, "bs_distance_m": 5e5}
    path = _write_config(tmp_path, {**settings, "n_trials": 1, "out": str(out)})
    assert main(["--config", path]) == 4
    err = capsys.readouterr().err
    assert err == "numerical failure: the inverse overflows a double: too little information\n"
    assert not out.exists()


@pytest.mark.parametrize(
    ("command", "sweep"),
    [("identifiability", "identifiability_sweep"), ("sweep", "parameter_sweep")],
)
def test_library_value_error_exits_4_without_traceback(
    tmp_path, capsys, monkeypatch, command, sweep
):
    """A library ``ValueError`` raised while a command computes is reported in
    one stderr line with exit 4 and no output file; a ``ConfigError`` raised
    there still exits 2."""
    from leofim import cli

    def fails(*args, **kwargs):
        raise ValueError("singular configuration")

    monkeypatch.setattr(cli, sweep, fails)
    out = tmp_path / "out.csv"
    settings = {**WIDE, "command": command, "out": str(out)}
    if command == "sweep":
        settings.update(sweep_axis="n_ant", sweep_values=[4])
    path = _write_config(tmp_path, settings)
    assert main(["--config", path]) == 4
    err = capsys.readouterr().err
    assert err == "computation failed: singular configuration\n"
    assert not out.exists()

    def config_error(*args, **kwargs):
        raise ConfigError("sweep_axis: unusable")

    monkeypatch.setattr(cli, sweep, config_error)
    assert main(["--config", path]) == 2
    assert capsys.readouterr().err == "configuration error: sweep_axis: unusable\n"


@pytest.mark.parametrize(
    ("command", "status"), [("bound", 3), ("identifiability", 0), ("sweep", 0)]
)
def test_rel_tol_near_float_max_decides_not_pd(tmp_path, capsys, command, status):
    """``rel_tol * max_eig`` beyond float range is infinite, so no trial is PD,
    under the commands' raising ``np.errstate`` too."""
    out = tmp_path / "out.json"
    settings = {**WIDE, "command": command, "rel_tol": 1e308, "out": str(out), "format": "json"}
    if command == "sweep":
        settings.update(sweep_axis="n_ant", sweep_values=[4])
    assert main(["--config", _write_config(tmp_path, settings)]) == status
    records = json.loads(out.read_text())
    assert records and not any(record["is_pd"] for record in records)


def test_bound_records_are_the_per_trial_verdicts(tmp_path):
    """Each ``bound`` record carries its own trial's ``is_identifiable``
    verdict, bit for bit."""
    from leofim.analysis import is_identifiable
    from leofim.location_fim import compute_efim
    from leofim.scenario import derive_trial_seeds, random_scenario

    out = tmp_path / "out.json"
    settings = {**WIDE, "n_ant": 2, "n_trials": 4, "seed": 11, "out": str(out), "format": "json"}
    main(["--config", _write_config(tmp_path, settings)])
    records = json.loads(out.read_text())
    template = config_from_dict(settings).scenario_config()
    for record, seed in zip(records, derive_trial_seeds(11, 4), strict=True):
        verdict = is_identifiable(compute_efim(random_scenario(template, seed)))
        assert record["is_pd"] == verdict.is_pd
        assert record["min_eigenvalue"] == verdict.min_eigenvalue
        assert record["max_eigenvalue"] == verdict.max_eigenvalue
        assert record["condition_number"] == verdict.condition_number


def test_bound_writes_csv_and_exits_0(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    path = _write_config(tmp_path, {**WIDE, "out": str(out)})
    assert main(["--config", path]) == 0
    raw = out.read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    lines = raw.decode("utf-8").splitlines()
    header = lines[0].split(",")
    assert tuple(header) == COLUMNS
    assert len(lines) == 1 + 2  # header + one row per trial
    row = dict(zip(header, lines[1].split(",")))
    assert row["command"] == "bound"
    assert row["is_pd"] == "true"
    assert float(row["pos_rmse_bound"]) > 0.0
    # floats are rendered at 9 significant digits
    assert row["min_eigenvalue"] == f"{float(row['min_eigenvalue']):.9g}"


def test_bound_decides_each_trial_once(tmp_path, monkeypatch):
    """The bounds of a PD trial reuse its verdict: each trial's matrix is
    decided exactly once (a stack counts each of its matrices)."""
    import leofim.analysis as analysis

    decided = []
    original = analysis.balanced_eigvalsh
    monkeypatch.setattr(
        analysis, "balanced_eigvalsh", lambda m: decided.append(m.shape[:-2]) or original(m)
    )
    assert main(["--config", _write_config(tmp_path, WIDE)]) == 0
    assert sum(math.prod(shape) for shape in decided) == 2  # one per trial


def test_csv_output_is_reproducible(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    path_a = _write_config(tmp_path, {**WIDE, "out": str(out_a)}, "a.json")
    path_b = _write_config(tmp_path, {**WIDE, "out": str(out_b)}, "b.json")
    assert main(["--config", path_a]) == 0
    assert main(["--config", path_b]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_override_changes_results(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    path = _write_config(tmp_path, WIDE)
    assert main(["--config", path, "--out", str(out_a)]) == 0
    assert main(["--config", path, "--out", str(out_b), "--seed", "99"]) == 0
    rows_a = out_a.read_text().splitlines()[1:]
    rows_b = out_b.read_text().splitlines()[1:]
    assert rows_a != rows_b


def test_json_format_renders_non_finite_as_null(tmp_path):
    out = tmp_path / "bounds.json"
    payload = {**WIDE, "n_ant": 1, "out": str(out), "format": "json"}
    path = _write_config(tmp_path, payload)
    assert main(["--config", path]) == 3  # single antenna: not identifiable
    records = json.loads(out.read_text())
    assert len(records) == 2
    assert records[0]["is_pd"] is False
    assert records[0]["pos_rmse_bound"] is None
    assert records[0]["leo_pos_offset_bound"] == [None]


def test_offset_bound_columns_join_satellites_with_semicolon(tmp_path):
    out = tmp_path / "bounds.csv"
    payload = {**WIDE, "n_leo": 2, "out": str(out)}
    path = _write_config(tmp_path, payload)
    assert main(["--config", path]) == 0
    header, first = out.read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert row["leo_pos_offset_bound"].count(";") == 1
    assert all(float(part) > 0 for part in row["leo_pos_offset_bound"].split(";"))


def test_sweep_requires_axis_and_values(tmp_path, capsys):
    path = _write_config(tmp_path, {**WIDE, "command": "sweep"})
    assert main(["--config", path]) == 2
    assert "sweep_axis" in capsys.readouterr().err


def test_sweep_axis_aliases_and_run(tmp_path):
    out = tmp_path / "sweep.csv"
    payload = {
        **WIDE,
        "command": "sweep",
        "sweep_axis": "snr",
        "sweep_values": [10.0, 20.0],
        "out": str(out),
    }
    path = _write_config(tmp_path, payload)
    assert main(["--config", path]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["sweep_axis"] == "snr_db"
    assert row["sweep_value"] == "10"


def test_identifiability_grid_command(tmp_path):
    out = tmp_path / "table.csv"
    payload = {
        **WIDE,
        "command": "identifiability",
        "grid_n_ant": [1, 4],
        "out": str(out),
    }
    path = _write_config(tmp_path, payload)
    assert main(["--config", path]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [r["n_ant"] for r in rows] == ["1", "4"]
    assert [r["is_pd"] for r in rows] == ["false", "true"]


def test_run_without_config_uses_defaults(capsys):
    code = main(["--command", "bound"])
    assert code == 3  # reference configuration, default tolerance
    assert "effective configuration" in capsys.readouterr().out


def test_run_config_dataclass_is_frozen():
    config = RunConfig()
    with pytest.raises(Exception):
        config.n_leo = 2


@pytest.mark.parametrize(
    "axis, value",
    [
        ("carrier_freq_hz", -1e9),
        ("n_ant", 0),
        ("slot_spacing_s", 0),
        ("n_ant", 2.5),
        ("snr_db", 4000.0),  # 10**(dB/10) overflows
    ],
)
def test_out_of_domain_sweep_value_exits_2(tmp_path, capsys, axis, value):
    """Every sweep value is checked as the scenario it will build; the error
    names the offending entry instead of escaping as a traceback."""
    payload = {"command": "sweep", "sweep_axis": axis, "sweep_values": [4, value]}
    path = _write_config(tmp_path, payload)
    if axis == "carrier_freq_hz":  # the valid first entry, 4 Hz, is out of band
        with pytest.warns(UserWarning, match=r"^sweep_values\[0\]: carrier_freq_hz 4 "):
            assert main(["--config", path]) == 2
    else:
        assert main(["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: sweep_values[1]: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", ["with_bs", "receiver_only"])
def test_no_base_stations_is_accepted(case):
    config = config_from_dict({"n_bs": 0, "grid_n_bs": [0], "case": case})
    assert run_command(dataclasses.replace(config, command="bound")) == 3
    assert run_command(dataclasses.replace(config, command="identifiability")) == 0


def test_accepted_keys_are_scenario_fields_run_fields_and_snr_linear():
    scenario_keys = [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert [f.name for f in dataclasses.fields(RunConfig)] == scenario_keys + list(RUN_FIELDS)
    every_key = {
        **effective_config_dict(RunConfig()),
        "rms_duration_s": 1e-3,
        "snr_db_leo_rx": 10.0,
        "snr_db_bs_rx": 10.0,
        "snr_db_leo_bs": 10.0,
        "sweep_axis": "snr_db",
        "sweep_values": [10.0],
        "grid_n_leo": [1],
        "grid_n_bs": [0],
        "grid_n_slots": [3],
        "grid_n_ant": [4],
        "out": "bounds.csv",
    }
    assert set(every_key) == set(scenario_keys) | set(RUN_FIELDS) | {"snr_linear"}
    assert effective_config_dict(config_from_dict(every_key)) == every_key
    for key in ("effective_rms_duration_s", "scenario_config", "snr_linear_db"):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_dict({key: 1})


def test_default_echo_keys_and_values_are_pinned():
    echo = effective_config_dict(RunConfig())
    assert json.dumps(echo) == json.dumps(dict(DEFAULT_ECHO))


def test_every_ranged_scenario_field_has_an_out_of_range_case():
    ranged = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"case"}
    assert set(OUT_OF_RANGE) == ranged


@pytest.mark.parametrize(
    "field, value", [*OUT_OF_RANGE.items(), ("n_trials", 0), ("rel_tol", 0.0)]
)
def test_out_of_range_field_exits_2_naming_it(tmp_path, capsys, field, value):
    assert main(["--config", _write_config(tmp_path, {field: value})]) == 2
    err = capsys.readouterr().err
    assert re.match(rf"configuration error: {field}\b", err)
    assert len(err.strip().splitlines()) == 1


def test_out_of_range_grid_entry_is_reported_by_entry(tmp_path, capsys):
    payload = {"command": "identifiability", "grid_n_bs": [2, -1]}
    assert main(["--config", _write_config(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: grid_n_bs[1]: n_bs must be >= 0")
    assert len(err.strip().splitlines()) == 1


def test_out_of_band_carrier_sweep_value_warns():
    payload = {"command": "sweep", "sweep_axis": "carrier", "sweep_values": [1e8, 4e10]}
    with pytest.warns(UserWarning) as record:
        config_from_dict(payload)
    assert [str(w.message) for w in record] == [
        "sweep_values[0]: carrier_freq_hz 1e+08 is outside the supported band "
        "[1e9, 1e11]; results may be extrapolated"
    ]


_HUGE_INT = "1" + "0" * 400  # a JSON integer no double can hold
_HUGE_SWEEP = f'{{"command": "sweep", "sweep_axis": "snr_db", "sweep_values": [10, {_HUGE_INT}]}}'


@pytest.mark.parametrize(
    "payload, message",
    [
        (b'{"n_leo": 1, "note\xff": 2}', r"run\.json: not UTF-8 text"),
        (f'{{"snr_db": {_HUGE_INT}}}'.encode(), r"snr_db: must be finite"),
        (_HUGE_SWEEP.encode(), r"sweep_values\[1\]: must be finite"),
        (
            json.dumps({**WIDE, "n_trials": 1, "out": "missing-dir/bounds.csv"}).encode(),
            r"out: missing-dir/bounds\.csv: ",
        ),
        (json.dumps({**WIDE, "n_trials": 1, "out": "."}).encode(), r"out: \.: "),
    ],
    ids=[
        "non_utf8_config",
        "huge_int_field",
        "huge_int_sweep_value",
        "unopenable_out",
        "out_is_a_directory",
    ],
)
def test_unreadable_or_unrepresentable_input_exits_2(
    tmp_path, capsys, monkeypatch, payload, message
):
    """Input the program cannot read, represent or write to is a configuration
    error naming the key or path, not a traceback, and is reported before any
    result is computed or printed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_bytes(payload)
    assert main(["--config", "run.json"]) == 2
    captured = capsys.readouterr()
    assert re.match(rf"configuration error: {message}", captured.err)
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


# Each float field of a run across the whole double range it accepts.
_MAX = sys.float_info.max
_POSITIVE = st.floats(min_value=0.0, max_value=_MAX, exclude_min=True)
_NON_NEGATIVE = st.floats(min_value=0.0, max_value=_MAX)
_SNR_DB = st.floats(min_value=-_MAX, max_value=_MAX_SNR_DB)
_SPEED = st.floats(min_value=0.0, max_value=SPEED_OF_LIGHT_M_S, exclude_max=True)
_FLOAT_FIELDS = {
    **dict.fromkeys(
        ("slot_spacing_s", "carrier_freq_hz", "observation_duration_s", "rms_duration_s",
         "leo_distance_m", "receiver_distance_m", "bs_distance_m", "rel_tol"),
        _POSITIVE,
    ),
    **dict.fromkeys(
        ("eff_bandwidth_hz", "leo_dir_perturb_rad", "array_radius_wavelengths"), _NON_NEGATIVE
    ),
    **dict.fromkeys(("leo_speed_m_s", "receiver_speed_m_s"), _SPEED),
    "bcc": st.floats(min_value=-1.0, max_value=1.0),
    **dict.fromkeys(("snr_db", "snr_db_leo_rx", "snr_db_bs_rx", "snr_db_leo_bs"), _SNR_DB),
}
_COUNTS = {
    "n_leo": st.integers(1, 2),
    "n_bs": st.integers(0, 2),
    "n_ant": st.integers(1, 3),
    "n_slots": st.integers(1, 3),
}


@st.composite
def _run_configs(draw):
    """A raw run configuration that ``config_from_dict`` accepts: small
    counts, any accepted float, and any command."""
    raw = draw(st.fixed_dictionaries(
        {
            "command": st.sampled_from(("bound", "identifiability", "sweep")),
            "case": st.sampled_from([c.value for c in Case]),
            "seed": st.integers(0, 2**64 - 1),
            "n_trials": st.integers(1, 2),
            "format": st.sampled_from(("csv", "json")),
            **_COUNTS,
        },
        optional=_FLOAT_FIELDS,
    ))
    if raw["command"] == "sweep":
        axis = draw(st.sampled_from(SWEEP_AXES))
        values = _COUNTS[axis] if axis in _COUNTS else _FLOAT_FIELDS[axis]
        raw["sweep_axis"] = axis
        raw["sweep_values"] = draw(st.lists(values, min_size=1, max_size=3))
    elif raw["command"] == "identifiability":
        for axis, counts in _COUNTS.items():
            raw[f"grid_{axis}"] = draw(st.none() | st.lists(counts, min_size=1, max_size=2))
    return raw


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(raw=_run_configs())
def test_every_accepted_configuration_exits_with_a_documented_code(raw):
    """The CLI error contract: whatever configuration validation accepts, a
    command returns 0, 3 or 4 and never raises, at any double the fields
    accept (overflow, underflow, degenerate or zero information)."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*outside the supported band")
        config = config_from_dict(raw)
    with tempfile.TemporaryDirectory() as tmp:
        config = dataclasses.replace(config, out=f"{tmp}/out.{config.format}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = run_command(config)
    assert status in (0, 3, 4)
