"""Command-line front end: JSON config in, verdict/bound tables out.

Three commands share one configuration schema:

* ``bound``           — CRLB report for each of ``n_trials`` seeded geometries.
* ``identifiability`` — PD verdict per cell of a counts grid.
* ``sweep``           — mean bounds along one scalar axis.

Configs are flat JSON objects (see ``RunConfig`` for keys and defaults).
Unknown keys are rejected.  ``snr_db`` is canonical; ``snr_linear`` is accepted
on input (and echoed on output) but must agree with ``snr_db`` when both are
present.  The effective configuration echoed by a run can be fed back in as a
config file and reloads to an equivalent ``RunConfig``.

Result files are CSV (RFC 4180: CRLF line endings, fixed header, floats at 9
significant digits) or JSON (same records; non-finite bounds become null).
Per-satellite offset-bound columns hold all satellites' values joined by ";".

Exit codes: 0 success; 2 configuration error; 3 bound requested for a
non-identifiable configuration; 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass

from .analysis import (
    DEFAULT_N_TRIALS,
    DEFAULT_REL_TOL,
    CrlbReport,
    IdentifiabilityVerdict,
    crlb,
    identifiability_sweep,
    is_identifiable,
    parameter_sweep,
    swept_config,
)
from .geometry import DegenerateGeometryError
from .linalg import NumericalError
from .location_fim import compute_efim
from .scenario import Case, ScenarioConfig, derive_trial_seeds, random_scenario
from .signals import snr_from_db

COMMANDS = ("bound", "identifiability", "sweep")
FORMATS = ("csv", "json")

# Accepted spellings for the sweep axis, canonicalized to config field names.
_AXIS_ALIASES = {
    "n_ant": "n_ant",
    "carrier_freq_hz": "carrier_freq_hz",
    "slot_spacing_s": "slot_spacing_s",
    "snr_db": "snr_db",
    "antennas": "n_ant",
    "carrier": "carrier_freq_hz",
    "slot_spacing": "slot_spacing_s",
    "snr": "snr_db",
}

# Fixed result-record column set, in output order.
COLUMNS = (
    "command",
    "seed",
    "trial",
    "sweep_axis",
    "sweep_value",
    "n_leo",
    "n_bs",
    "n_ant",
    "n_slots",
    "slot_spacing_s",
    "carrier_freq_hz",
    "eff_bandwidth_hz",
    "bcc",
    "rms_duration_s",
    "snr_db",
    "snr_linear",
    "case",
    "is_pd",
    "min_eigenvalue",
    "max_eigenvalue",
    "condition_number",
    "pos_rmse_bound",
    "vel_rmse_bound",
    "orient_rmse_bound",
    "leo_pos_offset_bound",
    "leo_vel_offset_bound",
)


class ConfigError(ValueError):
    """A configuration problem: bad JSON, unknown key, or violated constraint."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration (one JSON object).

    Scenario knobs mirror :class:`~leofim.scenario.ScenarioConfig`; the rest
    steer the run itself.  ``grid_*`` keys select the identifiability grid
    (missing axes stay at the scalar value); ``sweep_axis``/``sweep_values``
    configure the ``sweep`` command.
    """

    n_leo: int = 1
    n_bs: int = 3
    n_ant: int = 4
    n_slots: int = 3
    slot_spacing_s: float = 1.0
    carrier_freq_hz: float = 40e9
    eff_bandwidth_hz: float = 100e6
    bcc: float = 0.0
    observation_duration_s: float = 1e-3
    rms_duration_s: float | None = None
    snr_db: float = 20.0
    snr_db_leo_rx: float | None = None
    snr_db_bs_rx: float | None = None
    snr_db_leo_bs: float | None = None
    case: str = "with_bs"
    leo_distance_m: float = 2e6
    receiver_distance_m: float = 30.0
    bs_distance_m: float = 100.0
    leo_speed_m_s: float = 8000.0
    receiver_speed_m_s: float = 25.0
    leo_dir_perturb_rad: float = 0.1
    array_radius_wavelengths: float = 20.0
    seed: int = 0
    n_trials: int = DEFAULT_N_TRIALS
    rel_tol: float = DEFAULT_REL_TOL
    command: str = "bound"
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None
    grid_n_leo: tuple[int, ...] | None = None
    grid_n_bs: tuple[int, ...] | None = None
    grid_n_slots: tuple[int, ...] | None = None
    grid_n_ant: tuple[int, ...] | None = None
    out: str | None = None
    format: str = "csv"

    def scenario_config(self) -> ScenarioConfig:
        """The scenario-generator slice of this run configuration."""
        return ScenarioConfig(
            n_leo=self.n_leo,
            n_bs=self.n_bs,
            n_ant=self.n_ant,
            n_slots=self.n_slots,
            slot_spacing_s=self.slot_spacing_s,
            carrier_freq_hz=self.carrier_freq_hz,
            eff_bandwidth_hz=self.eff_bandwidth_hz,
            bcc=self.bcc,
            observation_duration_s=self.observation_duration_s,
            rms_duration_s=self.rms_duration_s,
            snr_db=self.snr_db,
            snr_db_leo_rx=self.snr_db_leo_rx,
            snr_db_bs_rx=self.snr_db_bs_rx,
            snr_db_leo_bs=self.snr_db_leo_bs,
            case=Case(self.case),
            leo_distance_m=self.leo_distance_m,
            receiver_distance_m=self.receiver_distance_m,
            bs_distance_m=self.bs_distance_m,
            leo_speed_m_s=self.leo_speed_m_s,
            receiver_speed_m_s=self.receiver_speed_m_s,
            leo_dir_perturb_rad=self.leo_dir_perturb_rad,
            array_radius_wavelengths=self.array_radius_wavelengths,
        )


_FIELD_NAMES = {f.name for f in dataclasses.fields(RunConfig)}
_ACCEPTED_KEYS = _FIELD_NAMES | {"snr_linear"}

_INT_FIELDS = {
    "n_leo": 1,
    "n_bs": 0,
    "n_ant": 1,
    "n_slots": 1,
    "n_trials": 1,
}
_POSITIVE_FLOAT_FIELDS = (
    "slot_spacing_s",
    "carrier_freq_hz",
    "observation_duration_s",
    "leo_distance_m",
    "receiver_distance_m",
    "bs_distance_m",
    "rel_tol",
)
_NONNEGATIVE_FLOAT_FIELDS = (
    "eff_bandwidth_hz",
    "leo_speed_m_s",
    "receiver_speed_m_s",
    "leo_dir_perturb_rad",
    "array_radius_wavelengths",
)
_GRID_FIELDS = ("grid_n_leo", "grid_n_bs", "grid_n_slots", "grid_n_ant")


def _require_int(field: str, value, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: must be an integer (got {value!r})")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{field}: must be {bound} (got {value})")
    return value


def _require_float(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: must be a number (got {value!r})")
    if not math.isfinite(value):
        raise ConfigError(f"{field}: must be finite (got {value!r})")
    return float(value)


def _require_choice(field: str, value, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{field}: must be one of {list(choices)} (got {value!r})")
    return value


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a flat key/value mapping into a :class:`RunConfig`.

    Unknown keys are rejected; every violated constraint is reported with the
    offending field name.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a JSON object (got {type(raw).__name__})")
    unknown = sorted(set(raw) - _ACCEPTED_KEYS)
    if unknown:
        raise ConfigError(f"unknown configuration keys: {unknown}")

    values = dict(raw)
    snr_linear = values.pop("snr_linear", None)
    if snr_linear is not None:
        linear = _require_float("snr_linear", snr_linear)
        if linear <= 0.0:
            raise ConfigError(f"snr_linear: must be > 0 (got {linear})")
        implied_db = 10.0 * math.log10(linear)
        if "snr_db" in values:
            given_db = _require_float("snr_db", values["snr_db"])
            if abs(snr_from_db(given_db) - linear) > 1e-9 * linear:
                raise ConfigError(
                    "snr_linear: inconsistent with snr_db "
                    f"(snr_db {given_db} implies {snr_from_db(given_db):.12g}, got {linear})"
                )
        else:
            values["snr_db"] = implied_db

    for field, minimum in _INT_FIELDS.items():
        if field in values:
            values[field] = _require_int(field, values[field], minimum)
    if "seed" in values:
        values["seed"] = _require_int("seed", values["seed"], 0, 2**64 - 1)

    for field in _POSITIVE_FLOAT_FIELDS:
        if field in values:
            values[field] = _require_float(field, values[field])
            if values[field] <= 0.0:
                raise ConfigError(f"{field}: must be > 0 (got {values[field]})")
    for field in _NONNEGATIVE_FLOAT_FIELDS:
        if field in values:
            values[field] = _require_float(field, values[field])
            if values[field] < 0.0:
                raise ConfigError(f"{field}: must be >= 0 (got {values[field]})")
    for field in ("snr_db", "snr_db_leo_rx", "snr_db_bs_rx", "snr_db_leo_bs"):
        if values.get(field) is not None:
            values[field] = _require_float(field, values[field])
    if "bcc" in values:
        values["bcc"] = _require_float("bcc", values["bcc"])
        if abs(values["bcc"]) > 1.0:
            raise ConfigError(f"bcc: must satisfy |bcc| <= 1 (got {values['bcc']})")
    if values.get("rms_duration_s") is not None:
        values["rms_duration_s"] = _require_float("rms_duration_s", values["rms_duration_s"])
        if values["rms_duration_s"] <= 0.0:
            raise ConfigError(f"rms_duration_s: must be > 0 (got {values['rms_duration_s']})")

    if "case" in values:
        values["case"] = _require_choice("case", values["case"], ("with_bs", "receiver_only"))
    if "command" in values:
        values["command"] = _require_choice("command", values["command"], COMMANDS)
    if "format" in values:
        values["format"] = _require_choice("format", values["format"], FORMATS)
    if values.get("out") is not None and not isinstance(values["out"], str):
        raise ConfigError(f"out: must be a string path (got {values['out']!r})")

    if values.get("sweep_axis") is not None:
        axis = values["sweep_axis"]
        if not isinstance(axis, str) or axis not in _AXIS_ALIASES:
            raise ConfigError(
                f"sweep_axis: must be one of {sorted(set(_AXIS_ALIASES))} (got {axis!r})"
            )
        values["sweep_axis"] = _AXIS_ALIASES[axis]
    if values.get("sweep_values") is not None:
        raw_values = values["sweep_values"]
        if not isinstance(raw_values, (list, tuple)) or not raw_values:
            raise ConfigError(f"sweep_values: must be a non-empty list (got {raw_values!r})")
        values["sweep_values"] = tuple(
            _require_float(f"sweep_values[{i}]", v) for i, v in enumerate(raw_values)
        )
    for field in _GRID_FIELDS:
        if values.get(field) is not None:
            raw_values = values[field]
            if not isinstance(raw_values, (list, tuple)) or not raw_values:
                raise ConfigError(f"{field}: must be a non-empty list (got {raw_values!r})")
            minimum = _INT_FIELDS[field.removeprefix("grid_")]
            values[field] = tuple(
                _require_int(f"{field}[{i}]", v, minimum) for i, v in enumerate(raw_values)
            )

    try:
        config = RunConfig(**values)
    except TypeError as exc:  # keyword mismatch already excluded; defensive
        raise ConfigError(str(exc)) from exc

    if not 1e9 <= config.carrier_freq_hz <= 1e11:
        warnings.warn(
            f"carrier_freq_hz {config.carrier_freq_hz:g} is outside the supported "
            "band [1e9, 1e11]; results may be extrapolated",
            stacklevel=2,
        )
    # Let the scenario layer re-check the combined knobs (reports field names),
    # also at every sweep value.
    try:
        template = config.scenario_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.sweep_axis is not None and config.sweep_values is not None:
        for i, value in enumerate(config.sweep_values):
            try:
                swept_config(template, config.sweep_axis, value)
            except ValueError as exc:
                raise ConfigError(f"sweep_values[{i}]: {exc}") from exc
    return config


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration.

    Parse failures report line and column; validation failures report the
    offending field and constraint.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(raw)


def effective_config_dict(config: RunConfig) -> dict:
    """Full configuration with defaults applied, as a reloadable mapping.

    ``snr_linear`` is included next to ``snr_db``; ``None`` fields are
    dropped (they reload as defaults).
    """
    out: dict = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[field.name] = value
        if field.name == "snr_db":
            out["snr_linear"] = snr_from_db(config.snr_db)
    return out


def _fmt(value) -> str:
    """One CSV cell: 9 significant digits for floats, bare text otherwise."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, tuple):
        return ";".join(_fmt(v) for v in value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, tuple):
        return [_json_safe(v) for v in value]
    return value


def _record(
    command: str,
    seed: int,
    scenario_config: ScenarioConfig,
    verdict: IdentifiabilityVerdict,
    report: CrlbReport | None,
    trial: int | None = None,
    sweep_axis: str | None = None,
    sweep_value: float | None = None,
) -> dict:
    report = report if report is not None else CrlbReport.infinite(scenario_config.n_leo)
    return {
        "command": command,
        "seed": seed,
        "trial": trial,
        "sweep_axis": sweep_axis,
        "sweep_value": sweep_value,
        "n_leo": scenario_config.n_leo,
        "n_bs": scenario_config.n_bs,
        "n_ant": scenario_config.n_ant,
        "n_slots": scenario_config.n_slots,
        "slot_spacing_s": scenario_config.slot_spacing_s,
        "carrier_freq_hz": scenario_config.carrier_freq_hz,
        "eff_bandwidth_hz": scenario_config.eff_bandwidth_hz,
        "bcc": scenario_config.bcc,
        "rms_duration_s": scenario_config.effective_rms_duration_s,
        "snr_db": scenario_config.snr_db,
        "snr_linear": snr_from_db(scenario_config.snr_db),
        "case": scenario_config.case.value,
        "is_pd": verdict.is_pd,
        "min_eigenvalue": verdict.min_eigenvalue,
        "max_eigenvalue": verdict.max_eigenvalue,
        "condition_number": verdict.condition_number,
        "pos_rmse_bound": report.pos_rmse_bound,
        "vel_rmse_bound": report.vel_rmse_bound,
        "orient_rmse_bound": report.orient_rmse_bound,
        "leo_pos_offset_bound": report.leo_pos_offset_bound,
        "leo_vel_offset_bound": report.leo_vel_offset_bound,
    }


def write_records(records: list[dict], path: str, fmt: str) -> None:
    """Write result records as RFC-4180 CSV or as a JSON array."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(COLUMNS)
            for record in records:
                writer.writerow([_fmt(record[c]) for c in COLUMNS])
    elif fmt == "json":
        payload = [{c: _json_safe(r[c]) for c in COLUMNS} for r in records]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    else:
        raise ConfigError(f"format: must be one of {list(FORMATS)} (got {fmt!r})")


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _run_bound(config: RunConfig) -> tuple[list[dict], int]:
    template = config.scenario_config()
    records = []
    all_pd = True
    for trial, trial_seed in enumerate(derive_trial_seeds(config.seed, config.n_trials)):
        efim = compute_efim(random_scenario(template, trial_seed))
        verdict = is_identifiable(efim, config.rel_tol, config=template)
        report = crlb(efim, config.rel_tol) if verdict.is_pd else None
        all_pd = all_pd and verdict.is_pd
        records.append(
            _record("bound", config.seed, template, verdict, report, trial=trial)
        )
    headers = ["trial", "is_pd", "pos [m]", "vel [m/s]", "orient [rad]",
               "leo_pos_off [m]", "leo_vel_off [m/s]"]
    rows = [
        [
            _fmt(r["trial"]),
            _fmt(r["is_pd"]),
            _fmt(r["pos_rmse_bound"]),
            _fmt(r["vel_rmse_bound"]),
            _fmt(r["orient_rmse_bound"]),
            _fmt(r["leo_pos_offset_bound"]),
            _fmt(r["leo_vel_offset_bound"]),
        ]
        for r in records
    ]
    _print_table(headers, rows)
    return records, 0 if all_pd else 3


def _run_identifiability(config: RunConfig) -> tuple[list[dict], int]:
    template = config.scenario_config()
    grid = {}
    for field, axis in zip(_GRID_FIELDS, ("n_leo", "n_bs", "n_slots", "n_ant")):
        values = getattr(config, field)
        if values is not None:
            grid[axis] = list(values)
    verdicts = identifiability_sweep(
        grid, template, config.seed, config.n_trials, config.rel_tol
    )
    records = [
        _record("identifiability", config.seed, v.config, v, None)
        for v in verdicts
    ]
    headers = ["n_leo", "n_bs", "n_slots", "n_ant", "is_pd", "min_eig", "max_eig", "cond"]
    rows = [
        [
            _fmt(r["n_leo"]),
            _fmt(r["n_bs"]),
            _fmt(r["n_slots"]),
            _fmt(r["n_ant"]),
            _fmt(r["is_pd"]),
            _fmt(r["min_eigenvalue"]),
            _fmt(r["max_eigenvalue"]),
            _fmt(r["condition_number"]),
        ]
        for r in records
    ]
    _print_table(headers, rows)
    return records, 0


def _run_sweep(config: RunConfig) -> tuple[list[dict], int]:
    if config.sweep_axis is None or config.sweep_values is None:
        raise ConfigError("sweep_axis/sweep_values: required by the sweep command")
    template = config.scenario_config()
    points = parameter_sweep(
        config.sweep_axis,
        list(config.sweep_values),
        template,
        config.seed,
        config.n_trials,
        config.rel_tol,
    )
    records = [
        _record(
            "sweep",
            config.seed,
            p.config,
            p.worst_verdict,
            p.report,
            sweep_axis=p.axis,
            sweep_value=p.value,
        )
        for p in points
    ]
    headers = [config.sweep_axis, "pd_trials", "pos [m]", "vel [m/s]",
               "orient [rad]", "leo_pos_off [m]", "leo_vel_off [m/s]"]
    rows = [
        [
            _fmt(p.value),
            f"{p.n_pd_trials}/{p.n_trials}",
            _fmt(p.report.pos_rmse_bound),
            _fmt(p.report.vel_rmse_bound),
            _fmt(p.report.orient_rmse_bound),
            _fmt(p.report.leo_pos_offset_bound),
            _fmt(p.report.leo_vel_offset_bound),
        ]
        for p in points
    ]
    _print_table(headers, rows)
    return records, 0


def run_command(config: RunConfig, command: str | None = None) -> int:
    """Execute one command; print tables, write the output file, return exit code."""
    command = command or config.command
    if command not in COMMANDS:
        raise ConfigError(f"command: must be one of {list(COMMANDS)} (got {command!r})")
    print("effective configuration:")
    print(json.dumps(effective_config_dict(config), indent=2))
    try:
        if command == "bound":
            records, status = _run_bound(config)
        elif command == "identifiability":
            records, status = _run_identifiability(config)
        else:
            records, status = _run_sweep(config)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DegenerateGeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return 4
    if config.out is not None:
        write_records(records, config.out, config.format)
        print(f"wrote {len(records)} records to {config.out}")
    if status == 3:
        print(
            "not identifiable: at least one trial's EFIM failed the "
            "positive-definiteness test",
            file=sys.stderr,
        )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="leofim",
        description="Fisher-information bounds for joint receiver localization "
        "and satellite ephemeris-offset correction.",
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--command", choices=COMMANDS, help="what to compute")
    parser.add_argument("--seed", type=int, help="override the stream seed")
    parser.add_argument("--out", help="override the output file path")
    parser.add_argument("--format", choices=FORMATS, help="override the output format")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else RunConfig()
        overrides = {}
        if args.command is not None:
            overrides["command"] = args.command
        if args.seed is not None:
            overrides["seed"] = _require_int("seed", args.seed, 0, 2**64 - 1)
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        if overrides:
            config = dataclasses.replace(config, **overrides)
        return run_command(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
