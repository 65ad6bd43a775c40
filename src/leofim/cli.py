"""Command-line front end: JSON config in, verdict/bound tables out.

Three commands share one configuration schema:

* ``bound``           — CRLB report for each of ``n_trials`` seeded geometries.
* ``identifiability`` — PD verdict per cell of a counts grid.
* ``sweep``           — mean bounds along one scalar axis.

Configs are flat JSON objects (see ``RunConfig`` for keys and defaults).
Unknown keys are rejected.  Scenario settings and their ranges are those of
:class:`~leofim.scenario.ScenarioConfig`; every scenario configuration a run
builds (the template, each sweep value, each grid entry) is checked.
``snr_db`` is canonical; ``snr_linear`` is accepted on input (and echoed on
output) but must agree with ``snr_db`` when both are present.  The effective
configuration echoed by a run can be fed back in as a config file and reloads
to an equivalent ``RunConfig``.

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
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import (
    DEFAULT_N_TRIALS,
    DEFAULT_REL_TOL,
    GRID_AXES,
    SWEEP_AXES,
    CrlbReport,
    IdentifiabilityVerdict,
    _trials,
    identifiability_sweep,
    parameter_sweep,
    swept_config,
)
from .geometry import DegenerateGeometryError
from .linalg import NumericalError
from .scenario import Case, ScenarioConfig
from .signals import snr_from_db

COMMANDS = ("bound", "identifiability", "sweep")
FORMATS = ("csv", "json")

# Accepted spellings for the sweep axis, canonicalized to config field names.
_AXIS_ALIASES = {
    **{axis: axis for axis in SWEEP_AXES},
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
# The bound columns, shared by the printed tables.
_BOUND_COLUMNS = COLUMNS[COLUMNS.index("pos_rmse_bound"):]


class ConfigError(ValueError):
    """A configuration problem: bad JSON, unknown key, or violated constraint."""


@dataclass(frozen=True)
class RunConfig(ScenarioConfig):
    """Flat run configuration (one JSON object).

    The scenario settings, their defaults and their ranges are inherited from
    :class:`~leofim.scenario.ScenarioConfig`; the fields declared here steer
    the run itself.  ``grid_*`` keys select the identifiability grid (missing
    axes stay at the scalar value); ``sweep_axis``/``sweep_values`` configure
    the ``sweep`` command.
    """

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

    def __post_init__(self):
        super().__post_init__()
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if not self.rel_tol > 0.0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")

    def scenario_config(self) -> ScenarioConfig:
        """The scenario-generator slice of this run configuration."""
        return ScenarioConfig(
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(ScenarioConfig)}
        )


def _require_int(field: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: must be an integer (got {value!r})")
    return value


def _require_float(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: must be a number (got {value!r})")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{field}: must be finite (got an integer beyond float range)") from None
    if not math.isfinite(number):
        raise ConfigError(f"{field}: must be finite (got {value!r})")
    return number


def _require_choice(field: str, value, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{field}: must be one of {list(choices)} (got {value!r})")
    return value


def _require_seed(field: str, value) -> int:
    seed = _require_int(field, value)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{field}: must be in [0, {2**64 - 1}] (got {seed})")
    return seed


def _require_path(field: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{field}: must be a string path (got {value!r})")
    return value


def _require_list(require):
    """Check of a non-empty JSON list whose entries pass ``require``."""

    def check(field: str, value) -> tuple:
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{field}: must be a non-empty list (got {value!r})")
        return tuple(require(f"{field}[{i}]", v) for i, v in enumerate(value))

    return check


# JSON type checks, by field name or else by field annotation (an optional
# ``X | None`` field also takes null).  Ranges are the configurations' own.
_CHECKS_BY_NAME = {
    "case": lambda field, value: Case(
        _require_choice(field, value, tuple(c.value for c in Case))
    ),
    "command": lambda field, value: _require_choice(field, value, COMMANDS),
    "format": lambda field, value: _require_choice(field, value, FORMATS),
    "sweep_axis": lambda field, value: _AXIS_ALIASES[
        _require_choice(field, value, tuple(sorted(_AXIS_ALIASES)))
    ],
    "seed": _require_seed,
}
_CHECKS_BY_TYPE = {
    "int": _require_int,
    "float": _require_float,
    "str": _require_path,
    "tuple[int, ...]": _require_list(_require_int),
    "tuple[float, ...]": _require_list(_require_float),
}


def _checked(label: str, build, template: ScenarioConfig | None = None) -> ScenarioConfig:
    """One scenario configuration of a run, built by ``build()``.

    A value the configuration rejects becomes a :class:`ConfigError` prefixed
    with ``label``.  A carrier outside the supported band warns, unless it is
    ``template``'s, which has warned already.
    """
    try:
        config = build()
    except ValueError as exc:
        raise ConfigError(f"{label}{exc}") from exc
    carrier = config.carrier_freq_hz
    if not 1e9 <= carrier <= 1e11 and (template is None or carrier != template.carrier_freq_hz):
        warnings.warn(
            f"{label}carrier_freq_hz {carrier:g} is outside the supported "
            "band [1e9, 1e11]; results may be extrapolated",
            stacklevel=3,
        )
    return config


def config_from_dict(raw: dict) -> RunConfig:
    """Validate a flat key/value mapping into a :class:`RunConfig`.

    Unknown keys are rejected.  Every scenario configuration the run will
    build is checked, and every violated constraint is reported with the
    offending field name (and sweep or grid entry).
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration must be a JSON object (got {type(raw).__name__})")
    fields = dataclasses.fields(RunConfig)
    unknown = sorted(set(raw) - {f.name for f in fields} - {"snr_linear"})
    if unknown:
        raise ConfigError(f"unknown configuration keys: {unknown}")

    values = dict(raw)
    linear = values.pop("snr_linear", None)
    if linear is not None:
        linear = _require_float("snr_linear", linear)
        if linear <= 0.0:
            raise ConfigError(f"snr_linear: must be > 0 (got {linear})")
        values.setdefault("snr_db", 10.0 * math.log10(linear))
    for field in fields:
        kind = field.type.removesuffix(" | None")
        value = values.get(field.name)
        if field.name in values and (value is not None or kind == field.type):
            check = _CHECKS_BY_NAME.get(field.name) or _CHECKS_BY_TYPE[kind]
            values[field.name] = check(field.name, value)

    config = _checked("", functools.partial(RunConfig, **values))
    if linear is not None and "snr_db" in raw:
        implied = snr_from_db(config.snr_db)
        if abs(implied - linear) > 1e-9 * linear:
            raise ConfigError(
                "snr_linear: inconsistent with snr_db "
                f"(snr_db {config.snr_db} implies {implied:.12g}, got {linear})"
            )
    template = config.scenario_config()
    if config.sweep_axis is not None and config.sweep_values is not None:
        for i, value in enumerate(config.sweep_values):
            build = functools.partial(swept_config, template, config.sweep_axis, value)
            _checked(f"sweep_values[{i}]: ", build, template)
    for axis in GRID_AXES:
        for i, value in enumerate(getattr(config, f"grid_{axis}") or ()):
            build = functools.partial(dataclasses.replace, template, **{axis: value})
            _checked(f"grid_{axis}[{i}]: ", build, template)
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
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
        if isinstance(value, Case):
            value = value.value
        elif isinstance(value, tuple):
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
    ((verdicts, bounds),) = _trials(
        [template], config.seed, config.n_trials, config.rel_tol, with_bounds=True
    )
    records = [
        _record("bound", config.seed, template, verdict, CrlbReport.of(row), trial=trial)
        for trial, (verdict, row) in enumerate(zip(verdicts, bounds))
    ]
    headers = ["trial", "is_pd", "pos [m]", "vel [m/s]", "orient [rad]",
               "leo_pos_off [m]", "leo_vel_off [m/s]"]
    columns = ("trial", "is_pd", *_BOUND_COLUMNS)
    rows = [[_fmt(r[c]) for c in columns] for r in records]
    _print_table(headers, rows)
    return records, 0 if all(verdict.is_pd for verdict in verdicts) else 3


def _run_identifiability(config: RunConfig) -> tuple[list[dict], int]:
    template = config.scenario_config()
    grid = {
        axis: list(getattr(config, f"grid_{axis}"))
        for axis in GRID_AXES
        if getattr(config, f"grid_{axis}") is not None
    }
    verdicts = identifiability_sweep(
        grid, template, config.seed, config.n_trials, config.rel_tol
    )
    records = [
        _record("identifiability", config.seed, v.config, v, None)
        for v in verdicts
    ]
    headers = ["n_leo", "n_bs", "n_slots", "n_ant", "is_pd", "min_eig", "max_eig", "cond"]
    columns = (*GRID_AXES, "is_pd", "min_eigenvalue", "max_eigenvalue", "condition_number")
    rows = [[_fmt(r[c]) for c in columns] for r in records]
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
        [_fmt(p.value), f"{p.n_pd_trials}/{p.n_trials}", *(_fmt(r[c]) for c in _BOUND_COLUMNS)]
        for p, r in zip(points, records)
    ]
    _print_table(headers, rows)
    return records, 0


def run_command(config: RunConfig) -> int:
    """Execute one command; print tables, write the output file, return exit code.

    The output path is probed before the run, so an unwritable one fails at once.
    A floating-point overflow or invalid operation while computing is a
    numerical failure, like a :class:`NumericalError`.
    """
    command = config.command
    if command not in COMMANDS:
        raise ConfigError(f"command: must be one of {list(COMMANDS)} (got {command!r})")
    if config.out is not None:
        existed = os.path.exists(config.out)
        try:  # append mode: never truncates; a created file is removed again
            open(config.out, "a").close()
        except OSError as exc:
            raise ConfigError(f"out: {config.out}: {exc.strerror or exc}") from exc
        if not existed:
            os.remove(config.out)
    print("effective configuration:")
    print(json.dumps(effective_config_dict(config), indent=2))
    try:
        with np.errstate(over="raise", invalid="raise"):
            if command == "bound":
                records, status = _run_bound(config)
            elif command == "identifiability":
                records, status = _run_identifiability(config)
            else:
                records, status = _run_sweep(config)
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DegenerateGeometryError as exc:
        print(f"degenerate geometry: {exc}", file=sys.stderr)
        return 4
    if config.out is not None:
        try:
            write_records(records, config.out, config.format)
        except OSError as exc:
            raise ConfigError(f"out: {config.out}: {exc.strerror or exc}") from exc
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
            overrides["seed"] = _require_seed("seed", args.seed)
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
