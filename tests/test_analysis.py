"""Identifiability verdicts, CRLB reports, and sweeps."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from leofim.analysis import (
    GRID_AXES,
    CrlbReport,
    NotIdentifiableError,
    SweepPoint,
    crlb,
    identifiability_sweep,
    is_identifiable,
    parameter_sweep,
    swept_config,
)
from leofim.geometry import DegenerateGeometryError
from leofim.location_fim import Efim, compute_efim
from leofim.scenario import Case, ScenarioConfig, derive_trial_seeds, random_scenario
from leofim.transform import LocationLayout

WIDE = ScenarioConfig(
    n_leo=1, n_bs=3, n_ant=4, n_slots=4, slot_spacing_s=50.0, bs_distance_m=5e5
)

# A satellite on top of the array: every link's geometry is undefined.
DEGENERATE = ScenarioConfig(
    leo_distance_m=1e-12,
    receiver_distance_m=1e-12,
    leo_speed_m_s=0.0,
    receiver_speed_m_s=0.0,
    array_radius_wavelengths=0.0,
)


def _diag_efim(diag):
    layout = LocationLayout(n_leo=1, kappa2_channel_cols=())
    assert len(diag) == layout.dim
    return Efim(
        matrix=np.diag(np.asarray(diag, dtype=float)),
        layout=layout,
        case=Case.WITH_BS,
    )


def test_is_identifiable_catches_rank_deficiency():
    verdict = is_identifiable(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert not verdict.is_pd
    assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_is_identifiable_reports_balanced_spectrum():
    verdict = is_identifiable(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert verdict.is_pd
    # balanced matrix is [[1, .5], [.5, 1]] with eigenvalues 1/2 and 3/2
    assert verdict.min_eigenvalue == pytest.approx(0.5, rel=1e-12)
    assert verdict.max_eigenvalue == pytest.approx(1.5, rel=1e-12)
    assert verdict.condition_number == pytest.approx(3.0, rel=1e-12)


def test_is_identifiable_balancing_ignores_diagonal_scale():
    base = np.array([[2.0, 1.0], [1.0, 2.0]])
    scale = np.diag([1e9, 1e-9])
    verdict = is_identifiable(scale @ base @ scale)
    assert verdict.is_pd
    assert verdict.condition_number == pytest.approx(3.0, rel=1e-9)


def test_crlb_root_trace_per_block():
    efim = _diag_efim([4, 4, 4, 1, 1, 1, 0.25, 0.25, 0.25, 16, 16, 16, 9, 9, 9])
    report = crlb(efim)
    assert report.pos_rmse_bound == pytest.approx(np.sqrt(3 / 4), rel=1e-12)
    assert report.vel_rmse_bound == pytest.approx(np.sqrt(3), rel=1e-12)
    assert report.orient_rmse_bound == pytest.approx(np.sqrt(12), rel=1e-12)
    assert report.leo_pos_offset_bound == (pytest.approx(np.sqrt(3 / 16), rel=1e-12),)
    assert report.leo_vel_offset_bound == (pytest.approx(np.sqrt(3 / 9), rel=1e-12),)


def test_crlb_raises_with_verdict_on_singular_efim():
    diag = [1.0] * 15
    diag[4] = 0.0
    efim = _diag_efim(diag)
    with pytest.raises(NotIdentifiableError) as exc:
        crlb(efim)
    assert "not positive definite" in str(exc.value)
    assert exc.value.verdict.is_pd is False


def test_crlb_inverts_every_direction_its_verdict_counts():
    """A PD verdict at a tolerance below the default eigenvalue floor must not
    be followed by a pseudo-inverse that drops the weak direction."""
    c = 1.0 - 2.0**-42  # position x/y nearly collinear: min/max ~ 1.1e-13
    matrix = np.eye(15)
    matrix[0, 1] = matrix[1, 0] = c
    layout = LocationLayout(n_leo=1, kappa2_channel_cols=())
    efim = Efim(matrix=matrix, layout=layout, case=Case.WITH_BS)
    assert is_identifiable(efim, rel_tol=1e-15).is_pd
    report = crlb(efim, rel_tol=1e-15)
    expected = np.sqrt(2.0 / ((1.0 - c) * (1.0 + c)) + 1.0)
    assert report.pos_rmse_bound == pytest.approx(expected, rel=1e-9)
    assert report.vel_rmse_bound == pytest.approx(np.sqrt(3), rel=1e-12)


def test_report_scaling_and_infinite():
    report = CrlbReport(1.0, 2.0, 3.0, (4.0,), (5.0,))
    half = report.scaled(0.5)
    assert half.pos_rmse_bound == 0.5
    assert half.leo_vel_offset_bound == (2.5,)
    inf = CrlbReport.infinite(2)
    assert np.isinf(inf.pos_rmse_bound)
    assert len(inf.leo_pos_offset_bound) == 2


def test_identifiability_sweep_flags_single_antenna():
    """One antenna leaves orientation unobservable: those cells must fail."""
    table = identifiability_sweep({"n_ant": [1, 4]}, WIDE, seed=7, n_trials=3)
    assert len(table) == 2
    by_ant = {v.config.n_ant: v for v in table}
    assert not by_ant[1].is_pd
    assert by_ant[4].is_pd


def test_identifiability_sweep_is_deterministic():
    runs = [
        identifiability_sweep({"n_bs": [2, 3]}, WIDE, seed=11, n_trials=2)
        for _ in range(2)
    ]
    for a, b in zip(*runs):
        assert a.min_eigenvalue == b.min_eigenvalue
        assert a.max_eigenvalue == b.max_eigenvalue
        assert a.is_pd == b.is_pd


def _per_cell_sweep(grid, template, seed, n_trials):
    """Reference sweep: every cell samples each of its trials on its own."""
    values = [grid.get(axis, [getattr(template, axis)]) for axis in GRID_AXES]
    table = []
    for counts in itertools.product(*values):
        config = dataclasses.replace(template, **dict(zip(GRID_AXES, counts)))
        trials = [
            dataclasses.replace(
                is_identifiable(compute_efim(random_scenario(config, s))), config=config
            )
            for s in derive_trial_seeds(seed, n_trials)
        ]
        worst = min(
            trials,
            key=lambda v: v.min_eigenvalue / v.max_eigenvalue if v.max_eigenvalue > 0 else -np.inf,
        )
        table.append(dataclasses.replace(worst, is_pd=all(t.is_pd for t in trials)))
    return table


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", list(Case))
def test_identifiability_sweep_matches_per_cell_sampling_exactly(seed, case):
    """Also for satellite counts out of order and a repeated antenna count,
    which guards cell order and the worst trial's tie-breaking."""
    template = dataclasses.replace(WIDE, case=case)
    for grid, n_cells in (
        ({"n_leo": [1, 2], "n_bs": [0, 2], "n_slots": [1, 3], "n_ant": [1, 3]}, 16),
        ({"n_leo": [2, 1], "n_bs": [3, 0], "n_slots": [2, 1], "n_ant": [4, 1, 4]}, 24),
    ):
        table = identifiability_sweep(grid, template, seed, n_trials=3)
        reference = _per_cell_sweep(grid, template, seed, n_trials=3)
        assert len(table) == len(reference) == n_cells
        for got, expected in zip(table, reference):
            for field in dataclasses.fields(got):
                assert getattr(got, field.name) == getattr(expected, field.name), field.name


def test_identifiability_sweep_of_an_empty_axis_is_empty():
    assert identifiability_sweep({"n_bs": [2, 3], "n_ant": []}, WIDE, seed=3) == []


def test_identifiability_sweep_raises_on_degenerate_geometry():
    """A satellite on top of the array: every cell's links are undefined."""
    with pytest.raises(DegenerateGeometryError):
        identifiability_sweep({"n_ant": [1, 2]}, DEGENERATE, seed=3, n_trials=1)


def test_identifiability_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        identifiability_sweep({"n_moons": [1]}, WIDE, seed=3)


def test_tolerance_separates_weak_from_absent_information():
    """The reference configuration sits near the working precision floor: it
    fails the default tolerance but clears a looser one, and the knob is what
    separates the two readings."""
    cfg = ScenarioConfig()
    strict = identifiability_sweep({}, cfg, seed=7, n_trials=5)
    loose = identifiability_sweep({}, cfg, seed=7, n_trials=5, rel_tol=1e-12)
    assert not strict[0].is_pd
    assert loose[0].is_pd
    assert strict[0].min_eigenvalue == loose[0].min_eigenvalue


def test_parameter_sweep_snr_scaling():
    points = parameter_sweep("snr_db", [10.0, 20.0], WIDE, seed=5, n_trials=2)
    assert [p.value for p in points] == [10.0, 20.0]
    low, high = points
    assert low.n_pd_trials == high.n_pd_trials == 2
    factor = 10.0 ** (-0.5)  # +10 dB means x10 information, bounds / sqrt(10)
    assert high.report.pos_rmse_bound == pytest.approx(
        low.report.pos_rmse_bound * factor, rel=1e-9
    )
    assert high.report.leo_vel_offset_bound[0] == pytest.approx(
        low.report.leo_vel_offset_bound[0] * factor, rel=1e-9
    )


def _two_trial_sweep_decisions(monkeypatch, axis, values):
    """A two-trial parameter sweep's points, and how many matrices its
    balanced spectrum calls decide (a stack counts each of its matrices)."""
    import leofim.analysis as analysis

    decided = []
    original = analysis.balanced_eigvalsh
    monkeypatch.setattr(
        analysis, "balanced_eigvalsh", lambda m: decided.append(m.shape[:-2]) or original(m)
    )
    points = parameter_sweep(axis, values, WIDE, seed=5, n_trials=2)
    return points, sum(math.prod(shape) for shape in decided)


def test_parameter_sweep_bounds_reuse_the_trial_verdict(monkeypatch):
    """Each (value, trial) is decided exactly once: the bounds do not decide
    again."""
    points, n_decided = _two_trial_sweep_decisions(monkeypatch, "snr_db", [10.0, 20.0])
    assert [p.n_pd_trials for p in points] == [2, 2]
    assert n_decided == 2 * 2


def test_parameter_sweep_decides_a_trials_antenna_counts_in_one_spectrum(monkeypatch):
    """Antenna counts slice one sample per trial, and each (count, trial) is
    decided exactly once."""
    points, n_decided = _two_trial_sweep_decisions(monkeypatch, "n_ant", [4, 8, 2])
    assert [p.n_pd_trials for p in points] == [2, 2, 0]
    assert n_decided == 3 * 2


def _per_value_sweep(axis, values, template, seed, n_trials):
    """Reference sweep: every value samples each of its trials on its own."""
    points = []
    for value in values:
        config = swept_config(template, axis, value)
        verdicts, reports = [], []
        for s in derive_trial_seeds(seed, n_trials):
            efim = compute_efim(random_scenario(config, s))
            verdicts.append(dataclasses.replace(is_identifiable(efim), config=config))
            try:
                reports.append(crlb(efim))
            except NotIdentifiableError:
                reports.append(CrlbReport.infinite(config.n_leo))

        def mean(field):
            return np.mean([getattr(r, field) for r in reports], axis=0)

        points.append(
            SweepPoint(
                axis=axis,
                value=float(value),
                config=config,
                report=CrlbReport(
                    float(mean("pos_rmse_bound")),
                    float(mean("vel_rmse_bound")),
                    float(mean("orient_rmse_bound")),
                    tuple(map(float, mean("leo_pos_offset_bound"))),
                    tuple(map(float, mean("leo_vel_offset_bound"))),
                ),
                n_trials=n_trials,
                n_pd_trials=sum(v.is_pd for v in verdicts),
                worst_verdict=min(
                    verdicts,
                    key=lambda v: v.min_eigenvalue / v.max_eigenvalue
                    if v.max_eigenvalue > 0 else -np.inf,
                ),
            )
        )
    return points


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("case", list(Case))
def test_parameter_sweep_matches_per_value_sampling_exactly(seed, case):
    """Antenna counts out of order, repeated and down to one (infinite bounds);
    axes that are not nested; a template without stations; and one whose
    station-receiver SNR underflows to zero, so the station pool informs no
    trial."""
    template = dataclasses.replace(WIDE, case=case)
    for axis, values, base in (
        ("n_ant", [16, 4, 16, 1], template),
        ("carrier_freq_hz", [28e9, 40e9], template),
        ("snr_db", [20.0, 10.0], template),
        ("n_ant", [1, 4, 2], dataclasses.replace(template, n_bs=0)),
        ("n_ant", [4, 1], dataclasses.replace(template, snr_db_bs_rx=-4000.0)),
    ):
        points = parameter_sweep(axis, values, base, seed, n_trials=3)
        reference = _per_value_sweep(axis, values, base, seed, n_trials=3)
        assert len(points) == len(reference) == len(values)
        for got, expected in zip(points, reference):
            for field in dataclasses.fields(got):
                assert getattr(got, field.name) == getattr(expected, field.name), (
                    axis, got.value, field.name
                )
    assert any(np.isinf(p.report.pos_rmse_bound) for p in points)


@pytest.mark.parametrize(
    "axis, values, sampled",
    [("n_ant", [4, 8, 2], [8, 8]), ("snr_db", [10.0, 20.0, 30.0], [4] * 6)],
)
def test_parameter_sweep_samples_and_links_each_trial_once_per_family(
    axis, values, sampled, monkeypatch
):
    """Antenna counts slice one sample at the largest count; other axes
    sample once per (value, trial).  A family's trials are sampled and linked
    in one pass."""
    import leofim.analysis as analysis

    sampled_counts, linked = [], []
    sample, link = analysis._sample, analysis._link_pass
    monkeypatch.setattr(
        analysis,
        "_sample",
        lambda c, seeds: sampled_counts.extend([c.n_ant] * len(seeds)) or sample(c, seeds),
    )
    monkeypatch.setattr(
        analysis, "_link_pass", lambda scene, kinds: linked.append(scene) or link(scene, kinds)
    )
    parameter_sweep(axis, values, WIDE, seed=5, n_trials=2)
    assert sampled_counts == sampled
    assert sum(len(scene.position) for scene in linked) == len(sampled)


def test_parameter_sweep_raises_on_degenerate_geometry():
    with pytest.raises(DegenerateGeometryError):
        parameter_sweep("n_ant", [1, 2], DEGENERATE, seed=3, n_trials=1)


def test_parameter_sweep_propagates_infinite_bounds():
    points = parameter_sweep("n_ant", [1], WIDE, seed=5, n_trials=2)
    (point,) = points
    assert point.n_pd_trials == 0
    assert np.isinf(point.report.pos_rmse_bound)
    assert np.isinf(point.report.orient_rmse_bound)


def test_parameter_sweep_rejects_unknown_axis():
    with pytest.raises(ValueError):
        parameter_sweep("n_leo", [1, 2], WIDE, seed=5)


def test_swept_antenna_count_becomes_an_integer():
    config = swept_config(WIDE, "n_ant", 8.0)
    assert config.n_ant == 8 and type(config.n_ant) is int


def test_parameter_sweep_rejects_non_integral_antenna_count(monkeypatch):
    """Before sampling anything, the valid first value included."""
    import leofim.analysis as analysis

    def no_sampling(*args):
        raise AssertionError("sampled a scenario")

    monkeypatch.setattr(analysis, "_sample", no_sampling)
    with pytest.raises(ValueError, match="n_ant must be an integer"):
        parameter_sweep("n_ant", [4, 2.5], WIDE, seed=5)


@pytest.mark.parametrize("n_trials", [0, -1])
@pytest.mark.parametrize("sweep", ["identifiability", "parameter"])
def test_sweeps_reject_non_positive_trial_count_before_sampling(sweep, n_trials, monkeypatch):
    import leofim.analysis as analysis

    def no_sampling(*args):
        raise AssertionError("sampled a scenario")

    monkeypatch.setattr(analysis, "_sample", no_sampling)
    with pytest.raises(ValueError, match=rf"^n_trials must be >= 1, got {n_trials}$"):
        if sweep == "identifiability":
            identifiability_sweep({"n_ant": [1, 2]}, WIDE, seed=3, n_trials=n_trials)
        else:
            parameter_sweep("snr_db", [10.0], WIDE, seed=3, n_trials=n_trials)


@pytest.mark.parametrize(
    ("axis", "values", "stacks"),
    [("n_ant", [4, 8, 2], [4]), ("snr_db", [10.0, 20.0], [2, 2])],
)
def test_parameter_sweep_bounds_a_family_with_one_stacked_inverse(
    monkeypatch, axis, values, stacks
):
    """The PD trials of a (family, satellite count) are inverted in one call:
    an antenna-count sweep is one family (its two-antenna value is not PD),
    and each SNR value is its own."""
    import leofim.analysis as analysis

    inverted = []
    original = analysis.invert_psd
    monkeypatch.setattr(
        analysis,
        "invert_psd",
        lambda m, floor_rel: inverted.append(m.shape[:-2]) or original(m, floor_rel),
    )
    points = parameter_sweep(axis, values, WIDE, seed=5, n_trials=2)
    assert inverted == [(n,) for n in stacks]
    assert sum(p.n_pd_trials for p in points) == sum(stacks)


def test_parameter_sweep_mean_adds_its_trials_as_the_mean_of_a_list():
    """From 8 trials on, numpy's pairwise sum of a list and a row-by-row sum
    over a trial axis differ in the last bit; every mean bound is the
    ``np.mean`` of its trials' own bounds, satellite by satellite."""
    config = dataclasses.replace(WIDE, n_leo=2)
    (point,) = parameter_sweep("snr_db", [config.snr_db], config, seed=3, n_trials=11)
    reports = [
        crlb(compute_efim(random_scenario(config, s))) for s in derive_trial_seeds(3, 11)
    ]
    for field in dataclasses.fields(CrlbReport):
        got = getattr(point.report, field.name)
        per_trial = [getattr(r, field.name) for r in reports]
        if isinstance(got, tuple):
            assert got == tuple(float(np.mean(values)) for values in zip(*per_trial))
        else:
            assert got == float(np.mean(per_trial))
