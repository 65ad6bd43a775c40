"""Location-parameter Jacobians against the finite-difference oracle."""

import numpy as np
import pytest

from leofim.channel_fim import assemble_channel_fim, build_transformation_matrix, transform_fim
from leofim.links import LinkKind, leo_rx_observables
from leofim.scenario import Case, ScenarioConfig, random_scenario

from _fd import compare, fd_link_jacobians, signed_partials

FD_TOL = 1e-6


def _scenario(seed, **overrides):
    base = dict(n_leo=2, n_bs=2, n_ant=2, n_slots=3)
    base.update(overrides)
    return random_scenario(ScenarioConfig(**base), seed)


def _observable_cols(sec):
    """Global delay and Doppler columns of one assembled link section."""
    lay = sec.fim.layout
    return sec.offset + np.r_[lay.delays, lay.dopplers]


def _delay_cols(glob, kind, index):
    sec = next(s for s in glob.sections if (s.fim.batch.kind, s.fim.member) == (kind, index))
    lay = sec.fim.layout
    return sec.offset + np.arange(lay.delays.start, lay.delays.stop)


@pytest.mark.parametrize("seed", [13, 14])
@pytest.mark.parametrize("kind", [LinkKind.LEO_RX, LinkKind.BS_RX, LinkKind.LEO_BS])
def test_partials_match_finite_differences(kind, seed):
    sc = _scenario(seed)
    analytic = signed_partials(sc, kind, 1)
    numeric = fd_link_jacobians(sc, kind, 1)
    assert analytic.keys() == numeric.keys()
    for name, num in numeric.items():
        err = compare(analytic[name], num)
        assert err <= FD_TOL, f"{kind} {name}: worst relative error {err:.3e}"


RECEIVER_BLOCKS = {"dtau_dp", "dtau_dvu", "dtau_dphi", "dnu_dp", "dnu_dvu"}
OFFSET_BLOCKS = {"dtau_dpcheck", "dtau_dvcheck", "dnu_dpcheck", "dnu_dvcheck"}


def test_station_links_carry_no_satellite_partials():
    """Each link kind informs exactly its blocks: station-receiver links the
    receiver's, satellite-station links the satellite's offsets, and
    satellite-receiver links both."""
    sc = _scenario(21)
    assert signed_partials(sc, LinkKind.BS_RX, 0).keys() == RECEIVER_BLOCKS
    assert signed_partials(sc, LinkKind.LEO_BS, 0).keys() == OFFSET_BLOCKS
    assert signed_partials(sc, LinkKind.LEO_RX, 0).keys() == RECEIVER_BLOCKS | OFFSET_BLOCKS


def test_satellite_offset_partials_mirror_receiver_ones():
    """A satellite-receiver link writes its receiver partials into the
    receiver blocks and their exact negation into the satellite's offsets."""
    sc = _scenario(22)
    jac = leo_rx_observables(sc, 0).jacobians
    blocks = signed_partials(sc, LinkKind.LEO_RX, 0)
    # The link's own partials: member 0 of trial 0, the Doppler ones at the array's one row.
    for receiver, offset, partial in (
        ("dtau_dp", "dtau_dpcheck", jac.dtau_dp[0, 0]),
        ("dtau_dvu", "dtau_dvcheck", jac.dtau_dv[0, 0]),
        ("dnu_dp", "dnu_dpcheck", jac.dnu_dp[0, 0, 0]),
        ("dnu_dvu", "dnu_dvcheck", jac.dnu_dv[0, 0, 0]),
    ):
        assert np.array_equal(blocks[receiver], partial), receiver
        assert np.array_equal(blocks[offset], -partial), offset


def test_delay_velocity_partial_scales_with_slot_time():
    sc = _scenario(23)
    jac = leo_rx_observables(sc, 0).jacobians
    times = sc.grid.slot_numbers() * sc.grid.spacing_s
    expected = times[None, :, None] * jac.dtau_dp[0, 0]
    assert np.allclose(jac.dtau_dv[0, 0], expected, rtol=1e-12, atol=0.0)


def test_batch_jacobian_entries_match_finite_differences():
    """Single (element, slot) entries of the batch arrays against the oracle."""
    sc = _scenario(24)
    analytic = signed_partials(sc, LinkKind.LEO_RX, 1)
    numeric = fd_link_jacobians(sc, LinkKind.LEO_RX, 1)
    for name, entry in (
        ("dtau_dp", (1, 2)),
        ("dtau_dvu", (0, 1)),
        ("dtau_dphi", (1, 0)),
        ("dnu_dp", (2,)),
        ("dnu_dvu", (0,)),
    ):
        err = compare(analytic[name][entry], numeric[name][entry])
        assert err <= FD_TOL, f"{name}{entry}: relative error {err:.3e}"
    sb = signed_partials(sc, LinkKind.LEO_BS, 0)
    sb_numeric = fd_link_jacobians(sc, LinkKind.LEO_BS, 0)
    assert compare(sb["dnu_dpcheck"][1, 1], sb_numeric["dnu_dpcheck"][1, 1]) <= FD_TOL
    assert "dtau_dp" not in sb and "dtau_dphi" not in sb


def test_transformation_matrix_shape_and_nuisance_rows():
    sc = _scenario(25)
    _, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    loc = ups.location_layout
    assert loc.dim_interest == 9 + 6 * 2
    assert ups.matrix.shape == (loc.dim_interest + len(glob.nuisance_cols), glob.dim)
    # nuisance rows are unit selectors of their channel columns
    for row, col in enumerate(glob.nuisance_cols):
        expected = np.zeros(glob.dim)
        expected[col] = 1.0
        assert np.array_equal(ups.matrix[loc.dim_interest + row], expected)
    # each channel column is touched: delays/dopplers by geometry rows,
    # gains/offsets by their unit rows
    assert np.all(np.any(ups.matrix != 0.0, axis=0))


def test_station_link_delay_columns_have_zero_offset_rows():
    sc = _scenario(26)
    _, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    loc = ups.location_layout
    cols = _delay_cols(glob, LinkKind.BS_RX, 0)
    for b in range(sc.n_leo):
        assert np.count_nonzero(ups.matrix[loc.pos_offset(b)][:, cols]) == 0
        assert np.count_nonzero(ups.matrix[loc.vel_offset(b)][:, cols]) == 0
    # while satellite-station delay columns have zero receiver rows
    cols_sb = _delay_cols(glob, LinkKind.LEO_BS, 0)
    assert np.count_nonzero(ups.matrix[loc.position][:, cols_sb]) == 0
    assert np.count_nonzero(ups.matrix[loc.orientation][:, cols_sb]) == 0


def test_location_layout_counts_nuisance_columns():
    sc = _scenario(27)
    _, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    # per satellite-receiver link: gain + 2 offsets; stations: gain each + one
    # shared pair; per satellite-station link: gain + 2 offsets
    expected = 2 * 3 + (2 * 1 + 2) + 2 * 3
    assert len(glob.nuisance_cols) == expected
    assert len(ups.matrix) == ups.location_layout.dim_interest + expected


@pytest.mark.parametrize(
    "seed, overrides",
    [
        (27, {}),
        (28, dict(n_bs=0)),
        (29, dict(n_bs=0, case=Case.RECEIVER_ONLY)),
        (30, dict(n_leo=3, n_bs=3, n_ant=3, case=Case.RECEIVER_ONLY)),
        (31, dict(n_slots=1)),
        (32, dict(n_leo=1, n_bs=1, n_ant=1, n_slots=1, case=Case.RECEIVER_ONLY)),
    ],
)
def test_nuisance_columns_are_every_non_observable_column(seed, overrides):
    """The columns the assembler names as nuisance are exactly those no
    section's delay or Doppler occupies, in ascending order."""
    _, glob = assemble_channel_fim(_scenario(seed, **overrides))
    is_nuisance = np.ones(glob.dim, dtype=bool)
    for sec in glob.sections:
        is_nuisance[_observable_cols(sec)] = False
    expected = [int(i) for i in np.flatnonzero(is_nuisance)]
    assert list(glob.nuisance_cols) == expected
    assert all(type(c) is int for c in glob.nuisance_cols)


def test_transform_fim_symmetrizes_and_checks_shapes():
    sc = _scenario(28, n_leo=1, n_bs=1, n_ant=1, n_slots=1)
    j_eta, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    j_kappa = transform_fim(j_eta, ups)
    assert j_kappa.shape == (len(ups.matrix),) * 2
    assert np.array_equal(j_kappa, j_kappa.T)
    with pytest.raises(ValueError):
        transform_fim(j_eta[:-1, :-1], ups)
