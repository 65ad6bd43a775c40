"""Interest FIM, information loss, and the two EFIM routes."""

import dataclasses

import numpy as np
import pytest

from leofim.channel_fim import assemble_channel_fim
from leofim.linalg import balanced_eigvalsh, invert_psd
from leofim.location_fim import (
    EfimRoute,
    assemble_information_loss,
    assemble_interest_fim,
    compute_efim,
    efim_lemma_route,
    efim_schur_route,
)
from leofim.scenario import Case, ScenarioConfig, random_scenario
from leofim.transform import build_transformation_matrix, transform_fim


def _scenario(seed, **overrides):
    base = dict(n_leo=1, n_bs=2, n_ant=2, n_slots=2)
    base.update(overrides)
    return random_scenario(ScenarioConfig(**base), seed)


def _min_eig_ratio(matrix):
    w = balanced_eigvalsh(matrix)
    return w[0] / max(w[-1], 1e-300)


def _loewner_min(larger, smaller):
    """Smallest eigenvalue of ``larger - smaller`` in the scale of ``larger``.

    Balancing by the diagonal of ``larger`` (rather than of the difference)
    keeps cancellation noise in coordinates with a near-zero true difference
    from being amplified into spurious negative modes.
    """
    d = np.sqrt(np.maximum(np.diag(larger), 1e-300))
    s = (larger - smaller) / d[:, None] / d[None, :]
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])


def test_interest_fim_matches_transformed_channel_fim_block():
    """The closed-form interest FIM is the kappa1 block of Upsilon J Upsilon^T."""
    sc = _scenario(31)
    interest = assemble_interest_fim(sc)
    j_eta, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    j_kappa = transform_fim(j_eta, ups)
    n1 = interest.layout.dim_interest
    direct = j_kappa[:n1, :n1]
    assert np.allclose(interest.matrix, direct, rtol=1e-10, atol=0.0)


def test_interest_fim_is_symmetric_psd():
    for seed in (32, 33):
        sc = _scenario(seed, n_leo=2, n_bs=3, n_ant=4, n_slots=3)
        interest = assemble_interest_fim(sc)
        assert np.array_equal(interest.matrix, interest.matrix.T)
        assert _min_eig_ratio(interest.matrix) >= -1e-9


def test_cross_satellite_offset_blocks_are_zero():
    sc = _scenario(34, n_leo=3)
    interest = assemble_interest_fim(sc)
    lay = interest.layout
    for b in range(3):
        for b2 in range(3):
            if b == b2:
                continue
            assert np.count_nonzero(interest.matrix[lay.pos_offset(b), lay.pos_offset(b2)]) == 0
            assert np.count_nonzero(interest.matrix[lay.vel_offset(b), lay.vel_offset(b2)]) == 0
            assert np.count_nonzero(interest.matrix[lay.pos_offset(b), lay.vel_offset(b2)]) == 0


def test_information_loss_is_symmetric_psd():
    for seed in (35, 36):
        sc = _scenario(seed, n_leo=2, n_bs=2, n_ant=3, n_slots=3)
        loss = assemble_information_loss(sc)
        assert np.array_equal(loss.matrix, loss.matrix.T)
        assert _min_eig_ratio(loss.matrix) >= -1e-9


def test_lemma_route_is_interest_minus_loss():
    sc = _scenario(37)
    interest = assemble_interest_fim(sc)
    loss = assemble_information_loss(sc)
    efim = efim_lemma_route(sc)
    assert np.allclose(efim.matrix, interest.matrix - loss.matrix, rtol=0.0, atol=1e-30)
    assert efim.route is EfimRoute.LEMMA


def test_efim_never_exceeds_interest_fim():
    """Marginalizing nuisance can only lose information (Loewner order)."""
    for seed in (38, 39, 40):
        sc = _scenario(seed, n_leo=2, n_bs=3, n_ant=2, n_slots=3)
        interest = assemble_interest_fim(sc)
        efim = compute_efim(sc)
        assert _loewner_min(interest.matrix, efim.matrix) >= -1e-9


def test_routes_agree_on_both_cases():
    for seed, case in ((41, Case.WITH_BS), (42, Case.RECEIVER_ONLY), (43, Case.WITH_BS)):
        sc = _scenario(seed, n_leo=2, n_bs=2, n_ant=2, n_slots=3)
        a = compute_efim(sc, case, route=EfimRoute.LEMMA).matrix
        b = compute_efim(sc, case, route=EfimRoute.SCHUR).matrix
        denom = np.linalg.norm(b, "fro")
        assert np.linalg.norm(a - b, "fro") / denom <= 1e-8


def test_gain_values_do_not_move_the_efim():
    """Gains only enter their own nuisance coordinate, so the EFIM is exactly
    invariant to their values."""
    sc = _scenario(44)
    base = compute_efim(sc).matrix
    scaled = dataclasses.replace(
        sc,
        leo_rx_gains=tuple(g * 7.5 for g in sc.leo_rx_gains),
        bs_rx_gains=tuple(g * 0.03 for g in sc.bs_rx_gains),
        leo_bs_gains=tuple(g * 2.0 for g in sc.leo_bs_gains),
    )
    assert np.array_equal(compute_efim(scaled).matrix, base)


def test_zero_snr_link_yields_finite_efim():
    """A dead link must not poison the EFIM with NaNs from 0/0 normalizers."""
    sc = _scenario(45, n_leo=2)
    z = dataclasses.replace(sc.leo_rx_signals[0], snr_linear=0.0)
    sc = dataclasses.replace(sc, leo_rx_signals=(z, sc.leo_rx_signals[1]))
    for route in (EfimRoute.LEMMA, EfimRoute.SCHUR):
        efim = compute_efim(sc, route=route)
        assert np.all(np.isfinite(efim.matrix))


def test_more_antennas_add_information():
    """Antenna offsets are nested prefixes, so growing the array is a Loewner
    increase of the EFIM."""
    cfg_small = ScenarioConfig(n_leo=1, n_bs=2, n_ant=2, n_slots=3)
    cfg_large = dataclasses.replace(cfg_small, n_ant=4)
    small = compute_efim(random_scenario(cfg_small, 46)).matrix
    large = compute_efim(random_scenario(cfg_large, 46)).matrix
    assert _loewner_min(large, small) >= -1e-9


def test_more_slots_add_information():
    cfg_small = ScenarioConfig(n_leo=1, n_bs=2, n_ant=2, n_slots=2)
    cfg_large = dataclasses.replace(cfg_small, n_slots=3)
    small = compute_efim(random_scenario(cfg_small, 47)).matrix
    large = compute_efim(random_scenario(cfg_large, 47)).matrix
    assert _loewner_min(large, small) >= -1e-9


def test_snr_scales_information_linearly():
    sc = _scenario(48)
    base = compute_efim(sc).matrix
    scale = 4.0
    boost = lambda props: dataclasses.replace(props, snr_linear=props.snr_linear * scale)
    louder = dataclasses.replace(
        sc,
        leo_rx_signals=tuple(boost(p) for p in sc.leo_rx_signals),
        bs_rx_signals=tuple(boost(p) for p in sc.bs_rx_signals),
        leo_bs_signals=tuple(boost(p) for p in sc.leo_bs_signals),
    )
    assert np.allclose(compute_efim(louder).matrix, scale * base, rtol=1e-12, atol=0.0)


def test_schur_route_rejects_mismatched_layout():
    import pytest

    sc = _scenario(50)
    _, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    with pytest.raises(ValueError):
        efim_schur_route(np.eye(3), ups.location_layout)


def test_receiver_only_case_has_no_satellite_station_information():
    sc = _scenario(49, n_leo=1, n_bs=2)
    with_bs = compute_efim(sc, case=Case.WITH_BS).matrix
    rx_only = compute_efim(sc, case=Case.RECEIVER_ONLY).matrix
    assert with_bs.shape == rx_only.shape
    assert _loewner_min(with_bs, rx_only) >= -1e-9
    assert np.linalg.norm(with_bs - rx_only, "fro") > 0.0


@pytest.mark.parametrize("case", list(Case))
def test_routes_agree_without_stations(case):
    """With no base station there is no shared station offset pair and every
    satellite-station link has zero rows; both routes still agree."""
    sc = _scenario(41, n_leo=2, n_bs=0, n_ant=3, n_slots=3, case=case)
    _, glob = assemble_channel_fim(sc)
    assert glob.shared_bs_offsets is None
    lemma = compute_efim(sc, route=EfimRoute.LEMMA).matrix
    schur = compute_efim(sc, route=EfimRoute.SCHUR).matrix
    gap = np.linalg.norm(lemma - schur, "fro") / np.linalg.norm(schur, "fro")
    assert gap <= 1e-8


def _j_kappa(sc):
    j_eta, glob = assemble_channel_fim(sc)
    ups = build_transformation_matrix(sc, glob=glob)
    return transform_fim(j_eta, ups), ups.location_layout


@pytest.mark.parametrize(
    "seed, overrides, silent_downlink",
    [
        (51, {}, False),
        (52, dict(n_leo=3, n_bs=3, n_ant=4, n_slots=4), False),
        (53, dict(n_leo=2, n_bs=0, case=Case.WITH_BS), False),
        (53, dict(n_leo=2, n_bs=0, case=Case.RECEIVER_ONLY), False),
        (54, dict(n_leo=2, case=Case.RECEIVER_ONLY), False),
        (55, dict(n_leo=2), True),
    ],
)
def test_schur_route_matches_dense_complement(seed, overrides, silent_downlink):
    """Eliminating the diagonal nuisance block one coordinate at a time equals
    the dense complement ``J11 - J12 J22^+ J12^T``.  The gap is measured in
    the scale of ``J11``: a near-singular EFIM is itself mostly cancellation."""
    sc = _scenario(seed, **overrides)
    if silent_downlink:
        z = dataclasses.replace(sc.leo_rx_signals[0], snr_linear=0.0)
        sc = dataclasses.replace(sc, leo_rx_signals=(z,) + sc.leo_rx_signals[1:])
    j_kappa, layout = _j_kappa(sc)
    n1 = layout.dim_interest
    j11, j12 = j_kappa[:n1, :n1], j_kappa[:n1, n1:]
    dense = j11 - j12 @ invert_psd(j_kappa[n1:, n1:])[0] @ j12.T
    efim = efim_schur_route(j_kappa, layout, sc.case)
    gap = np.linalg.norm(efim.matrix - dense, "fro")
    assert gap <= 1e-12 * np.linalg.norm(j11, "fro")


def test_schur_route_rejects_coupled_nuisance():
    j_kappa, layout = _j_kappa(_scenario(56))
    n1 = layout.dim_interest
    j_kappa[n1, n1 + 1] = 1.0
    with pytest.raises(ValueError, match="not diagonal"):
        efim_schur_route(j_kappa, layout)
