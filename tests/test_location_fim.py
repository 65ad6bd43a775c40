"""Interest FIM, information loss, and the two EFIM routes."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from leofim.channel_fim import (
    assemble_channel_fim,
    build_transformation_matrix,
    efim_schur_route,
    transform_fim,
)
from leofim.linalg import NumericalError, balanced_eigvalsh, invert_psd, sym
from leofim.location_fim import (
    LocationLayout,
    _closed_form,
    assemble_interest_fim,
    compute_efim,
    efim_lemma_route,
)
from leofim.scenario import Case, ScenarioConfig, random_scenario


def _scenario(seed, **overrides):
    base = dict(n_leo=1, n_bs=2, n_ant=2, n_slots=2)
    base.update(overrides)
    return random_scenario(ScenarioConfig(**base), seed)


def _loss(sc):
    """The information lost to the offset groups: the closed form's second term."""
    return _closed_form(LocationLayout(n_leo=sc.n_leo), sc)[1]


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
        loss = _loss(sc)
        assert np.array_equal(loss, loss.T)
        assert _min_eig_ratio(loss) >= -1e-9


def test_lemma_route_is_interest_minus_loss():
    sc = _scenario(37)
    interest = assemble_interest_fim(sc)
    loss = _loss(sc)
    efim = efim_lemma_route(sc)
    assert np.allclose(efim.matrix, interest.matrix - loss, rtol=0.0, atol=1e-30)


def test_efim_never_exceeds_interest_fim():
    """Marginalizing nuisance can only lose information (Loewner order)."""
    for seed in (38, 39, 40):
        sc = _scenario(seed, n_leo=2, n_bs=3, n_ant=2, n_slots=3)
        interest = assemble_interest_fim(sc)
        efim = compute_efim(sc)
        assert _loewner_min(interest.matrix, efim.matrix) >= -1e-9


def test_routes_agree_on_both_cases():
    """Every input in both cases, including one-slot and one-antenna
    geometries and silent station-receiver links, whose shared offset
    normalizer is then 0."""
    wide = dict(n_leo=2, n_bs=2, n_ant=2, n_slots=3)
    inputs = [
        (41, wide, False),
        (42, wide, False),
        (43, wide, False),
        (57, dict(n_slots=1), False),
        (58, dict(n_ant=1), False),
        (59, dict(n_leo=3, n_ant=1, n_slots=1), False),
        (60, wide, True),
    ]
    for (seed, overrides, silent_stations), case in itertools.product(inputs, Case):
        sc = _scenario(seed, **overrides, case=case)
        if silent_stations:
            silent = tuple(dataclasses.replace(p, snr_linear=0.0) for p in sc.bs_rx_signals)
            sc = dataclasses.replace(sc, bs_rx_signals=silent)
        a = efim_lemma_route(sc).matrix
        b = compute_efim(sc).matrix
        gap = np.linalg.norm(a - b, "fro") / np.linalg.norm(b, "fro")
        assert gap <= 1e-8, (seed, overrides, silent_stations, case)


def test_zero_snr_link_yields_finite_efim():
    """A dead link must not poison the EFIM with NaNs from 0/0 normalizers."""
    sc = _scenario(45, n_leo=2)
    z = dataclasses.replace(sc.leo_rx_signals[0], snr_linear=0.0)
    sc = dataclasses.replace(sc, leo_rx_signals=(z, sc.leo_rx_signals[1]))
    for route in (efim_lemma_route, compute_efim):
        efim = route(sc)
        assert np.all(np.isfinite(efim.matrix))


def test_information_beyond_double_range_raises_without_a_warning():
    """Rows this long (1e112 m lever arms) under weights this large (a 1e112
    Hz bandwidth) have Grams beyond double range: both EFIM routes raise
    ``NumericalError``, and nothing warns first.  A 1e130 Hz frequency offset
    overflows only the closed form's rank-one losses ``m m^T``, so the lemma
    route raises and the factor route, which forms no loss, stays finite."""
    sc = _scenario(42)
    arms = 1e112 * sc.receiver.antenna_offsets
    receiver = dataclasses.replace(sc.receiver, antenna_offsets=arms)
    signals = tuple(dataclasses.replace(s, eff_bandwidth=1e112) for s in sc.leo_rx_signals)
    long_rows = dataclasses.replace(sc, receiver=receiver, leo_rx_signals=signals)
    offsets = tuple(dataclasses.replace(s, freq_offset=1e130) for s in sc.leo_rx_signals)
    offset = dataclasses.replace(sc, leo_rx_signals=offsets)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scenario, route in [(long_rows, compute_efim), (long_rows, efim_lemma_route),
                                (offset, efim_lemma_route)]:
            with pytest.raises(NumericalError, match="non-finite entries"):
                route(scenario)
        assert np.all(np.isfinite(compute_efim(offset).matrix))


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
    n1 = ups.location_layout.dim_interest
    for j_kappa in (np.eye(3), np.eye(n1 + 2)[:, :-1], np.eye(n1)[None]):
        with pytest.raises(ValueError, match="is not square with at least"):
            efim_schur_route(j_kappa, ups.location_layout)


def test_receiver_only_case_has_no_satellite_station_information():
    sc = _scenario(49, n_leo=1, n_bs=2)
    with_bs = compute_efim(sc).matrix
    rx_only = compute_efim(dataclasses.replace(sc, case=Case.RECEIVER_ONLY)).matrix
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
    lemma = efim_lemma_route(sc).matrix
    schur = compute_efim(sc).matrix
    gap = np.linalg.norm(lemma - schur, "fro") / np.linalg.norm(schur, "fro")
    assert gap <= 1e-8


def _schur_scenario(seed, overrides, silent_downlink):
    """A sampled scenario, optionally with a zero-SNR first downlink."""
    sc = _scenario(seed, **overrides)
    if silent_downlink:
        z = dataclasses.replace(sc.leo_rx_signals[0], snr_linear=0.0)
        sc = dataclasses.replace(sc, leo_rx_signals=(z,) + sc.leo_rx_signals[1:])
    return sc


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
    sc = _schur_scenario(seed, overrides, silent_downlink)
    j_kappa, layout = _j_kappa(sc)
    n1 = layout.dim_interest
    j11, j12 = j_kappa[:n1, :n1], j_kappa[:n1, n1:]
    dense = j11 - j12 @ invert_psd(j_kappa[n1:, n1:], floor_rel=1e-12) @ j12.T
    efim = efim_schur_route(j_kappa, layout, sc.case)
    gap = np.linalg.norm(efim.matrix - dense, "fro")
    assert gap <= 1e-12 * np.linalg.norm(j11, "fro")


def test_schur_route_rejects_coupled_nuisance():
    j_kappa, layout = _j_kappa(_scenario(56))
    n1 = layout.dim_interest
    j_kappa[n1, n1 + 1] = 1.0
    with pytest.raises(ValueError, match="not diagonal"):
        efim_schur_route(j_kappa, layout)


def _per_column_schur(j_kappa, layout):
    """The elimination the closed form replaced: ``invert_psd`` on each
    coupled 1x1 nuisance block, accumulated in column order."""
    n1 = layout.dim_interest
    j11, j12, j22 = j_kappa[:n1, :n1], j_kappa[:n1, n1:], j_kappa[n1:, n1:]
    loss = np.zeros_like(j11)
    for i in np.flatnonzero(np.any(j12 != 0.0, axis=0)):
        b = j12[:, i : i + 1]
        c_inv = invert_psd(j22[i : i + 1, i : i + 1], floor_rel=1e-12)
        loss += b @ c_inv @ b.T
    return sym(j11 - loss)


@pytest.mark.parametrize(
    "seed, overrides, silent_downlink",
    [
        (53, dict(n_leo=2, n_bs=0), False),
        (54, dict(n_leo=2, case=Case.RECEIVER_ONLY), False),
        (55, dict(n_leo=2), True),
        (42, dict(n_leo=2, n_bs=3, n_ant=16, n_slots=10), False),
    ],
)
def test_closed_form_schur_step_matches_per_column_inverse_bit_for_bit(
    seed, overrides, silent_downlink
):
    j_kappa, layout = _j_kappa(_schur_scenario(seed, overrides, silent_downlink))
    efim = efim_schur_route(j_kappa, layout)
    assert np.array_equal(efim.matrix, _per_column_schur(j_kappa, layout))


@pytest.mark.parametrize("c", [0.0, -1.0])
def test_schur_route_rejects_uninformed_coupled_nuisance(c):
    """A coupled nuisance coordinate without positive information cannot come
    from a PSD ``J_kappa``; it is reported instead of pseudo-inverted."""
    layout = LocationLayout(n_leo=1)
    j_kappa = np.eye(layout.dim_interest + 1)
    j_kappa[0, -1] = j_kappa[-1, 0] = 1e-3
    j_kappa[-1, -1] = c
    with pytest.raises(NumericalError, match="no information"):
        efim_schur_route(j_kappa, layout)
