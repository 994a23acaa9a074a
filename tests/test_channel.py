import math

import numpy as np
import pytest
import scipy.special

from aoiplan.channel import (
    ChannelProfile,
    build_profile,
    capacity_lower_bound,
    digamma,
    fading_severity,
    load_profile,
    los_probability,
    pathloss_db,
    replica_generators,
    sample_fading,
    save_profile,
    _correlated_shadowing,
)
from aoiplan.errors import ScenarioValidationError
from aoiplan.oracle import mc_expected_capacity

from conftest import desk_scenario

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------- path loss

def test_pathloss_los_reference_point():
    # 22.0 + 28*log10(100) + 20*log10(3)
    expected = 22.0 + 56.0 + 20.0 * math.log10(3.0)
    assert pathloss_db(100.0, 3.0, True) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(87.542, abs=5e-4)


def test_pathloss_nlos_reference_point():
    expected = 22.7 + 36.7 * 2.0 + 26.0 * math.log10(3.0)
    assert pathloss_db(100.0, 3.0, False) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(108.5052, abs=5e-4)


def test_pathloss_unit_distance_unit_freq():
    assert pathloss_db(1.0, 1.0, True) == pytest.approx(22.0)


def test_pathloss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        pathloss_db(0.0, 3.0, True)
    with pytest.raises(ValueError):
        pathloss_db(-5.0, 3.0, False)


# ---------------------------------------------------------------- LOS probability

def test_los_probability_limits_and_anchor():
    assert los_probability(1e6) == pytest.approx(1.0, abs=1e-12)
    assert los_probability(6.0) == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert los_probability(90.0) > los_probability(10.0)


def test_los_probability_monotone_dense():
    grid = np.linspace(-50.0, 120.0, 500)
    vals = los_probability(grid)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))


# ---------------------------------------------------------------- digamma / severity

def test_digamma_against_scipy():
    grid = np.concatenate([
        np.geomspace(1e-3, 1.0, 60),
        np.linspace(1.0, 50.0, 60),
        np.geomspace(50.0, 1e6, 60),
    ])
    ours = digamma(grid)
    ref = scipy.special.digamma(grid)
    assert np.all(np.abs(ours - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))


def test_severity_reference_values():
    assert fading_severity(1.0) == pytest.approx(math.exp(-EULER_GAMMA), rel=1e-10)
    assert fading_severity(1.0) == pytest.approx(0.5615, abs=5e-4)
    # psi(1/2) = -gamma - 2 ln 2
    expected_half = math.exp(-EULER_GAMMA - 2.0 * math.log(2.0)) / 0.5
    assert fading_severity(0.5) == pytest.approx(expected_half, rel=1e-10)
    assert expected_half == pytest.approx(0.2807, abs=5e-4)


def test_severity_tends_to_one():
    assert fading_severity(1e6) == pytest.approx(1.0, abs=1e-5)


def test_severity_strictly_increasing():
    # below kappa ~ 1.4e-3 the severity underflows float64 to exactly 0,
    # so the strict grid starts above that
    grid = np.geomspace(2e-3, 1e5, 400)
    vals = fading_severity(grid)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))


def test_severity_rejects_nonpositive():
    with pytest.raises(ValueError):
        fading_severity(0.0)
    with pytest.raises(ValueError):
        fading_severity(-2.0)


# ---------------------------------------------------------------- capacity bound

def test_capacity_bound_zero_power():
    assert capacity_lower_bound(0.0, 1e-8, 4.0, 1e-9) == 0.0


def test_capacity_bound_unit_point():
    # beta * snr == 1 gives exactly one bit
    kappa = 4.0
    beta = fading_severity(kappa)
    gain, noise = 1e-8, 1e-9
    power = noise / (beta * gain)
    assert capacity_lower_bound(power, gain, kappa, noise) == pytest.approx(1.0, rel=1e-12)


def test_capacity_bound_below_monte_carlo_at_reference():
    # kappa=4, 20 dB mean SNR: the surrogate sits below the sampled mean
    # and within a tenth of a bit of it
    kappa, snr = 4.0, 100.0
    mean, stderr = mc_expected_capacity(kappa, snr, samples=400_000, seed=17)
    bound = math.log2(1.0 + fading_severity(kappa) * snr)
    assert bound <= mean + 3.0 * stderr
    assert mean - bound < 0.1


def test_jensen_grid_and_tightness():
    # capacity surrogate never exceeds the Monte Carlo mean (3 sigma), and
    # the gap closes in the strong-LOS high-SNR corner
    for kappa in (1.0, 2.0, 4.0, 8.0, 30.0):
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            snr = 10.0 ** (snr_db / 10.0)
            mean, stderr = mc_expected_capacity(kappa, snr, samples=200_000,
                                                seed=int(kappa * 100 + snr_db))
            bound = math.log2(1.0 + fading_severity(kappa) * snr)
            assert bound <= mean + 3.0 * stderr, (kappa, snr_db)
    mean, stderr = mc_expected_capacity(30.0, 1000.0, samples=400_000, seed=5)
    bound = math.log2(1.0 + fading_severity(30.0) * 1000.0)
    assert mean - bound < 0.05


# ---------------------------------------------------------------- profile build

def test_build_profile_deterministic(small_scenario):
    a = build_profile(small_scenario, 4)
    b = build_profile(small_scenario, 4)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.shape, b.shape)
    assert np.array_equal(a.iota, b.iota)
    c = build_profile(small_scenario, 5)
    assert not np.array_equal(a.gain, c.gain)


def test_profile_iota_consistency(small_profile):
    expected = small_profile.noise_power / (
        fading_severity(small_profile.shape) * small_profile.gain
    )
    assert np.all(
        np.abs(small_profile.iota - expected) <= 1e-12 * np.abs(expected)
    )
    assert np.all(small_profile.iota > 0) and np.all(np.isfinite(small_profile.iota))


def test_profile_zero_shadowing_is_pure_pathloss():
    s = desk_scenario(9, shadowing_sigma_db=0.0)
    prof = build_profile(s, 9)
    traj = s.trajectory_array()
    bs = s.bs_array()
    # every gain entry must be exactly one of the two pathloss branches
    for n in range(s.num_bs_N):
        for t in range(s.horizon_T):
            d = float(np.linalg.norm(traj[t] - bs[n]))
            candidates = {
                10.0 ** (-pathloss_db(d, s.carrier_freq_ghz, True) / 10.0),
                10.0 ** (-pathloss_db(d, s.carrier_freq_ghz, False) / 10.0),
            }
            g = prof.gain[n, 0, t]
            assert any(abs(g - c) <= 1e-15 * c for c in candidates)


def test_profile_shadowing_shared_across_rbs(small_profile):
    assert np.all(small_profile.gain == small_profile.gain[:, :1, :])


def test_profile_kappa_constant_over_time_by_default(small_profile):
    assert np.all(small_profile.shape == small_profile.shape[:, :, :1])


def test_profile_kappa_per_slot_mode():
    import dataclasses

    s = dataclasses.replace(desk_scenario(4), kappa_per_slot=True)
    prof = build_profile(s, 4)
    assert not np.all(prof.shape == prof.shape[:, :, :1])


def test_shadowing_correlation_at_corr_distance():
    # points 5 m apart on the path should correlate at exp(-1)
    rng = np.random.default_rng(123)
    sigma = math.sqrt(8.0)
    step = np.full(1, 5.0)  # two points, one 5 m step
    draws = np.array([
        _correlated_shadowing(rng, sigma, step, 5.0, 1, 2)[0] for _ in range(10_000)
    ])
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert corr == pytest.approx(math.exp(-1.0), abs=0.03)
    assert draws[:, 0].std() == pytest.approx(sigma, rel=0.05)


# ---------------------------------------------------------------- fading samples

def test_fading_unit_mean_and_variance():
    # draws are entrywise independent, so pool one long constant-shape axis
    kappa = 4.0
    prof = ChannelProfile.from_arrays(
        np.full((1, 1, 100_000), 1.0), np.full((1, 1, 100_000), kappa), 1.0
    )
    xi = sample_fading(prof, 3).reshape(-1)
    assert xi.mean() == pytest.approx(1.0, abs=0.02)
    assert xi.var() == pytest.approx(1.0 / kappa, abs=0.02)
    assert np.all(xi > 0)


def test_fading_deterministic(small_profile):
    a = sample_fading(small_profile, 8)
    b = sample_fading(small_profile, 8)
    assert np.array_equal(a, b)
    assert np.array_equal(sample_fading(small_profile, [8, 2]),
                          sample_fading(small_profile, [8, 2]))
    assert not np.array_equal(a, sample_fading(small_profile, [8, 2]))


def test_fading_draws_from_a_generator_as_it_stands(small_profile):
    assert np.array_equal(sample_fading(small_profile, np.random.default_rng([8, 2])),
                          sample_fading(small_profile, [8, 2]))
    assert np.array_equal(small_profile.inv_shape, 1.0 / small_profile.shape)
    assert not small_profile.inv_shape.flags.writeable
    assert "inv_shape" not in repr(small_profile)


def test_replica_generators_give_default_rng_streams():
    # seeds of one to three entropy words, replica indices of one or two;
    # the first range is longer than a simulation batch (256 replicas), the
    # second crosses 2**32, where the index gains a word and the hash splits
    for seed in (0, 1, 2**32 - 1, 2**32, 2**70 + 5):
        for start, stop in ((0, 260), (2**32 - 3, 2**32 + 3)):
            gens = replica_generators(seed, start, stop)
            assert len(gens) == stop - start
            for r, gen in zip(range(start, stop), gens):
                ref = np.random.default_rng([seed, r])
                assert gen.bit_generator.state == ref.bit_generator.state, (seed, r)
                assert np.array_equal(gen.standard_gamma(2.0, 3), ref.standard_gamma(2.0, 3))
    assert replica_generators(1, 5, 5) == []
    with pytest.raises(ValueError):
        replica_generators(-1, 0, 2)


def test_fading_low_shape_draws_may_be_zero():
    # Gamma draws at shapes near the floor underflow to exactly 0: a valid
    # deep fade, not an error
    prof = ChannelProfile.from_arrays(
        np.full((1, 1, 1000), 1.0), np.full((1, 1, 1000), 1.5e-3), 1.0
    )
    xi = sample_fading(prof, 5)
    assert np.all(np.isfinite(xi)) and np.all(xi >= 0.0)
    assert np.any(xi == 0.0)


def test_build_profile_rejects_shapes_too_low_for_finite_floors():
    # kappa_range passes validation (>= KAPPA_FLOOR), but exp(psi(1e-3)) underflows
    s = desk_scenario(3, kappa_range=(1e-3, 1e-3))
    with pytest.raises(ScenarioValidationError) as err:
        build_profile(s, 3)
    assert "kappa_range" in str(err.value)


# ---------------------------------------------------------------- persistence

def test_profile_roundtrip_bit_exact(tmp_path, small_profile):
    path = tmp_path / "profile.npz"
    save_profile(small_profile, path)
    back = load_profile(path)
    assert np.array_equal(back.gain, small_profile.gain)
    assert np.array_equal(back.shape, small_profile.shape)
    assert np.array_equal(back.iota, small_profile.iota)
    assert back.noise_power == small_profile.noise_power
    assert back.seed == small_profile.seed
    with np.load(path) as data:
        assert sorted(data.files) == ["dims", "gain", "iota", "noise_power", "seed", "shape"]


def test_profile_rejects_bad_tensors():
    with pytest.raises(ValueError):
        ChannelProfile.from_arrays(np.zeros((2, 2, 2)), np.ones((2, 2, 2)), 1.0)
    with pytest.raises(ValueError):
        ChannelProfile.from_arrays(np.ones((2, 2)), np.ones((2, 2)), 1.0)
