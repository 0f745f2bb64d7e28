"""Load-cell simulation and calibration pipeline."""

import math

import numpy as np
import pytest

from graspforce import sensor
from graspforce.sensor import (
    DEFAULT_CALIBRATED_NOISE_5SIGMA,
    DEFAULT_GAMMA_1,
    CalibratedSensor,
    SensorModel,
    calibrate,
    contact_detected,
    estimate_bias,
    sample_raw,
)


def noiseless(gamma=11.02, bias=0.5, **kw):
    return SensorModel(gamma=gamma, bias=bias, noise_sigma=0.0, **kw)


class TestRawSignal:
    def test_unloaded_noiseless_reads_bias(self):
        assert sample_raw(0.0, noiseless()) == 0.5

    def test_loaded_noiseless_value(self):
        raw = sample_raw(1.0, noiseless())
        assert raw == pytest.approx(1.0 / 11.02 + 0.5, rel=1e-12)

    def test_equal_seeds_give_equal_streams(self):
        a = SensorModel(seed=42)
        b = SensorModel(seed=42)
        for _ in range(100):
            assert sample_raw(0.7, a) == sample_raw(0.7, b)

    def test_different_seeds_differ(self):
        a = SensorModel(seed=1)
        b = SensorModel(seed=2)
        assert sample_raw(0.0, a) != sample_raw(0.0, b)

    def test_default_sigma_scaled_from_gamma(self):
        model = SensorModel(gamma=DEFAULT_GAMMA_1)
        expected = DEFAULT_CALIBRATED_NOISE_5SIGMA / (5.0 * DEFAULT_GAMMA_1)
        assert model.noise_sigma == pytest.approx(expected, rel=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            SensorModel(gamma=0.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            SensorModel(noise_sigma=-0.001)

    @pytest.mark.parametrize("bias", [float("nan"), float("inf"), float("-inf")])
    def test_bias_must_be_finite(self, bias):
        with pytest.raises(ValueError, match="bias"):
            SensorModel(bias=bias)


class TestBiasEstimate:
    def test_noiseless_estimate_is_exact(self):
        # A dyadic bias survives the averaging bitwise; a non-dyadic one
        # only up to accumulated rounding in the sample sum.
        assert estimate_bias(noiseless(bias=0.5), 100) == 0.5
        assert estimate_bias(noiseless(bias=0.48), 100) == pytest.approx(0.48, abs=1e-12)

    def test_single_sample_equals_the_sample(self):
        a = SensorModel(seed=9, noise_sigma=0.004)
        b = SensorModel(seed=9, noise_sigma=0.004)
        assert estimate_bias(a, 1) == sample_raw(0.0, b)

    @pytest.mark.parametrize("noise_sigma", [None, 0.0], ids=["noise", "noiseless"])
    @pytest.mark.parametrize("min_force", [0.0, 0.3])
    def test_matches_a_scalar_sample_loop_bit_for_bit(self, noise_sigma, min_force):
        kw = dict(bias=0.4801, seed=23, noise_sigma=noise_sigma, min_force=min_force)
        fast, slow = SensorModel(**kw), SensorModel(**kw)
        expected = sum(sample_raw(0.0, slow) for _ in range(1000)) / 1000
        assert estimate_bias(fast, 1000).hex() == expected.hex()
        # The noise stream is left at the same position.
        assert sample_raw(0.0, fast).hex() == sample_raw(0.0, slow).hex()

    def test_standard_error_bound(self):
        # 5 standard errors covers the estimate for essentially every seed.
        sigma, n = 0.004, 1000
        for seed in range(10):
            model = SensorModel(seed=seed, noise_sigma=sigma, bias=0.5)
            err = abs(estimate_bias(model, n) - 0.5)
            assert err < 5.0 * sigma / math.sqrt(n)

    def test_estimate_improves_with_samples(self):
        sigma = 0.004
        coarse = [abs(estimate_bias(SensorModel(seed=s, noise_sigma=sigma), 50) - 0.5)
                  for s in range(20)]
        fine = [abs(estimate_bias(SensorModel(seed=s, noise_sigma=sigma), 5000) - 0.5)
                for s in range(20)]
        assert sum(fine) < sum(coarse)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            estimate_bias(SensorModel(), 0)

    def test_sample_count_capped(self):
        assert estimate_bias(noiseless(), sensor.MAX_CALIBRATION_SAMPLES) == 0.5
        for n in (sensor.MAX_CALIBRATION_SAMPLES + 1, 10**9):
            with pytest.raises(ValueError, match="n_samples"):
                estimate_bias(SensorModel(), n)


def scalar_raw(true_force, model, rng):
    """sample_raw with one scalar draw from rng per sample, as the stream is defined."""
    effective = true_force if true_force >= model.min_force else 0.0
    raw = effective / model.gamma + model.bias
    raw += rng.normal(0.0, model.noise_sigma)
    return raw


class TestNoiseStream:
    """Noise drawn ahead in chunks reads as one scalar draw per sample."""

    def test_calibrated_reads_match_a_scalar_draw_loop(self):
        model = SensorModel(gamma=11.03, bias=0.47, seed=31, gain_scale=1.01)
        calibrated = CalibratedSensor(model, calibration_samples=10)
        rng = np.random.default_rng(31)
        sigma = model.noise_sigma
        bias_est = sum(0.0 / 11.03 + 0.47 + rng.normal(0.0, sigma) for _ in range(10)) / 10
        assert calibrated.bias_estimate.hex() == bias_est.hex()
        n_reads = 5 * sensor._NORMALS_AHEAD // 2
        forces = [0.01 * (i % 300) for i in range(n_reads)]
        got = [calibrated.read(f).hex() for f in forces]
        expected = [calibrate(scalar_raw(f, model, rng), model, bias_est).hex() for f in forces]
        assert got == expected

    @pytest.mark.parametrize("reads_before", [1, sensor._NORMALS_AHEAD - 3,
                                              sensor._NORMALS_AHEAD])
    def test_order_holds_across_sample_raw_and_estimate_bias(self, reads_before):
        # 7 calibration samples from inside the drawn-ahead chunk, across
        # its end, and from an empty buffer.
        model = SensorModel(bias=0.52, seed=5, noise_sigma=0.003)
        rng = np.random.default_rng(5)
        before = [sample_raw(0.4, model).hex() for _ in range(reads_before)]
        assert before == [scalar_raw(0.4, model, rng).hex() for _ in range(reads_before)]
        expected_bias = sum(scalar_raw(0.0, model, rng) for _ in range(7)) / 7
        assert estimate_bias(model, 7).hex() == expected_bias.hex()
        after = [sample_raw(1.3, model).hex() for _ in range(300)]
        assert after == [scalar_raw(1.3, model, rng).hex() for _ in range(300)]

    def test_bias_then_reads_keep_the_order(self):
        model = SensorModel(seed=12, noise_sigma=0.002)
        rng = np.random.default_rng(12)
        expected_bias = sum(scalar_raw(0.0, model, rng) for _ in range(7)) / 7
        assert estimate_bias(model, 7).hex() == expected_bias.hex()
        after = [sample_raw(0.9, model).hex() for _ in range(20)]
        assert after == [scalar_raw(0.9, model, rng).hex() for _ in range(20)]

    def test_changed_sigma_applies_to_the_next_read(self):
        model = SensorModel(seed=8, noise_sigma=0.001)
        rng = np.random.default_rng(8)
        assert sample_raw(0.5, model).hex() == scalar_raw(0.5, model, rng).hex()
        model.noise_sigma = 0.05
        assert sample_raw(0.5, model).hex() == scalar_raw(0.5, model, rng).hex()
        model.noise_sigma = 0.0
        assert sample_raw(0.5, model) == 0.5 / model.gamma + model.bias


class TestCalibration:
    def test_raw_at_bias_estimate_maps_to_zero(self):
        model = noiseless()
        assert calibrate(0.5, model, 0.5) == 0.0

    def test_unit_gain_step(self):
        model = noiseless(gamma=11.02)
        assert calibrate(0.6, model, 0.5) == pytest.approx(1.102, rel=1e-9)

    def test_noiseless_round_trip(self):
        model = noiseless()
        bias_est = estimate_bias(model, 10)
        for f in (0.05, 0.2, 1.0, 2.0, 7.3):
            assert calibrate(sample_raw(f, model), model, bias_est) == pytest.approx(
                f, abs=1e-12
            )

    def test_gain_scale_misreports_by_that_factor(self):
        model = noiseless(gain_scale=1.01)
        bias_est = estimate_bias(model, 10)
        out = calibrate(sample_raw(2.0, model), model, bias_est)
        assert out == pytest.approx(2.02, rel=1e-9)

    def test_calibrated_sensor_round_trip(self):
        sensor = CalibratedSensor(noiseless(), calibration_samples=100)
        assert sensor.read(1.5) == pytest.approx(1.5, abs=1e-12)

    def test_noisy_calibrated_sensor_is_unbiased(self):
        sensor = CalibratedSensor(SensorModel(seed=3), calibration_samples=1000)
        readings = [sensor.read(2.0) for _ in range(2000)]
        assert sum(readings) / len(readings) == pytest.approx(2.0, abs=0.01)


class TestContactDetection:
    def test_above_threshold(self):
        assert contact_detected(0.25, 0.2)

    def test_exactly_at_threshold_is_no_contact(self):
        assert not contact_detected(0.2, 0.2)

    def test_negative_reading_is_no_contact(self):
        assert not contact_detected(-0.1, 0.2)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            contact_detected(0.5, 0.0)

    def test_false_positive_rate_at_default_noise(self):
        # The default noise keeps 0.2 N at ten sigma, so spurious contacts
        # over 1e5 unloaded reads should be essentially absent.
        sensor = CalibratedSensor(SensorModel(seed=11), calibration_samples=1000)
        hits = sum(contact_detected(sensor.read(0.0), 0.2) for _ in range(100_000))
        assert hits < 10


class TestDetectionFloor:
    def test_force_below_floor_reads_zero(self):
        model = noiseless(min_force=0.35)
        bias_est = estimate_bias(model, 10)
        assert calibrate(sample_raw(0.3, model), model, bias_est) == 0.0

    def test_force_above_floor_passes(self):
        model = noiseless(min_force=0.35)
        bias_est = estimate_bias(model, 10)
        assert calibrate(sample_raw(0.4, model), model, bias_est) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            SensorModel(min_force=-0.1)
