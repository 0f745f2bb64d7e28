"""Load-cell simulation and calibration pipeline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from graspforce import sensor
from graspforce.controller import ControllerConfig
from graspforce.sensor import (
    DEFAULT_CALIBRATED_NOISE_5SIGMA,
    DEFAULT_GAMMA_1,
    CalibratedSensor,
    SensorModel,
    calibrate,
    estimate_bias,
)


def noiseless(gamma=11.02, bias=0.5, **kw):
    return SensorModel(gamma=gamma, bias=bias, noise_sigma=0.0, **kw)


def left_to_right_sum(values) -> float:
    """The plain running sum; builtin sum compensates from Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def scalar_raw(true_force, model, rng):
    """One raw sample with one scalar draw from rng, as the stream is defined."""
    effective = true_force if true_force >= model.min_force else 0.0
    raw = effective / model.gamma + model.bias
    raw += rng.normal(0.0, model.noise_sigma)
    return raw


class TestRawSignal:
    def test_unloaded_noiseless_reads_bias(self):
        calibrated = CalibratedSensor(noiseless(), calibration_samples=1)
        assert calibrated.bias_estimate == 0.5
        assert calibrated.read(0.0) == 0.0

    def test_loaded_noiseless_value(self):
        model = noiseless()
        reading = CalibratedSensor(model, calibration_samples=1).read(1.0)
        assert reading == calibrate(1.0 / 11.02 + 0.5, model, 0.5)
        assert reading == pytest.approx(1.0, rel=1e-12)

    def test_equal_seeds_give_equal_streams(self):
        a = CalibratedSensor(SensorModel(seed=42))
        b = CalibratedSensor(SensorModel(seed=42))
        assert a.bias_estimate == b.bias_estimate
        for _ in range(100):
            assert a.read(0.7) == b.read(0.7)

    def test_one_model_gives_each_sensor_its_own_stream(self):
        model = SensorModel(seed=4)
        a = CalibratedSensor(model, calibration_samples=10)
        first = [a.read(0.3) for _ in range(300)]
        b = CalibratedSensor(model, calibration_samples=10)
        assert b.bias_estimate == a.bias_estimate
        assert [b.read(0.3) for _ in range(300)] == first

    def test_different_seeds_differ(self):
        a = CalibratedSensor(SensorModel(seed=1), calibration_samples=1)
        b = CalibratedSensor(SensorModel(seed=2), calibration_samples=1)
        assert a.bias_estimate != b.bias_estimate
        assert a.read(0.0) != b.read(0.0)

    def test_default_sigma_scaled_from_gamma(self):
        model = SensorModel(gamma=DEFAULT_GAMMA_1)
        expected = DEFAULT_CALIBRATED_NOISE_5SIGMA / (5.0 * DEFAULT_GAMMA_1)
        assert model.noise_sigma == pytest.approx(expected, rel=1e-12)

    def test_model_is_frozen(self):
        model = SensorModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.noise_sigma = 0.05

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            SensorModel(gamma=0.0)

    @pytest.mark.parametrize("field,edge,past", [
        ("gamma", sensor.MAX_GAMMA, 1.000001e6), ("gain_scale", sensor.MAX_GAIN_SCALE, 10.000001),
    ])
    def test_gain_bounds_are_inclusive(self, field, edge, past):
        # gamma * gain_scale of at most 1e7 keeps a reading of a finite force finite.
        assert getattr(SensorModel(**{field: edge}), field) == edge
        with pytest.raises(ValueError, match=f"^{field} must be a finite number .* and <= "):
            SensorModel(**{field: past})

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
        rng = np.random.default_rng(0)
        assert estimate_bias(noiseless(bias=0.5), 100, rng) == 0.5
        assert estimate_bias(noiseless(bias=0.48), 100, rng) == pytest.approx(0.48, abs=1e-12)

    def test_single_sample_equals_the_sample(self):
        model = SensorModel(seed=9, noise_sigma=0.004)
        expected = scalar_raw(0.0, model, np.random.default_rng(9))
        assert estimate_bias(model, 1, np.random.default_rng(9)) == expected

    @pytest.mark.parametrize("noise_sigma", [None, 0.0], ids=["noise", "noiseless"])
    @pytest.mark.parametrize("min_force", [0.0, 0.3])
    def test_matches_a_scalar_sample_loop_bit_for_bit(self, noise_sigma, min_force):
        model = SensorModel(bias=0.4801, seed=23, noise_sigma=noise_sigma, min_force=min_force)
        fast, slow = np.random.default_rng(23), np.random.default_rng(23)
        expected = left_to_right_sum(scalar_raw(0.0, model, slow) for _ in range(1000)) / 1000
        assert estimate_bias(model, 1000, fast).hex() == expected.hex()
        if model.noise_sigma > 0.0:
            # The noise stream is left at the same position.
            assert fast.standard_normal() == slow.standard_normal()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 100, 129, 1000, 4099])
    def test_sums_left_to_right_for_any_seed(self, n):
        # Pairwise (np.sum) and compensated (math.fsum, builtin sum from 3.12)
        # sums differ from this in the last bits for most seeds.
        for seed in range(40):
            model = SensorModel(seed=seed, noise_sigma=0.004, bias=0.4801)
            raw = 0.4801 + np.random.default_rng(seed).normal(0.0, 0.004, n)
            estimate = estimate_bias(model, n, np.random.default_rng(seed))
            assert type(estimate) is float
            assert estimate.hex() == (left_to_right_sum(raw.tolist()) / n).hex()

    def test_standard_error_bound(self):
        # 5 standard errors covers the estimate for essentially every seed.
        sigma, n = 0.004, 1000
        for seed in range(10):
            model = SensorModel(seed=seed, noise_sigma=sigma, bias=0.5)
            err = abs(estimate_bias(model, n, np.random.default_rng(seed)) - 0.5)
            assert err < 5.0 * sigma / math.sqrt(n)

    def test_estimate_improves_with_samples(self):
        model = SensorModel(noise_sigma=0.004)

        def errors(n):
            return [abs(estimate_bias(model, n, np.random.default_rng(s)) - 0.5)
                    for s in range(20)]

        assert sum(errors(5000)) < sum(errors(50))

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            estimate_bias(SensorModel(), 0, np.random.default_rng(0))

    def test_sample_count_capped(self):
        rng = np.random.default_rng(0)
        assert estimate_bias(noiseless(), sensor.MAX_CALIBRATION_SAMPLES, rng) == 0.5
        for n in (sensor.MAX_CALIBRATION_SAMPLES + 1, 10**9):
            with pytest.raises(ValueError, match="n_samples"):
                estimate_bias(SensorModel(), n, rng)


class ChunkCounter:
    """A sensor's generator, counting the standard-normal chunks its reads draw."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.chunks = rng, 0

    def standard_normal(self, size):
        self.chunks += 1
        return self.rng.standard_normal(size)


def count_chunks(calibrated: CalibratedSensor) -> ChunkCounter:
    """Count the chunks calibrated's reads draw from here on; calibration has drawn already."""
    calibrated._rng = ChunkCounter(calibrated._rng)
    return calibrated._rng


def chunks_for(model: SensorModel, reads: int) -> int:
    """The chunks that many reads draw: none without noise, else one per started chunk."""
    return -(-reads // sensor._NORMALS_AHEAD) if model.noise_sigma > 0.0 else 0


class TestNoiseStream:
    """Noise drawn ahead in chunks reads as one scalar draw per sample."""

    @pytest.mark.parametrize("noise_sigma", [None, 0.0], ids=["noise", "noiseless"])
    def test_calibrated_reads_match_a_scalar_draw_loop(self, noise_sigma):
        model = SensorModel(gamma=11.03, bias=0.47, noise_sigma=noise_sigma, seed=31,
                            gain_scale=1.01)
        calibrated = CalibratedSensor(model, calibration_samples=10)
        rng = np.random.default_rng(31)
        sigma = model.noise_sigma
        bias_est = sum(0.0 / 11.03 + 0.47 + rng.normal(0.0, sigma) for _ in range(10)) / 10
        assert calibrated.bias_estimate.hex() == bias_est.hex()
        n_reads = 5 * sensor._NORMALS_AHEAD // 2
        forces = [0.01 * (i % 300) for i in range(n_reads)]
        counter = count_chunks(calibrated)
        got = [calibrated.read(f).hex() for f in forces]
        expected = [calibrate(scalar_raw(f, model, rng), model, bias_est).hex() for f in forces]
        assert got == expected
        assert counter.chunks == chunks_for(model, n_reads) == (3 if noise_sigma is None else 0)

    @pytest.mark.parametrize("noise_sigma", [0.002, 0.0], ids=["noise", "noiseless"])
    def test_bias_then_reads_keep_the_order(self, noise_sigma):
        model = SensorModel(seed=12, noise_sigma=noise_sigma)
        rng = np.random.default_rng(12)
        expected_bias = sum(scalar_raw(0.0, model, rng) for _ in range(7)) / 7
        calibrated = CalibratedSensor(model, calibration_samples=7)
        assert calibrated.bias_estimate.hex() == expected_bias.hex()
        n_reads = sensor._NORMALS_AHEAD + 20
        counter = count_chunks(calibrated)
        after = [calibrated.read(0.9).hex() for _ in range(n_reads)]
        assert after == [calibrate(scalar_raw(0.9, model, rng), model, expected_bias).hex()
                         for _ in range(n_reads)]
        assert counter.chunks == chunks_for(model, n_reads) == (2 if noise_sigma else 0)

    def test_an_overflowing_draw_reads_as_the_scalar_draw(self):
        # A sigma near the float maximum overflows some scaled draws to +-inf, with no numpy
        # warning (a RuntimeWarning fails the suite); the reads keep the scalar draws' bits.
        model = SensorModel(seed=4, noise_sigma=1e308)
        calibrated = CalibratedSensor(model, calibration_samples=1)
        rng = np.random.default_rng(4)
        bias_est = scalar_raw(0.0, model, rng)
        got = [calibrated.read(1.0).hex() for _ in range(sensor._NORMALS_AHEAD)]
        assert got == [calibrate(scalar_raw(1.0, model, rng), model, bias_est).hex()
                       for _ in range(sensor._NORMALS_AHEAD)]
        assert {"inf", "-inf"} <= set(got) and any(math.isfinite(float.fromhex(v)) for v in got)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        noise_sigma=st.one_of(st.none(), st.just(0.0), st.floats(1e-6, 0.1)),
        min_force=st.floats(0.0, 3.0),
        gain_scale=st.floats(0.5, 2.0),
        calibration_samples=st.integers(1, 600),
    )
    @example(seed=3, noise_sigma=None, min_force=0.0, gain_scale=1.0, calibration_samples=600)
    @example(seed=3, noise_sigma=0.0, min_force=0.0, gain_scale=1.0, calibration_samples=600)
    def test_sensor_matches_the_scalar_reference(self, seed, noise_sigma, min_force, gain_scale,
                                                 calibration_samples):
        # 600 reads cross the 256-normal refill at least twice, wherever
        # calibration left the generator.
        model = SensorModel(gamma=11.03, bias=0.49, noise_sigma=noise_sigma, seed=seed,
                            min_force=min_force, gain_scale=gain_scale)
        calibrated = CalibratedSensor(model, calibration_samples)
        rng = np.random.default_rng(seed)
        bias_est = sum(scalar_raw(0.0, model, rng)
                       for _ in range(calibration_samples)) / calibration_samples
        assert calibrated.bias_estimate.hex() == bias_est.hex()
        forces = [0.01 * (i % 400) for i in range(600)]
        counter = count_chunks(calibrated)
        got = [calibrated.read(f).hex() for f in forces]
        assert got == [calibrate(scalar_raw(f, model, rng), model, bias_est).hex()
                       for f in forces]
        assert counter.chunks == chunks_for(model, 600)


class TestCalibration:
    def test_raw_at_bias_estimate_maps_to_zero(self):
        model = noiseless()
        assert calibrate(0.5, model, 0.5) == 0.0

    def test_unit_gain_step(self):
        model = noiseless(gamma=11.02)
        assert calibrate(0.6, model, 0.5) == pytest.approx(1.102, rel=1e-9)

    def test_noiseless_round_trip(self):
        calibrated = CalibratedSensor(noiseless(), calibration_samples=10)
        for f in (0.05, 0.2, 1.0, 2.0, 7.3):
            assert calibrated.read(f) == pytest.approx(f, abs=1e-12)

    def test_gain_scale_misreports_by_that_factor(self):
        calibrated = CalibratedSensor(noiseless(gain_scale=1.01), calibration_samples=10)
        assert calibrated.read(2.0) == pytest.approx(2.02, rel=1e-9)

    def test_calibrated_sensor_round_trip(self):
        sensor = CalibratedSensor(noiseless(), calibration_samples=100)
        assert sensor.read(1.5) == pytest.approx(1.5, abs=1e-12)

    def test_noisy_calibrated_sensor_is_unbiased(self):
        sensor = CalibratedSensor(SensorModel(seed=3), calibration_samples=1000)
        readings = [sensor.read(2.0) for _ in range(2000)]
        assert sum(readings) / len(readings) == pytest.approx(2.0, abs=0.01)


class TestContactDetection:
    def test_false_positive_rate_at_default_noise(self):
        # The default noise keeps the controller's 0.2 N contact threshold
        # at ten sigma, so spurious contacts over 1e5 unloaded reads should
        # be essentially absent.
        f_theta = ControllerConfig().f_theta
        sensor = CalibratedSensor(SensorModel(seed=11), calibration_samples=1000)
        hits = sum(sensor.read(0.0) > f_theta for _ in range(100_000))
        assert hits < 10


class TestDetectionFloor:
    def test_force_below_floor_reads_zero(self):
        calibrated = CalibratedSensor(noiseless(min_force=0.35), calibration_samples=10)
        assert calibrated.read(0.3) == 0.0

    def test_force_above_floor_passes(self):
        calibrated = CalibratedSensor(noiseless(min_force=0.35), calibration_samples=10)
        assert calibrated.read(0.4) == pytest.approx(0.4, abs=1e-12)

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError):
            SensorModel(min_force=-0.1)
