"""Simulated fingertip load-cell pipeline.

The physical chain is: true normal force -> raw ADC-like signal with a
bias and additive Gaussian noise -> software calibration back to Newtons.
The raw signal is true_force / gamma + bias + noise, and calibration
inverts it as gamma * (raw - bias_estimate), with the bias estimate
obtained by averaging unloaded samples. A deliberate gain_scale factor
(for example 1.01) models imperfect knowledge of gamma: the calibrated
value then over- or under-reports the true force by that factor, which is
the miscalibration pathology the controller's deadband exists to absorb.

An optional min_force floor zeroes true forces below a detectability
threshold before they reach the raw signal, modeling sensors that cannot
register very light touches. It defaults to 0 (everything registers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_GAMMA_1 = 11.02
DEFAULT_GAMMA_2 = 11.03
# Raw-units noise sized so a 5-sigma excursion calibrates to about 0.1 N,
# half of the default 0.2 N contact threshold.
DEFAULT_CALIBRATED_NOISE_5SIGMA = 0.1


@dataclass
class SensorModel:
    """One load-cell channel with its own seeded noise stream.

    noise_sigma is in raw units; when omitted it is sized from gamma so
    that 5 sigma of calibrated noise equals 0.1 N. gain_scale multiplies
    gamma inside calibrate() only, modeling a miscalibrated gain; the raw
    signal itself always uses the true gamma.
    """

    gamma: float = DEFAULT_GAMMA_1
    bias: float = 0.5
    noise_sigma: float | None = None
    seed: int = 0
    min_force: float = 0.0
    gain_scale: float = 1.0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if not np.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")
        if self.noise_sigma is None:
            self.noise_sigma = DEFAULT_CALIBRATED_NOISE_5SIGMA / (5.0 * self.gamma)
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (np.isfinite(self.min_force) and self.min_force >= 0.0):
            raise ValueError(f"min_force must be finite and >= 0, got {self.min_force}")
        if not (np.isfinite(self.gain_scale) and self.gain_scale > 0.0):
            raise ValueError(f"gain_scale must be finite and > 0, got {self.gain_scale}")
        self._rng = np.random.default_rng(self.seed)


def sample_raw(true_force: float, model: SensorModel) -> float:
    """Draw one raw sample for the given true force, advancing the noise stream."""
    effective = true_force if true_force >= model.min_force else 0.0
    raw = effective / model.gamma + model.bias
    if model.noise_sigma > 0.0:
        raw += model._rng.normal(0.0, model.noise_sigma)
    return raw


def estimate_bias(model: SensorModel, n_samples: int = 1000) -> float:
    """Average unloaded raw samples; the standard error shrinks as 1/sqrt(n)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    # sample_raw(0.0, model) n times over, summed in the same order.
    raw = np.full(n_samples, 0.0 / model.gamma + model.bias)
    if model.noise_sigma > 0.0:
        raw += model._rng.normal(0.0, model.noise_sigma, n_samples)
    return sum(raw.tolist()) / n_samples


def calibrate(raw: float, model: SensorModel, bias_estimate: float) -> float:
    """Map a raw sample to Newtons using the (possibly miscalibrated) gain."""
    return model.gamma * model.gain_scale * (raw - bias_estimate)


def contact_detected(f_calibrated: float, f_theta: float) -> bool:
    """Strict threshold test for first touch; exactly f_theta is no contact."""
    if f_theta <= 0.0:
        raise ValueError(f"f_theta must be > 0, got {f_theta}")
    return f_calibrated > f_theta


class CalibratedSensor:
    """A sensor channel ready for use: bias estimated once, then read per tick."""

    def __init__(self, model: SensorModel, calibration_samples: int = 1000):
        self.model = model
        self.bias_estimate = estimate_bias(model, calibration_samples)

    def read(self, true_force: float) -> float:
        return calibrate(sample_raw(true_force, self.model), self.model, self.bias_estimate)
