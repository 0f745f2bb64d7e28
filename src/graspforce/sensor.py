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

from .checks import NON_NEGATIVE, POSITIVE, check_fields

DEFAULT_GAMMA_1 = 11.02
DEFAULT_GAMMA_2 = 11.03
# Raw-units noise sized so a 5-sigma excursion calibrates to about 0.1 N,
# half of the default 0.2 N contact threshold.
DEFAULT_CALIBRATED_NOISE_5SIGMA = 0.1
# Standard normals drawn ahead per refill of a model's noise buffer.
_NORMALS_AHEAD = 256
# estimate_bias holds about 49 bytes per sample at once, so this many take
# about 49 MB.
MAX_CALIBRATION_SAMPLES = 10**6


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
    # Standard normals drawn from _rng but not used yet, the next one last.
    _normals: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        lower = {"gamma": POSITIVE, "noise_sigma": NON_NEGATIVE, "seed": NON_NEGATIVE,
                 "min_force": NON_NEGATIVE, "gain_scale": POSITIVE}
        check_fields(self, lower)
        if self.noise_sigma is None:
            self.noise_sigma = DEFAULT_CALIBRATED_NOISE_5SIGMA / (5.0 * self.gamma)
            check_fields(self, lower)  # a subnormal gamma overflows the default to inf
        self._rng = np.random.default_rng(self.seed)
        self._normals = []


def sample_raw(true_force: float, model: SensorModel) -> float:
    """Draw one raw sample for the given true force, advancing the noise stream.

    The noise is `rng.normal(0.0, sigma)` bit for bit: numpy computes that
    as 0.0 + sigma * z from one standard normal z, and a chunk of
    `standard_normal(n)` holds the z values that n single draws give, in
    the same order. Scaling at read time lets a changed sigma apply to the
    next read.
    """
    effective = true_force if true_force >= model.min_force else 0.0
    raw = effective / model.gamma + model.bias
    sigma = model.noise_sigma
    if sigma > 0.0:
        normals = model._normals
        if not normals:
            normals.extend(model._rng.standard_normal(_NORMALS_AHEAD)[::-1].tolist())
        raw += 0.0 + sigma * normals.pop()
    return raw


def estimate_bias(model: SensorModel, n_samples: int = 1000) -> float:
    """Average unloaded raw samples; the standard error shrinks as 1/sqrt(n)."""
    if not 1 <= n_samples <= MAX_CALIBRATION_SAMPLES:
        raise ValueError(
            f"n_samples must be >= 1 and <= {MAX_CALIBRATION_SAMPLES}, got {n_samples}"
        )
    # sample_raw(0.0, model) n times over, summed in the same order.
    raw = np.full(n_samples, 0.0 / model.gamma + model.bias)
    sigma = model.noise_sigma
    if sigma > 0.0:
        # The stream goes on through any normals sample_raw drew ahead,
        # then through the generator.
        normals = model._normals
        ahead = normals[:-n_samples - 1:-1]
        del normals[len(normals) - len(ahead):]
        raw[:len(ahead)] += 0.0 + sigma * np.array(ahead)
        raw[len(ahead):] += model._rng.normal(0.0, sigma, n_samples - len(ahead))
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
