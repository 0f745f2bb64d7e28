"""Simulated fingertip load-cell pipeline.

The physical chain is: true normal force -> raw ADC-like signal with a
bias and additive Gaussian noise -> software calibration back to Newtons.
The raw signal is true_force / gamma + bias + noise, and calibration
inverts it as gamma * (raw - bias_estimate), with the bias estimate
obtained by averaging unloaded samples. A deliberate gain_scale factor
(for example 1.01) models imperfect knowledge of gamma: the calibrated
value then over- or under-reports the true force by that factor, which is
the miscalibration pathology the controller's deadband exists to absorb.
A channel's seeded noise stream belongs to the CalibratedSensor reading it.

An optional min_force floor zeroes true forces below a detectability
threshold before they reach the raw signal, modeling sensors that cannot
register very light touches. It defaults to 0 (everything registers).
The sensor only reports forces: deciding that a reading is a contact is
the controller's job, against its own f_theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import NON_NEGATIVE, NORMAL, POSITIVE, check_fields

DEFAULT_GAMMA_1 = 11.02
DEFAULT_GAMMA_2 = 11.03
# Raw-units noise sized so a 5-sigma excursion calibrates to about 0.1 N,
# half of the default 0.2 N contact threshold.
DEFAULT_CALIBRATED_NOISE_5SIGMA = 0.1
# Standard normals drawn ahead per refill of a sensor's noise buffer.
_NORMALS_AHEAD = 256
# Upper bounds on a channel's gain, so that gamma * gain_scale, the calibrated
# Newtons per raw unit, is at most 1e7 (a gain_scale of 1e308 overflowed it).
MAX_GAMMA = 1e6  # N per raw unit
MAX_GAIN_SCALE = 10.0
# estimate_bias holds about 49 bytes per sample at once, so this many take
# about 49 MB.
MAX_CALIBRATION_SAMPLES = 10**6


@dataclass(frozen=True)
class SensorModel:
    """One load-cell channel's parameters; seed seeds its noise stream.

    noise_sigma is in raw units, and 0 turns the noise off; when omitted
    it is sized from gamma so that 5 sigma of calibrated noise equals 0.1 N. gain_scale multiplies
    gamma inside calibrate() only, modeling a miscalibrated gain; the raw
    signal itself always uses the true gamma. gamma is at most MAX_GAMMA and
    gain_scale at most MAX_GAIN_SCALE.
    """

    gamma: float = DEFAULT_GAMMA_1
    bias: float = 0.5
    noise_sigma: float | None = None
    seed: int = 0
    min_force: float = 0.0
    gain_scale: float = 1.0

    def __post_init__(self):
        check_fields(self, {"gamma": NORMAL, "noise_sigma": NON_NEGATIVE, "seed": NON_NEGATIVE,
                            "min_force": NON_NEGATIVE, "gain_scale": POSITIVE},
                     {"gamma": (MAX_GAMMA, True), "gain_scale": (MAX_GAIN_SCALE, True)})
        if self.noise_sigma is None:
            object.__setattr__(self, "noise_sigma",
                               DEFAULT_CALIBRATED_NOISE_5SIGMA / (5.0 * self.gamma))


def estimate_bias(model: SensorModel, n_samples: int, rng: np.random.Generator) -> float:
    """Average unloaded raw samples, noise from rng; the standard error shrinks as 1/sqrt(n)."""
    if not 1 <= n_samples <= MAX_CALIBRATION_SAMPLES:
        raise ValueError(
            f"n_samples must be >= 1 and <= {MAX_CALIBRATION_SAMPLES}, got {n_samples}"
        )
    # n unloaded reads' raw values, summed left to right in the order they are drawn:
    # builtin sum compensates from Python 3.12, and np.sum adds pairwise.
    raw = np.full(n_samples, 0.0 / model.gamma + model.bias)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan stays, for the caller
        if model.noise_sigma > 0.0:
            raw += rng.normal(0.0, model.noise_sigma, n_samples)
        return float(np.add.accumulate(raw)[-1]) / n_samples


def calibrate(raw: float, model: SensorModel, bias_estimate: float) -> float:
    """Map a raw sample to Newtons using the (possibly miscalibrated) gain."""
    return model.gamma * model.gain_scale * (raw - bias_estimate)


class CalibratedSensor:
    """A sensor channel ready for use, holding its seeded noise stream.

    The bias calibration draws the stream's first values; each read then draws the next one.
    """

    def __init__(self, model: SensorModel, calibration_samples: int = 1000):
        # The model's fields a read uses, bound once, with calibrate()'s gain
        # gamma * gain_scale, which it returns exactly for a unit difference.
        self._read_with = (model.min_force, model.gamma, model.bias, model.noise_sigma,
                           calibrate(1.0, model, 0.0))
        self._rng = np.random.default_rng(model.seed)
        # Noise draws, 0.0 + sigma * z, from _rng's standard normals z not used yet, the next last.
        self._noise: list[float] = []
        self.bias_estimate = estimate_bias(model, calibration_samples, self._rng)

    def read(self, true_force: float) -> float:
        """Calibrate one raw sample of true_force, its noise `rng.normal(0.0, sigma)` bit for bit.

        numpy computes that draw as 0.0 + sigma * z from one standard normal z, and a chunk of
        `standard_normal(n)` holds the z values of n single draws, in the same order. The chunk
        is scaled as a whole: numpy's elementwise float arithmetic gives Python's bits.
        """
        min_force, gamma, bias, sigma, gain = self._read_with
        raw = (true_force if true_force >= min_force else 0.0) / gamma + bias
        if sigma > 0.0:
            noise = self._noise
            if not noise:
                with np.errstate(over="ignore"):  # an infinite draw faults the read, as a scalar's
                    chunk = 0.0 + sigma * self._rng.standard_normal(_NORMALS_AHEAD)
                noise.extend(chunk[::-1].tolist())
            raw += noise.pop()
        return gain * (raw - self.bias_estimate)
