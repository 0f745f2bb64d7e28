"""Seeded contact sets for the closure workload.

Four kinds of set, generated round-robin so every run has the same mix:

- ``opposing_pair``: two contacts facing each other across a gap, each
  normal tilted by at most half its friction angle. Almost always
  force-closure with a clear margin.
- ``pair_plus_one``: an opposing pair plus one random contact.
- ``random_pair`` / ``random_triple``: contacts at random positions with
  random normals and friction. Mostly not force-closure.

The generator is the benchmark's own and takes only the workload seed; the
program under test receives the finished contact lists.
"""

from __future__ import annotations

import numpy as np

from graspforce.closure import Contact
from graspforce.geometry import rotation_about_axis

KINDS = ("opposing_pair", "pair_plus_one", "random_pair", "random_triple")


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_contact(rng):
    return Contact.from_normal(
        rng.uniform(-0.05, 0.05, size=3),
        _unit(rng),
        float(rng.uniform(0.1, 1.0)),
        float(rng.uniform(0.0, 0.01)),
    )


def _opposing_pair(rng):
    spacing = float(rng.uniform(0.015, 0.05))
    mu = float(rng.uniform(0.3, 0.9))
    mu_tau = float(rng.uniform(0.002, 0.01))
    contacts = []
    for sign in (1.0, -1.0):
        tilt = rotation_about_axis(_unit(rng), float(rng.uniform(0.0, 0.5 * np.arctan(mu))))
        normal = tilt @ np.array([0.0, -sign, 0.0])
        position = np.array([rng.uniform(-0.01, 0.01), sign * spacing, rng.uniform(-0.01, 0.01)])
        contacts.append(Contact.from_normal(position, normal, mu, mu_tau))
    return contacts


def generate(seed: int, per_kind: int) -> list[tuple[str, list[Contact]]]:
    """Return ``4 * per_kind`` (kind, contacts) pairs, kinds interleaved."""
    rng = np.random.default_rng([seed, 0x6C6F73])
    sets = []
    for _ in range(per_kind):
        for kind in KINDS:
            if kind == "opposing_pair":
                contacts = _opposing_pair(rng)
            elif kind == "pair_plus_one":
                contacts = _opposing_pair(rng)
                contacts.append(_random_contact(rng))
            elif kind == "random_pair":
                contacts = [_random_contact(rng) for _ in range(2)]
            else:
                contacts = [_random_contact(rng) for _ in range(3)]
            sets.append((kind, contacts))
    return sets
