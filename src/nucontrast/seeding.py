"""Named random streams: one user seed, independent generators per component."""

from __future__ import annotations

import numpy as np

_COMPONENTS = {
    "data": 0,
    "missing": 1,
    "init": 2,
    "shuffle": 3,
    "split": 4,
    "check": 5,
}


def check_seed(seed) -> None:
    """Require a nonnegative integer: an ``int`` or numpy integer, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")


def component_rng(seed: int, component: str) -> np.random.Generator:
    """Generator for a named component, decorrelated from the other components.

    Two components with the same user seed produce independent streams, so
    e.g. changing how many samples the data stream consumes never perturbs
    model initialization.
    """
    check_seed(seed)
    try:
        key = _COMPONENTS[component]
    except KeyError:
        raise ValueError(f"unknown rng component {component!r}") from None
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(key,)))
