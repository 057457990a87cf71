"""Named random streams (one user seed, a generator per component), the
count rule and the type rule of real-valued knobs."""

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


def is_integer(value) -> bool:
    """An ``int`` or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, minimum: int) -> None:
    """The rule for every count: an integer (``is_integer``) >= ``minimum``."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def check_real(name: str, value) -> None:
    """The type rule for every real-valued knob: an ``int``, ``float``, numpy
    integer or numpy float, not a bool. Each knob's range rule runs after it."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, not {type(value).__name__}, got {value!r}")


def check_seed(seed) -> None:
    check_count("seed", seed, 0)


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
