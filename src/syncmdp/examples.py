"""Access to the bundled example models (the golden regression inputs).

drain: a chain whose mass leaks out of the target forever. funnel: the target
is a one-way station, reachable with high mass in the limit only. loopback:
the target feeds back to the start, so mass can cycle through it. twophase:
two phase-locked two-cycles fed by a coin flip.
"""

from __future__ import annotations

from importlib import resources

from .model import load_model

EXAMPLE_MODELS = ("drain", "funnel", "loopback", "twophase")


def example_model(name):
    """ParsedModel for one of the bundled models; target set is named "target"."""
    return load_model(example_path(name))


def example_path(name):
    """Filesystem path of a bundled model (for CLI round-trips in tests)."""
    if name not in EXAMPLE_MODELS:
        raise KeyError(f"unknown example {name!r}; choices: {EXAMPLE_MODELS}")
    return str(resources.files(__package__).joinpath(f"models/{name}.json"))
