"""Access to the bundled scenario corpus."""

from __future__ import annotations

import functools
from importlib import resources

from .invariant_pipeline import Scenario, load_scenario


@functools.cache
def _scenario_paths() -> dict[str, str]:
    """Each bundled scenario's name and file path, from one listing."""
    return {
        entry.name[: -len(".json")]: str(entry)
        for entry in resources.files("alexinv").joinpath("data", "scenarios").iterdir()
        if entry.name.endswith(".json")
    }


def bundled_scenario_names() -> list[str]:
    return sorted(_scenario_paths())


def bundled_scenario_path(name: str) -> str:
    try:
        return _scenario_paths()[name]
    except KeyError:
        raise KeyError(f"no bundled scenario named {name!r}") from None


def load_bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
