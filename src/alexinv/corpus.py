"""Access to the bundled scenario corpus."""

from __future__ import annotations

import functools
import os

from .invariant_pipeline import Scenario, load_scenario


@functools.cache
def _scenario_paths() -> dict[str, str]:
    """Each bundled scenario's name and file path, from one listing of the
    ``data/scenarios`` folder beside this module."""
    folder = os.path.join(os.path.dirname(__file__), "data", "scenarios")
    with os.scandir(folder) as entries:
        return {
            entry.name[: -len(".json")]: entry.path
            for entry in entries
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
