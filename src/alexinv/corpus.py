"""Access to the bundled scenario corpus."""

from __future__ import annotations

import functools
from importlib import resources

from .invariant_pipeline import Scenario, load_scenario

@functools.cache
def _scenario_dir():
    return resources.files("alexinv").joinpath("data", "scenarios")


def bundled_scenario_names() -> list[str]:
    names = []
    for entry in _scenario_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def bundled_scenario_path(name: str) -> str:
    candidate = _scenario_dir() / f"{name}.json"
    if not candidate.is_file():
        raise KeyError(f"no bundled scenario named {name!r}")
    return str(candidate)


def load_bundled_scenario(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
