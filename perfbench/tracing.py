"""Spans around the public functions of each alexinv module, from outside.

Modules bind names with ``from .x import y``, so a function is replaced at
every binding site: each loaded ``alexinv`` module attribute that is the
original function gets the wrapper.  Calls are single-threaded (the run
removes ``ALEXINV_THREADS``), so spans nest and one stack gives each span its
parent.  Spans stay in memory as name, start, end and parent, and are
written out at the end of the run.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from math import comb
from time import perf_counter

# (module, function) pairs that get a span.  A layer is a module.
SPANS = (
    ("cli", "main"),
    ("corpus", "bundled_scenario_names"),
    ("corpus", "bundled_scenario_path"),
    ("invariant_pipeline", "load_scenario"),
    ("invariant_pipeline", "charvar_scan"),
    ("invariant_pipeline", "twisted_cohomology"),
    ("invariant_pipeline", "milnor_charpoly"),
    ("residue_systems", "admissible_search"),
    ("residue_systems", "shift_vectors"),
    ("aomoto_complex", "cohomology_dims"),
    ("aomoto_complex", "differential_matrix"),
    ("aomoto_complex", "validate_algebra"),
    ("exact_kernel", "rank"),
    ("exact_kernel", "mat_mul"),
    ("laurent_ring", "gcd"),
    ("laurent_ring", "evaluate_at_torsion"),
    ("laurent_ring", "parse_poly"),
    ("alexander_modules", "elementary_ideal"),
    ("alexander_modules", "char_poly"),
    ("alexander_modules", "support_scan"),
    ("alexander_modules", "fitting_variety_scan"),
)
# Called once per shift tried: counted, without a span, to keep the trace
# small and its overhead low.  Only calls made directly inside the span
# named second are counted.
COUNTED = (("residue_systems", "is_admissible", "residue_systems.admissible_search"),)

LAYERS = (
    "cli", "corpus", "invariant_pipeline", "residue_systems",
    "aomoto_complex", "exact_kernel", "laurent_ring", "alexander_modules",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._sites: list = []  # (module, attribute, original, wrapper)

    def install(self, package: str = "alexinv") -> None:
        """Put the wrappers in place; the first call finds the binding sites."""
        if not self._sites:
            self._find_sites(package)
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def _find_sites(self, package: str) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for mod, fn, *inside in SPANS + COUNTED:
            original = getattr(sys.modules[f"{package}.{mod}"], fn)
            name = f"{mod}.{fn}"
            if inside:
                wrapper = self._counter(name, original, self.names.index(inside[0]))
            else:
                wrapper = self._span(name, original, _HOOKS.get(name))
            sites = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._sites.append((module, attr, original, wrapper))
                        sites += 1
            self.counts[f"{name}.binding_sites"] = sites

    def _span(self, name, fn, hook):
        self.names.append(name)
        name_id = len(self.names) - 1
        stack, starts, ends = self._stack, self.starts, self.ends
        name_ids, parents = self.name_ids, self.parents

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn, parent_id):
        counts, stack, name_ids = self.counts, self._stack, self.name_ids
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            if stack[-1] >= 0 and name_ids[stack[-1]] == parent_id:
                counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: str) -> None:
        """Spans as tab-separated name, start, end and parent index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart_s\tend_s\tparent\n")
            for name_id, start, end, parent in zip(
                self.name_ids, self.starts, self.ends, self.parents
            ):
                out.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self) -> dict:
        """Calls and self time per function and per layer, and the
        parent-dependent counts."""
        n = len(self.starts)
        child = [0.0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        under: Counter = Counter()  # (name, parent name) pairs
        names, name_ids, parents = self.names, self.name_ids, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child[p] += durations[k]
                under[names[name_ids[k]], names[name_ids[p]]] += 1
        for k in range(n):
            name = names[name_ids[k]]
            calls[name] += 1
            self_s[name] += durations[k] - child[k]
        layers: Counter = Counter()
        for name, value in self_s.items():
            layers[name.split(".")[0]] += value
        return {"calls": calls, "self_s": self_s, "under": under,
                "layers": layers, "counts": self.counts}


def _elementary_ideal(counts, args, kwargs, result):
    pres, i = args
    n, m = pres.generators, pres.relations
    if i < n and n - i <= m:
        k = n - i
        counts["alexander_modules.minors_total"] += comb(n, k) * comb(m, k)
        counts["alexander_modules.minors_nonzero"] += len(result.gens)


def _admissible_search(counts, args, kwargs, result):
    counts["residue_systems.found" if result is not None else "residue_systems.inconclusive"] += 1


def _scan(counts, args, kwargs, result):
    pres, level = args[0], args[-1]
    counts["alexander_modules.scan_points"] += level ** pres.nvars


_HOOKS = {
    "alexander_modules.elementary_ideal": _elementary_ideal,
    "residue_systems.admissible_search": _admissible_search,
    "alexander_modules.support_scan": _scan,
    "alexander_modules.fitting_variety_scan": _scan,
}
