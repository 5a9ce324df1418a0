"""Traced run: spans around the package's public functions, from outside.

Each listed function is wrapped at every module attribute bound to it (for
example both ``harvey.check_axiom_I`` and ``coincidence.check_axiom_I``), so
calls are caught whichever name the caller uses.  Spans (name, start, end,
parent, op id) stay in memory and are written out when the run ends.  Self
time is a span's duration minus its child spans; counters come from the
calls' own arguments and results.  A function missing from the package
records nothing.
"""

from __future__ import annotations

import functools
import json
import sys
import time

#: Traced functions by module, named as ``<module>.<function>``.
LAYERS = {
    "cli": ("main",),
    "societyfile": ("parse_society",),
    "society": ("matches", "check_pareto_criterion", "check_semi_separable"),
    "coincidence": ("theorem3_pipeline", "normalize_for_theorem3", "proposition1_check"),
    "harvey": (
        "harvey_recover",
        "check_axiom_I",
        "build_difference_map",
        "verify_chain_rule",
        "verify_component_additivity",
        "extract_slopes",
    ),
    "harsanyi": ("recover_weights", "check_axiom_i", "select_dependency_basis", "positive_reweighting"),
    "linalg": ("rref",),
    "core": ("linear_combination",),
}

#: Functions whose calls per op are reported next to their self time.
CALL_COUNTS = (
    "society.matches",
    "harvey.check_axiom_I",
    "harsanyi.select_dependency_basis",
    "linalg.rref",
    "core.linear_combination",
)


def _count_rref(counters, args, result) -> None:
    rows = args[0] if args else []
    counters["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_difference_map(counters, args, result) -> None:
    counters["harvey.diff_vectors"] += len(getattr(result, "table", ()))
    counters["harvey.grid_points"] += sum(len(g) for g in getattr(result, "diff_grids", ()))


def _count_chain_rule(counters, args, result) -> None:
    if getattr(result, "passed", False):
        counters["chain_rule.passes"] += 1
        counters["chain_rule.sampled"] += bool(getattr(result, "description", ""))


COUNTERS = {
    "linalg.rref": _count_rref,
    "harvey.build_difference_map": _count_difference_map,
    "harvey.verify_chain_rule": _count_chain_rule,
}

COUNTER_NAMES = (
    "linalg.rref.cells",
    "harvey.diff_vectors",
    "harvey.grid_points",
    "chain_rule.passes",
    "chain_rule.sampled",
)


class Tracer:
    """Installs span-recording wrappers; ``close`` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, op id]
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "utilcheck" or n.startswith("utilcheck.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules.get(f"utilcheck.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def close(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per function: duration minus the child spans'."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start - inner)
        return totals

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op self time of every traced function, plus calls and counters."""
        per_op = max(n_ops, 1)
        self_s = self.self_times()
        calls = self.call_counts()
        out = {}
        for module_name, functions in LAYERS.items():
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                out[f"{name}.self_s"] = self_s.get(name, 0.0) / per_op
                if name in CALL_COUNTS:
                    out[f"{name}.calls"] = calls.get(name, 0) / per_op
        c = self.counters
        out["linalg.rref.cells"] = c["linalg.rref.cells"] / per_op
        out["harvey.diff_vectors"] = c["harvey.diff_vectors"] / per_op
        out["harvey.grid_points"] = c["harvey.grid_points"] / per_op
        out["harvey.verify_chain_rule.sampled_share"] = (
            c["chain_rule.sampled"] / c["chain_rule.passes"] if c["chain_rule.passes"] else 0.0
        )
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(json.dumps([name, start, end, parent, op_id]) + "\n")
