"""Benchmark-side tracing: spans around the public calls a workload makes, and
counting timers around the callables it hands to the package.

Nothing here reaches into the package.  A span opens and closes in the
benchmark's own code around one public call; a wrapped callable (drift,
diffusion, policy rule, running cost) charges its call count and time to the
span that is open when the package calls it back.  A span's self time is its
duration minus the time charged to it, i.e. the package's own work between
callbacks.

Spans are kept in memory; callable invocations are aggregated per span
(count, seconds) rather than stored one by one, because the solvers call
back once per grid node.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One public call: name ``<module>.<function>``, duration, attributes
    (closed-form work sizes, iteration counts) and per-kind callback totals."""

    __slots__ = ("name", "seconds", "attrs", "children")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self.children = {}  # kind -> [calls, seconds]

    @property
    def child_seconds(self) -> float:
        return sum(seconds for _, seconds in self.children.values())

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "self_seconds": self.seconds - self.child_seconds,
            "attrs": self.attrs,
            "children": {kind: {"calls": c, "seconds": s} for kind, (c, s) in self.children.items()},
        }


class NullTracer:
    """Untraced runs: spans cost one context-manager entry, callables stay bare."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs

    def wrap(self, kind: str, fn):
        return fn


class Tracer:
    """Records one span per public call and aggregates wrapped callbacks into it."""

    def __init__(self):
        self.spans = []
        self._open = None

    @contextmanager
    def span(self, name: str, **attrs):
        span = Span(name, attrs)
        self._open = span
        started = time.perf_counter()
        try:
            yield span.attrs
        finally:
            span.seconds = time.perf_counter() - started
            self._open = None
            self.spans.append(span)

    def wrap(self, kind: str, fn):
        def counted(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals = self._open.children.setdefault(kind, [0, 0.0])
                totals[0] += 1
                totals[1] += time.perf_counter() - started

        return counted


# (name, unit) of every per-layer metric, in report order.  Values are per
# traced verdict; a layer the workload never enters reads 0.
LAYER_METRICS = [
    ("rng.streams_opened", "count"),
    ("noise.sample_sheet_s", "s"),
    ("noise.draws", "count"),
    ("solver.sample_increments_s", "s"),
    ("solver.mkv_solve_s", "s"),
    ("solver.mkv_ns_per_node_update", "ns"),
    ("solver.picard_solve_s", "s"),
    ("solver.picard_iterations", "count"),
    ("solver.picard_iterate_ms", "ms"),
    ("solver.goursat_s", "s"),
    ("solver.coeff_calls", "count"),
    ("solver.coeff_calls_per_node", "ratio"),
    ("solver.coeff_s", "s"),
    ("solver.self_s", "s"),
    ("fokker_planck.residual_table_s", "s"),
    ("fokker_planck.weak_residual_s", "s"),
    ("fokker_planck.coeff_s", "s"),
    ("fokker_planck.kernel_self_s", "s"),
    ("fokker_planck.coeff_calls", "count"),
    ("fokker_planck.kernel_cells", "count"),
    ("fokker_planck.kernel_ns_per_cell", "ns"),
    ("ito_check.ito_terms_s", "s"),
    ("ito_check.coeff_calls", "count"),
    ("control.performance_s", "s"),
    ("control.policy_s", "s"),
    ("control.cost_s", "s"),
    ("control.self_s", "s"),
    ("control.policy_calls", "count"),
    ("control.cost_calls", "count"),
    ("control.coeff_calls", "count"),
    ("control.policy_evals_per_node", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
]


COEFF = ("drift", "diffusion")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, verdicts: int) -> dict:
    """Reduce the spans of ``verdicts`` traced verdicts to per-verdict layer values
    (everything in LAYER_METRICS except the ``trace.*`` pair)."""

    def picked(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def seconds(prefix):
        return sum(s.seconds for s in picked(prefix))

    def attr(prefix, key):
        return sum(s.attrs.get(key, 0) for s in picked(prefix))

    def callbacks(layer, kinds, index):
        return sum(
            s.children.get(kind, (0, 0.0))[index] for s in picked(layer + ".") for kind in kinds
        )

    def self_seconds(layer):
        return sum(s.seconds - s.child_seconds for s in picked(layer + "."))

    mkv_s = seconds("solver.solve_conditional_mkv")
    picard_s = seconds("solver.picard_solve")
    picard_iterations = attr("solver.picard_solve", "iterations")
    solver_coeff_calls = callbacks("solver", COEFF, 0)
    kernel_self = self_seconds("fokker_planck")
    kernel_cells = attr("fokker_planck.", "cells")
    policy_calls = callbacks("control", ("policy",), 0)
    totals = {
        "rng.streams_opened": attr("", "streams"),
        "noise.sample_sheet_s": seconds("noise.sample_sheet"),
        "noise.draws": attr("noise.", "draws"),
        "solver.sample_increments_s": seconds("solver.sample_replicate_increments"),
        "solver.mkv_solve_s": mkv_s,
        "solver.picard_solve_s": picard_s,
        "solver.picard_iterations": picard_iterations,
        "solver.goursat_s": seconds("solver.solve_goursat"),
        "solver.coeff_calls": solver_coeff_calls,
        "solver.coeff_s": callbacks("solver", COEFF, 1),
        "solver.self_s": self_seconds("solver"),
        "fokker_planck.residual_table_s": seconds("fokker_planck.residual_table"),
        "fokker_planck.weak_residual_s": seconds("fokker_planck.weak_residual"),
        "fokker_planck.coeff_s": callbacks("fokker_planck", COEFF, 1),
        "fokker_planck.kernel_self_s": kernel_self,
        "fokker_planck.coeff_calls": callbacks("fokker_planck", COEFF, 0),
        "fokker_planck.kernel_cells": kernel_cells,
        "ito_check.ito_terms_s": seconds("ito_check.ito_terms"),
        "ito_check.coeff_calls": callbacks("ito_check", COEFF, 0),
        "control.performance_s": seconds("control.performance"),
        "control.policy_s": callbacks("control", ("policy",), 1),
        "control.cost_s": callbacks("control", ("cost",), 1),
        "control.self_s": self_seconds("control"),
        "control.policy_calls": policy_calls,
        "control.cost_calls": callbacks("control", ("cost",), 0),
        "control.coeff_calls": callbacks("control", COEFF, 0),
    }
    out = {name: value / verdicts for name, value in totals.items()}
    # ratios are taken over the totals, so they need no per-verdict scaling
    out["solver.mkv_ns_per_node_update"] = _ratio(
        mkv_s * 1e9, attr("solver.solve_conditional_mkv", "node_updates")
    )
    out["solver.picard_iterate_ms"] = _ratio(picard_s * 1e3, picard_iterations)
    out["solver.coeff_calls_per_node"] = _ratio(solver_coeff_calls, attr("solver.", "nodes"))
    out["fokker_planck.kernel_ns_per_cell"] = _ratio(kernel_self * 1e9, kernel_cells)
    out["control.policy_evals_per_node"] = _ratio(policy_calls, attr("control.", "nodes"))
    return out
