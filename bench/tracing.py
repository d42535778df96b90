"""In-memory spans around mixbench's layers, recorded from the benchmark's side.

The tracer replaces public functions at the names under which ``cli`` and
``engine`` import them, so no file of the program changes.  Each call
becomes one span: name, start, end, parent span and the point it worked
on.  A layer's self time is its spans' time minus their child spans.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

# Self time of each span name, reported under the layer metric on the right.
# The benchmark's own work (checks, loop, counting) is bench.self_s.
SELF_TIME_METRICS = {
    "bench.round": "bench.self_s",
    "bench.count": "bench.self_s",
    "cli.main": "cli.self_s",
    "states.init": "states.init_s",
    "states.merge": "states.merge_s",
    "states.norm": "states.norm_s",
    "engine.scatter": "engine.scatter_self_s",
    "oracle.init": "oracle.init_s",
    "oracle.apply": "oracle.apply_s",
    "formulas.closed": "formulas.closed_s",
    "cli.render": "cli.render_s",
}


def _init_point(args: tuple) -> str:
    *numbers, statistics = args
    return f"{statistics.value} {' '.join(str(x) for x in numbers)}"


def _count_init(counts: dict, args: tuple, result) -> None:
    counts["states.init_terms"] += len(result.terms)


def _count_scatter(counts: dict, args: tuple, result) -> None:
    # Every term tries both processes on every (phi slot, psi slot) pair.
    attempted = 0
    for term in args[0].terms:
        modes = [slot.mode.label for slot in term]
        attempted += 2 * modes.count("phi") * modes.count("psi")
    counts["engine.attempted"] += attempted
    counts["engine.paths"] += len(result.paths)
    counts["engine.final_terms"] += len(result.final_state.terms)


def _count_oracle(counts: dict, args: tuple, result) -> None:
    counts["oracle.terms_out"] += len(result.terms)


# (module, attribute in it, span name, counter of the result, point of the call);
# the modules are cli and engine, whose names the program calls through.
LAYERS = (
    ("cli", "fock_initial_state", "states.init", _count_init, _init_point),
    ("cli", "coherent_initial_state", "states.init", _count_init, _init_point),
    ("engine", "make_state", "states.merge", None, None),
    ("cli", "state_norm", "states.norm", None, None),
    ("cli", "apply_first_order", "engine.scatter", _count_scatter, None),
    ("cli", "fock_occupation_state", "oracle.init", None, _init_point),
    ("cli", "coherent_occupation_state", "oracle.init", None, _init_point),
    ("cli", "apply_fwm_operator", "oracle.apply", _count_oracle, None),
    ("cli", "fock_boson_amplitude", "formulas.closed", None, None),
    ("cli", "fock_fermion_amplitude", "formulas.closed", None, None),
    ("cli", "coherent_amplitude", "formulas.closed", None, None),
    ("cli", "fock_counts", "formulas.closed", None, None),
    ("cli", "coherent_counts", "formulas.closed", None, None),
    ("cli", "render_records", "cli.render", None, None),
    ("cli", "render_path_table", "cli.render", None, None),
    ("cli", "path_to_dict", "cli.render", None, None),
    ("cli", "record_to_json_dict", "cli.render", None, None),
    ("cli", "format_form", "cli.render", None, None),
    ("cli", "format_complex", "cli.render", None, None),
)


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None, point].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, args: tuple, kwargs: dict, point: str | None = None, count=None):
        parent = self.stack[-1] if self.stack else None
        if point is None and parent is not None:
            point = self.spans[parent][4]
        span = [name, 0.0, 0.0, parent, point]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if count is not None:
            self.call("bench.count", count, (self.counts, args, result), {})
        return result

    def wrap(self, fn, name: str, count=None, point=None):
        def traced(*args, **kwargs):
            where = point(args) if point is not None else None
            return self.call(name, fn, args, kwargs, where, count)

        return traced

    def install(self, cli, engine, amplitude_form) -> None:
        """Route the layers' public functions, and form construction, through the tracer.

        A name the program no longer imports is skipped; its layer then reads 0.
        """
        modules = {"cli": cli, "engine": engine}
        for module_name, attr, name, count, point in LAYERS:
            module = modules[module_name]
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), name, count, point))
        if hasattr(cli, "json"):
            cli.json = types.SimpleNamespace(
                dumps=self.wrap(json.dumps, "cli.render"),
                dump=self.wrap(json.dump, "cli.render"),
            )
        counts = self.counts
        init = amplitude_form.__init__

        def counted_init(form, *args, **kwargs) -> None:
            counts["amplitudes.forms_built"] += 1
            init(form, *args, **kwargs)

        amplitude_form.__init__ = counted_init

    def self_times(self) -> dict[str, float]:
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, children):
            totals[name] += end - start - inner
        return totals

    def inclusive(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics: self times in s, counts, rates and ratios."""
        metrics = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for name, seconds in self.self_times().items():
            metrics[SELF_TIME_METRICS[name]] += seconds / rounds
        counts = self.counts
        for name in ("states.init_terms", "engine.paths", "engine.final_terms", "amplitudes.forms_built", "oracle.terms_out"):
            metrics[name] = counts[name] / rounds
        scatter = self.inclusive("engine.scatter")
        metrics["engine.paths_per_s"] = counts["engine.paths"] / scatter if scatter else 0.0
        attempted = counts["engine.attempted"]
        metrics["engine.path_yield"] = counts["engine.paths"] / attempted if attempted else 0.0
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, point) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end, "parent": parent, "point": point}
                handle.write(json.dumps(record) + "\n")
