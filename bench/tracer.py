"""Spans around calls into invmatch's public functions, timed from outside.

The tracer wraps each listed function and rebinds every attribute in the
``invmatch.*`` module namespaces that refers to the same function object, so
call sites that imported the name (``from .core import green_relations`` in
``matching``) are traced too.  Per-element helpers (``maps_mutually_inverse``,
``compose``, ``cell_index``) are deliberately not wrapped: they run millions
of times per pass, and wrapping them would make the overhead the measurement.

Each span records its name, start, end, parent span, the CLI call it belongs
to and whether it raised.  Spans stay in memory; :meth:`Tracer.write` dumps
them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _graph_edges(g) -> int:
    return sum(g.degree(a) for a in range(g.n))


# Counters attached to a span: (stat name, function(args, kwargs, result)).
# They run only when the call returned.
_COUNTERS = {
    "core.green_relations": [
        ("elements", lambda a, k, r: _arg(a, k, 0, "s").order)],
    "transformations.family_inverse_graph": [
        ("maps", lambda a, k, r: len(_arg(a, k, 0, "maps")))],
    "matching.build_inverse_graph": [
        ("edges", lambda a, k, r: _graph_edges(r))],
    "graphs.hopcroft_karp": [
        ("edges", lambda a, k, r: sum(len(x) for x in _arg(a, k, 2, "adj")))],
    "bands.to_semigroup": [
        ("cells", lambda a, k, r: _arg(a, k, 0, "band").m
         * _arg(a, k, 0, "band").n)],
    "colours.solve": [
        ("nodes", lambda a, k, r: r.nodes),
        ("budget_exhausted", lambda a, k, r: r.status == "budget_exhausted")],
}

# Functions wrapped in spans, as "<module>.<function>".  Every cmd_* function
# of the CLI is wrapped as well, under the name "cli.<command>".
TRACED = (
    "core.validate",
    "core.parse_cayley",
    "core.green_relations",
    "core.principal_factors",
    "core.structure_report",
    "core.regularity_check",
    "transformations.enumerate_family",
    "transformations.family_maps",
    "transformations.family_inverse_graph",
    "matching.build_inverse_graph",
    "matching.matching_on_graph",
    "matching.equivalence_report",
    "matching.pattern_matching",
    "matching.lift_h_matching",
    "matching.involution_backtracking",
    "graphs.hopcroft_karp",
    "graphs.deficiency_certificate",
    "graphs.max_matching_general",
    "bands.to_semigroup",
    "colours.solve",
    "colours.instance_from_matching",
    "colours.involution_from_plan",
)


def _cli_targets() -> list[tuple[str, str]]:
    cli = importlib.import_module("invmatch.cli")
    return [
        (f"cli.{attr[4:].replace('_', '-')}", f"cli.{attr}")
        for attr in sorted(vars(cli))
        if attr.startswith("cmd_") and callable(getattr(cli, attr))
    ]


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "invmatch" or name.startswith("invmatch."))
    ]


class Tracer:
    """Installs span-recording wrappers and aggregates what they record.

    A span is a tuple ``(name, start, end, parent, call, raised)``; ``parent``
    indexes ``spans`` (-1 for a root) and ``call`` numbers the CLI call.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: list = []  # per span: ((stat, value), ...) or ()
        self.calls: list = []  # per call number: (pass index, item label)
        self._stack: list[int] = []
        self._call = -1
        self._rebound: list = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, counts, stack = self.spans, self.counts, self._stack
        counters = _COUNTERS.get(name, ())
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            counts.append(())
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer._call, raised)
            if counters:
                counts[idx] = tuple((s, f(args, kwargs, result)) for s, f in counters)
            return result

        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        targets = [(n, n) for n in TRACED] + _cli_targets()
        modules = _package_modules()
        for name, path in targets:
            mod_name, attr = path.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"invmatch.{mod_name}"), attr)
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebound.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._rebound):
            setattr(mod, key, fn)
        self._rebound.clear()

    def begin_call(self, pass_index: int, label: str) -> None:
        self._call = len(self.calls)
        self.calls.append((pass_index, label))

    # -- aggregation ---------------------------------------------------

    def per_pass(self) -> dict[int, dict[str, float]]:
        """{pass index: {"<name>.<stat>": value}} with self_s, calls, raised
        and each attached counter, summed over the pass."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, call, raised in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[int, dict[str, float]] = {}
        for i, (name, t0, t1, parent, call, raised) in enumerate(self.spans):
            agg = out.setdefault(self.calls[call][0], {})
            for stat, value in (
                ("self_s", t1 - t0 - child[i]),
                ("calls", 1),
                ("raised", int(raised)),
                *self.counts[i],
            ):
                key = f"{name}.{stat}"
                agg[key] = agg.get(key, 0) + value
        return out

    def layer_metrics(self, names) -> dict[str, float]:
        """Median over traced passes of each per-pass total; 0 where the
        function was never called."""
        passes = self.per_pass()
        return {
            key: statistics.median(p.get(key, 0) for p in passes.values())
            if passes else 0
            for key in names
        }

    def write(self, path) -> None:
        """Dump calls and spans as tab-separated lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# call\tpass\titem\n")
            for i, (pass_index, label) in enumerate(self.calls):
                fh.write(f"C\t{i}\t{pass_index}\t{label}\n")
            fh.write("# span\tcall\tparent\tname\tstart_s\tend_s\traised\n")
            for i, (name, t0, t1, parent, call, raised) in enumerate(self.spans):
                fh.write(
                    f"S\t{i}\t{call}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{int(raised)}\n"
                )
