"""Outside-in tracer for the pathramsey layers.

The tracer replaces named functions of the program with timing wrappers,
from the benchmark's own files, so the program itself is not changed.
A function is replaced at every module binding that refers to it (the
CLI imports `read_edge_list` and `build_plane` by name), and a method is
replaced on its class.  Spans are kept in memory as
(pass, name, start, end, parent) and written out when the run ends.
Hot leaf functions are counted instead of spanned: a span per call would
cost more than the call.

A target that a later refactor removes is reported as absent; the
metrics that depend on it then read 0.
"""

import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span or count name, module, attribute path, kind).  Kinds: "span"
# records a span per call, "count" only counts calls.
TARGETS = [
    ("graphs.read_edge_list", "pathramsey.graphs", "read_edge_list", "span"),
    ("graphs.write_edge_list", "pathramsey.graphs", "write_edge_list", "span"),
    ("graphs.HostGraph", "pathramsey.graphs", "HostGraph.__init__", "span"),
    ("graphs.components", "pathramsey.graphs", "HostGraph.components", "span"),
    ("affine_plane.build_plane", "pathramsey.affine_plane", "build_plane", "span"),
    ("affine_plane.line_through", "pathramsey.affine_plane",
     "AffinePlane.line_through", "count"),
    ("adversary.find_certificate", "pathramsey.adversary", "find_certificate", "span"),
    ("adversary.split_v0", "pathramsey.adversary", "split_v0", "span"),
    ("adversary.color_edges", "pathramsey.adversary", "color_edges", "span"),
    ("adversary.check_confinement", "pathramsey.adversary", "check_confinement", "span"),
    ("adversary.count_lines", "pathramsey.adversary", "count_lines", "span"),
    ("adversary.line_counts", "pathramsey.adversary", "_line_counts_from_arrays", "span"),
    ("cli.color", "pathramsey.cli", "cmd_color", "span"),
    ("cli.optimize", "pathramsey.cli", "cmd_optimize", "span"),
    ("cli.sample", "pathramsey.cli", "cmd_sample", "span"),
    ("cli.expand", "pathramsey.cli", "cmd_expand", "span"),
    ("cli.arrow_oracle", "pathramsey.cli", "cmd_arrow_oracle", "span"),
    ("first_moment.optimize_constants", "pathramsey.first_moment",
     "optimize_constants", "span"),
    ("first_moment.binding_degree", "pathramsey.first_moment", "binding_degree", "count"),
    ("pairing.sample_pairing", "pathramsey.pairing", "sample_pairing", "span"),
    ("pairing.is_simple", "pathramsey.pairing", "is_simple", "span"),
    ("pairing.project_support", "pathramsey.pairing", "project_support", "span"),
    ("arrowing.check_expansion", "pathramsey.arrowing", "check_expansion", "span"),
    ("arrowing.count_zero_pairs", "pathramsey.arrowing", "count_zero_pairs", "span"),
    ("arrowing.arrow_bruteforce", "pathramsey.arrowing", "arrow_bruteforce", "span"),
]


def _on_result(name, args, result, counts):
    """Quantities read from arguments and return values at the boundary.
    A field a later refactor drops reads as 0 instead of failing the run."""
    if name == "graphs.HostGraph":
        counts["graphs.HostGraph.edges"] += getattr(args[0], "n_edges", 0)
    elif name == "adversary.find_certificate":
        counts["adversary.trials_used"] += getattr(result, "trials_used", 0)
    elif name == "first_moment.optimize_constants":
        counts["first_moment.golden_iters"] += sum(
            1 for step in getattr(result, "trace", ()) if step[0] == "golden")
    elif name == "pairing.is_simple":
        counts["pairing.simple_draws"] += bool(result)
    elif name == "arrowing.check_expansion":
        counts["arrowing.pairs_checked"] += getattr(result, "pairs_checked", 0)


class Tracer:
    """Install with `install()`, remove with `uninstall()`.  Spans and
    counts are grouped by the pass number set with `begin_pass`."""

    def __init__(self):
        self.spans = []           # [pass, name, start, end, parent index]
        self.counts = {}          # pass -> Counter
        self.absent = set()
        self._pass = None
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    def begin_pass(self, number):
        self._pass = number
        self.counts[number] = Counter()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self._pass, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self.counts[self._pass][name + ".calls"] += 1

    def _close(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def _wrap(self, name, original, kind):
        tracer = self

        if kind == "count":
            def wrapper(*args, **kwargs):
                tracer.counts[tracer._pass][name + ".calls"] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close()
                _on_result(name, args, result, tracer.counts[tracer._pass])
                return result
        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "pathramsey" or key.startswith("pathramsey.")]
        for name, module_name, path, kind in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, kind)
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def pass_totals(self, number):
        """(self seconds by name, total seconds by name, counts) of one pass."""
        selfs, totals = Counter(), Counter()
        for p, name, start, end, parent in self.spans:
            if p != number:
                continue
            duration = end - start
            selfs[name] += duration
            totals[name] += duration
            if parent is not None:
                selfs[self.spans[parent][1]] -= duration
        return selfs, totals, self.counts.get(number, Counter())

    def write(self, stream):
        """One line per span: pass, name, start, end, parent index or '-'."""
        for p, name, start, end, parent in self.spans:
            stream.write(f"{p} {name} {start:.9f} {end:.9f} "
                         f"{'-' if parent is None else parent}\n")

