"""In-memory span tracer that wraps taxsim's public functions from outside.

A span is (name, start, end, parent). Spans are kept in flat arrays while the
run goes on and written out once, at the end. A span's self time is its
duration minus the durations of its direct children.

Only public names are wrapped, so the tracer keeps working when private
helpers change: the parsers and ``load_wordnet``, ``Taxonomy.__init__``,
``Taxonomy.lcs``, ``Taxonomy.shortest_path_edges``, ``kernels.bfs_distance``
(while it exists), ``ic.make_table``, the ``MEASURES`` entries,
``word_similarity``, ``run_benchmark``, ``pearson``, ``emit_report`` and
``cli.main``.
"""

import contextlib
import sys
import time
from array import array

import numpy as np

_perf = time.perf_counter


class _TracedMeasure:
    """Stands in for a MEASURES entry; each call is one span."""

    def __init__(self, tracer, measure):
        self._measure = measure
        self._call = tracer.wrap(f"similarity.{measure.name}", measure)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._measure, attr)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.keys = {"taxonomy.lcs": set(), "taxonomy.path": set()}
        self.counters = {"wordnet.records": 0}
        self.path_lengths = {}
        self._restore = []

    # -- recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0, t1):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around one of its phases."""
        idx = self._open(self._id(name))
        t0 = _perf()
        try:
            yield
        finally:
            self._close(idx, t0, _perf())

    def wrap(self, name, fn, on_call=None):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, _perf())
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return traced

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attr, replacement):
        original = getattr(owner, attr)
        self._restore.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement):
        """Rebind every taxsim module attribute that is `original`, so that
        names imported with ``from .x import y`` are traced too."""
        for modname, module in list(sys.modules.items()):
            if modname == "taxsim" or modname.startswith("taxsim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def install(self):
        from taxsim import cli, evaluation, ic, kernels, similarity, taxonomy, wordnet

        def count_records(args, kwargs, result):
            self.counters["wordnet.records"] += len(result)

        def pair_key(store):
            def record(args, kwargs, result):
                a, b = args[1], args[2]
                store.add((a, b) if a <= b else (b, a))
            return record

        record_path_key = pair_key(self.keys["taxonomy.path"])

        def record_path(args, kwargs, result):
            record_path_key(args, kwargs, result)
            self.path_lengths[result] = self.path_lengths.get(result, 0) + 1

        for module, attr, on_call in (
            (wordnet, "parse_data_noun", count_records),
            (wordnet, "parse_index_noun", None),
            (wordnet, "load_frequencies", None),
            (wordnet, "load_wordnet", None),
            (similarity, "word_similarity", None),
            (evaluation, "run_benchmark", None),
            (evaluation, "pearson", None),
            (evaluation, "emit_report", None),
            (cli, "main", None),
        ):
            original = getattr(module, attr)
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            self._patch_everywhere(original, self.wrap(name, original, on_call))

        bfs = getattr(kernels, "bfs_distance", None)
        if bfs is not None:
            self._patch_everywhere(bfs, self.wrap("kernels.bfs", bfs))

        make_table = ic.make_table
        wrapped = {}

        def traced_make_table(taxonomy, model, *args, **kwargs):
            if model not in wrapped:
                wrapped[model] = self.wrap(f"ic.{model}", make_table)
            return wrapped[model](taxonomy, model, *args, **kwargs)

        self._patch_everywhere(make_table, traced_make_table)

        cls = taxonomy.Taxonomy
        self._patch(cls, "__init__", self.wrap("taxonomy.build", cls.__init__))
        self._patch(cls, "lcs", self.wrap("taxonomy.lcs", cls.lcs,
                                          pair_key(self.keys["taxonomy.lcs"])))
        self._patch(cls, "shortest_path_edges",
                    self.wrap("taxonomy.path", cls.shortest_path_edges, record_path))

        measures = similarity.MEASURES
        originals = dict(measures)
        self._restore.append(lambda: measures.update(originals))
        for name, measure in originals.items():
            measures[name] = _TracedMeasure(self, measure)

    def uninstall(self):
        """Put back everything install() replaced, newest first."""
        while self._restore:
            self._restore.pop()()

    # -- results ---------------------------------------------------------

    def arrays(self):
        name_id = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name_id, parent, dur, dur - child

    def by_name(self):
        """name -> (durations, self times) as numpy arrays."""
        name_id, _, dur, self_time = self.arrays()
        return {name: (dur[name_id == i], self_time[name_id == i])
                for i, name in enumerate(self.names)}

    def write(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start, dtype=np.float64),
                 end=np.array(self.end, dtype=np.float64))
