"""Per-layer tracing of abr from outside: timing wrappers installed around
the public functions and methods of each module, spans kept in memory,
self time and counts derived at the end.

A span is (name, parent, start, end).  Spans are stored in parallel arrays
in entry order, so a parent always precedes its children.  Scalar helpers
that run once per matrix entry (``as_fraction``, ``parse_rational``,
``Matrix`` methods, ``Sign.of``) get no span: a wrapper would cost more than
the call, so their time stays in their caller's self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict


def _entry_bits(x):
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _observe_det(tracer, args, result):
    bits = max(_entry_bits(x) for row in args[0].entries for x in row)
    tracer.maxima["linalg.det.max_entry_bits"] = max(
        tracer.maxima["linalg.det.max_entry_bits"], bits)


def _observe_divided_difference(tracer, args, result):
    bits = max([_entry_bits(result)] + [_entry_bits(x) for pt in args[0] for x in pt])
    tracer.maxima["coloring.divided_difference.max_bits"] = max(
        tracer.maxima["coloring.divided_difference.max_bits"], bits)


def _observe_validate(tracer, args, result):
    tracer.counts["sequences.validate.tuples"] += result.checked


def _observe_search(tracer, args, result):
    tracer.counts["tables.search.nodes"] += result.nodes_visited


# (span name, module, attribute, observer).  Several functions may share a
# span name; their spans then add up to one layer metric.
TARGETS = (
    ("linalg.det", "abr.linalg", "det", _observe_det),
    ("linalg.complementary_minors", "abr.linalg", "complementary_minors", None),
    ("linalg.signed_minor_kernel", "abr.linalg", "signed_minor_kernel", None),
    ("linalg.plucker_residual", "abr.linalg", "plucker_residual", None),
    ("sequences.validate", "abr.sequences", "validate_cyclic_projections", _observe_validate),
    ("sequences.validate", "abr.sequences", "validate_general_position", _observe_validate),
    ("sequences.validate", "abr.sequences", "validate_d_general_position", _observe_validate),
    ("sequences.parse", "abr.sequences", "parse_sequence", None),
    ("sequences.serialize", "abr.sequences", "serialize_sequence", None),
    ("sequences.moment_lift", "abr.sequences", "moment_lift", None),
    ("coloring.oracle", "abr.coloring", "color_by_determinant", None),
    ("coloring.oracle", "abr.coloring", "color_by_heights", None),
    ("coloring.oracle", "abr.coloring", "color_by_crossing", None),
    ("coloring.radon", "abr.coloring", "radon_certificate", None),
    ("coloring.color_table", "abr.coloring", "color_table", None),
    ("coloring.divided_difference", "abr.coloring", "divided_difference",
     _observe_divided_difference),
    ("coloring.divdiff_color_table", "abr.coloring", "divdiff_color_table", None),
    ("coloring.one_switch", "abr.coloring", "one_switch_certificate", None),
    ("coloring.identity", "abr.coloring", "vandermonde_divdiff_residual", None),
    ("coloring.lazy_lookup", "abr.coloring", "LazyDivdiffColors.color", None),
    ("tables.lookup", "abr.tables", "ColoringTable.color", None),
    ("tables.counts", "abr.tables", "ColoringTable.counts", None),
    ("tables.csv_read", "abr.tables", "ColoringTable.from_csv", None),
    ("tables.csv_write", "abr.tables", "ColoringTable.to_csv", None),
    ("tables.json_read", "abr.tables", "ColoringTable.from_json_obj", None),
    ("tables.json_write", "abr.tables", "ColoringTable.to_json_obj", None),
    ("tables.build", "abr.tables", "ColoringTable.from_function", None),
    ("tables.build", "abr.tables", "ColoringTable.from_colors", None),
    ("tables.check", "abr.tables", "is_monotone", None),
    ("tables.check", "abr.tables", "is_transitive", None),
    ("tables.check", "abr.tables", "monotone_implies_transitive_check", None),
    ("tables.search", "abr.tables", "longest_monochromatic", _observe_search),
    ("tables.ramsey", "abr.tables", "ramsey_search_tiny", None),
    ("constructions.random", "abr.constructions", "random_cyclic_instance", None),
    ("constructions.em", "abr.constructions", "cluster_parabola_sequence", None),
    ("constructions.em_build", "abr.constructions", "build_cluster_parabola", None),
    ("constructions.em_verify", "abr.constructions", "verify_cluster_parabola", None),
    ("constructions.cupcap", "abr.constructions", "cupcap_extremal", None),
    ("cli.main", "abr.cli", "main", None),
)

# Each per-layer metric, with the end-to-end metric and workload it should
# move.  A metric whose layer a workload never enters reads 0 there.
MOVES = {
    "linalg.det.calls": "setup_s and wall_s (color) on lifted-d3; 0 on both table workloads",
    "linalg.det.self_s": "setup_s and wall_s (color) on lifted-d3",
    "linalg.det.max_entry_bits": "setup_s and wall_s (color) on lifted-d3",
    "linalg.det.useful_ratio": "wall_s (color) on lifted-d3",
    "linalg.complementary_minors.calls": "wall_s (one-switch) on lifted-d3",
    "linalg.complementary_minors.self_s": "wall_s (one-switch) on lifted-d3",
    "sequences.validate.calls": "setup_s and wall_s (color) on lifted-d3",
    "sequences.validate.tuples": "setup_s and wall_s (color) on lifted-d3",
    "sequences.validate.self_s": "setup_s and wall_s (color) on lifted-d3",
    "sequences.parse.self_s": "setup_s and search_s on em-prefix",
    "sequences.serialize.self_s": "setup_s and search_s on em-prefix",
    "coloring.color_table.self_s": "wall_s (color) on lifted-d3",
    "coloring.oracle.calls": "wall_s (color) on lifted-d3",
    "coloring.oracle.self_s": "wall_s (color) on lifted-d3",
    "coloring.divided_difference.calls": "search_s and check_s on em-prefix; 0 on tables",
    "coloring.divided_difference.self_s": "search_s and check_s on em-prefix",
    "coloring.divided_difference.max_bits": "search_s and check_s on em-prefix",
    "coloring.divdiff_color_table.self_s": "search_s and check_s on em-prefix",
    "coloring.one_switch.calls": "wall_s (one-switch) on lifted-d3",
    "coloring.one_switch.self_s": "wall_s (one-switch) on lifted-d3",
    "tables.lookup.calls": "check_s and search_s on table-transitive and lifted-d3",
    "tables.lookup.self_s": "check_s and search_s on table-transitive and lifted-d3",
    "tables.csv_read.self_s": "every command on table-transitive and table-perturbed",
    "tables.csv_write.self_s": "wall_s (color) on lifted-d3",
    "tables.build.self_s": "wall_s (color) on lifted-d3",
    "tables.check.self_s": "check_s on every workload",
    "tables.search.self_s": "search_s on table-transitive; unchanged on table-perturbed "
                            "by a transitive-only change",
    "tables.search.nodes": "search_s on table-transitive",
    "tables.search.lookups_per_node": "search_s on table-transitive",
    "constructions.random.self_s": "setup_s on lifted-d3",
    "constructions.random.redraws": "setup_s on lifted-d3",
    "constructions.em.self_s": "setup_s on em-prefix",
    "constructions.em.bases_tried": "setup_s on em-prefix",
    "cli.main.self_s": "wall_s on every workload, most on table-perturbed",
    "cli.startup_s": "wall_s on every workload, most on table-perturbed",
    "trace.overhead_s": "none: cost of the wrappers, traced minus untraced pass",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def __len__(self):
        return len(self.name_id)

    def wrap(self, name, fn, observe=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_times(self):
        return self_times(self.parent, self.start, self.end)

    def write(self, path):
        """Write every span once: a JSON header, then the four arrays."""
        header = {"names": self.names, "count": len(self), "arrays": [
            ["name_id", self.name_id.typecode], ["parent", self.parent.typecode],
            ["start", self.start.typecode], ["end", self.end.typecode]]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def self_times(parent, start, end):
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread), so the children of a span are disjoint and
    inside it, and the part of its interval they cover is their sum."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def _abr_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "abr" or name.startswith("abr."))]


class Installed:
    """Context manager: wrappers around every TARGETS entry in every abr
    module namespace that binds it; on exit the originals go back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        modules = _abr_modules()
        try:
            for name, module_name, attr, observe in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    raw = owner.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.tracer.wrap(name, raw.__func__, observe))
                    else:
                        new = self.tracer.wrap(name, raw, observe)
                    self._swap(owner, meth, raw, new)
                    continue
                original = getattr(module, attr)
                wrapper = self.tracer.wrap(name, original, observe)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, key, original, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _swap(self, owner, key, original, new):
        self.saved.append((owner, key, original))
        setattr(owner, key, new)

    def restore(self):
        while self.saved:
            owner, key, original = self.saved.pop()
            setattr(owner, key, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def layer_metrics(tracer, color_spans, decided_tuples):
    """Per-layer metrics of one traced pass.

    ``color_spans`` lists the [lo, hi) span index ranges of the pass's
    ``abr color`` commands; ``decided_tuples`` is the number of colors they
    must decide (0 when the workload has none).
    """
    own = tracer.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    names = tracer.names
    for nid, t in zip(tracer.name_id, own):
        calls[names[nid]] += 1
        self_s[names[nid]] += t

    def count_in(name, lo, hi):
        nid = tracer._ids.get(name)
        return sum(1 for i in range(lo, hi) if tracer.name_id[i] == nid)

    lookup_id = tracer._ids.get("tables.lookup")
    search_id = tracer._ids.get("tables.search")
    lookups_in_search = sum(
        1 for i, p in zip(tracer.name_id, tracer.parent)
        if i == lookup_id and p >= 0 and tracer.name_id[p] == search_id)
    random_id = tracer._ids.get("constructions.random")
    validate_id = tracer._ids.get("sequences.validate")
    draws = sum(1 for i, p in zip(tracer.name_id, tracer.parent)
                if i == validate_id and p >= 0 and tracer.name_id[p] == random_id)
    color_dets = sum(count_in("linalg.det", lo, hi) for lo, hi in color_spans)
    nodes = tracer.counts["tables.search.nodes"]

    return {
        "linalg.det.calls": calls["linalg.det"],
        "linalg.det.self_s": self_s["linalg.det"],
        "linalg.det.max_entry_bits": tracer.maxima["linalg.det.max_entry_bits"],
        "linalg.det.useful_ratio": decided_tuples / color_dets if color_dets else 0.0,
        "linalg.complementary_minors.calls": calls["linalg.complementary_minors"],
        "linalg.complementary_minors.self_s": self_s["linalg.complementary_minors"],
        "sequences.validate.calls": calls["sequences.validate"],
        "sequences.validate.tuples": tracer.counts["sequences.validate.tuples"],
        "sequences.validate.self_s": self_s["sequences.validate"],
        "sequences.parse.self_s": self_s["sequences.parse"],
        "sequences.serialize.self_s": self_s["sequences.serialize"],
        "coloring.color_table.self_s": self_s["coloring.color_table"],
        "coloring.oracle.calls": calls["coloring.oracle"],
        "coloring.oracle.self_s": self_s["coloring.oracle"],
        "coloring.divided_difference.calls": calls["coloring.divided_difference"],
        "coloring.divided_difference.self_s": self_s["coloring.divided_difference"],
        "coloring.divided_difference.max_bits":
            tracer.maxima["coloring.divided_difference.max_bits"],
        "coloring.divdiff_color_table.self_s": self_s["coloring.divdiff_color_table"],
        "coloring.one_switch.calls": calls["coloring.one_switch"],
        "coloring.one_switch.self_s": self_s["coloring.one_switch"],
        "tables.lookup.calls": calls["tables.lookup"],
        "tables.lookup.self_s": self_s["tables.lookup"],
        "tables.csv_read.self_s": self_s["tables.csv_read"],
        "tables.csv_write.self_s": self_s["tables.csv_write"],
        "tables.build.self_s": self_s["tables.build"],
        "tables.check.self_s": self_s["tables.check"],
        "tables.search.self_s": self_s["tables.search"],
        "tables.search.nodes": nodes,
        "tables.search.lookups_per_node": lookups_in_search / nodes if nodes else 0.0,
        "constructions.random.self_s": self_s["constructions.random"],
        "constructions.random.redraws": draws - calls["constructions.random"],
        "constructions.em.self_s": sum(self_s[k] for k in (
            "constructions.em", "constructions.em_build", "constructions.em_verify")),
        "constructions.em.bases_tried": calls["constructions.em_build"],
        "cli.main.self_s": self_s["cli.main"],
    }
