"""Spans and counters around legcurves' module entry points.

Everything lives in the benchmark: `install` swaps each entry point for
a wrapper in every legcurves namespace that binds it (so calls between
modules, e.g. classify -> legendre_count_table, are seen), and
`uninstall` puts the originals back.  A span is (name, start, end,
parent span, call id); the call id is the index of the benchmark action
that caused it.  Spans stay in memory until the run writes them out.

Self time of a span is its duration minus the durations of its direct
children.  Calls are single-threaded in this process, so children never
overlap and the self times of one pass add up to the time the pass
spent inside legcurves.

The pooled `census` runs its rows in worker processes.  Their spans are
not collected: only the parent's wait on the pool is recorded, as the
span `cli.pool_wait`.
"""

from __future__ import annotations

import itertools
import operator
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from legcurves import cli
from legcurves.curve import Curve
from legcurves.field import Fe, Field, field_of_order

LAYERS = ("field", "poly", "curve", "classify", "stats", "supersingular",
          "char2", "cli")

# module -> {function name: span name}
FUNCTIONS = {
    "poly": {
        "pow_x_mod": "poly.pow_x_mod",
        "distinct_root_count": "poly.distinct_root_count",
        "deuring": "poly.deuring",
    },
    "curve": {
        "legendre_count_table": "curve.count_table",
        "_root_transform_exists": "curve.iso_search",
        "is_legendre_isomorphic": "curve.legendre_iso",
        "verify_group_law": "curve.verify_group_law",
        "verify_twist_counts": "curve.verify_twist_counts",
        "verify_four_torsion_equivalence": "curve.verify_four_torsion",
        "verify_two_descent_kernel": "curve.verify_descent",
        "verify_nonsquare_twist_isomorphism": "curve.verify_descent",
    },
    "classify": {
        "census": "classify.census",
        "_attained_counts": "classify.attained_counts",
    },
    "stats": {
        "legendre_sum": "stats.legendre_sum",
        "auxiliary_counts": "stats.auxiliary_counts",
    },
    "supersingular": {
        "supersingular_lambdas": "supersingular.lambdas",
        "verify_eighth_power": "supersingular.eighth_power",
        "verify_ss_structure": "supersingular.structure",
        "class_number": "supersingular.class_number",
        "verify_sp_formula": "supersingular.sp_formula",
    },
    "char2": {
        "char2_count": "char2.count",
        "_literal_affine_count": "char2.literal_scan",
        "verify_char2_prop": "char2.verify_prop",
        "frobenius_image_check": "char2.frobenius_check",
    },
    "cli": {
        "main": "cli.main",
        "_build_rows": "cli.build_rows",
        "render": "cli.render",
    },
}

METHODS = {
    (Field, "__init__"): "field.init",
    (Curve, "points"): "curve.points",
    (Curve, "count_points"): "curve.count_points",
    (Curve, "group_structure"): "curve.group_structure",
}

FE_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inv")

COUNTERS = ("fe_ops", "field_eq_calls", "table_lookups", "table_builds",
            "table_entries", "count_table_pairs", "output_bytes")

# metric -> (span name, "s" for summed self time | "calls" for a count)
SPAN_METRICS = {
    "field.table_build_s": ("field.table_build", "s"),
    "poly.pow_x_mod_s": ("poly.pow_x_mod", "s"),
    "poly.pow_x_mod_calls": ("poly.pow_x_mod", "calls"),
    "poly.distinct_root_count_s": ("poly.distinct_root_count", "s"),
    "curve.count_table_s": ("curve.count_table", "s"),
    "curve.count_table_calls": ("curve.count_table", "calls"),
    "curve.points_s": ("curve.points", "s"),
    "curve.points_calls": ("curve.points", "calls"),
    "curve.count_points_s": ("curve.count_points", "s"),
    "curve.count_points_calls": ("curve.count_points", "calls"),
    "curve.group_structure_s": ("curve.group_structure", "s"),
    "curve.group_structure_calls": ("curve.group_structure", "calls"),
    "curve.iso_search_s": ("curve.iso_search", "s"),
    "curve.iso_search_calls": ("curve.iso_search", "calls"),
    "curve.legendre_iso_s": ("curve.legendre_iso", "s"),
    "curve.verify_group_law_s": ("curve.verify_group_law", "s"),
    "curve.verify_twist_counts_s": ("curve.verify_twist_counts", "s"),
    "curve.verify_four_torsion_s": ("curve.verify_four_torsion", "s"),
    "curve.verify_descent_s": ("curve.verify_descent", "s"),
    "classify.census_s": ("classify.census", "s"),
    "classify.census_calls": ("classify.census", "calls"),
    "classify.attained_counts_s": ("classify.attained_counts", "s"),
    "stats.legendre_sum_s": ("stats.legendre_sum", "s"),
    "stats.auxiliary_counts_s": ("stats.auxiliary_counts", "s"),
    "supersingular.lambdas_s": ("supersingular.lambdas", "s"),
    "supersingular.eighth_power_s": ("supersingular.eighth_power", "s"),
    "supersingular.structure_s": ("supersingular.structure", "s"),
    "supersingular.class_number_s": ("supersingular.class_number", "s"),
    "char2.count_s": ("char2.count", "s"),
    "char2.count_calls": ("char2.count", "calls"),
    "char2.literal_scan_s": ("char2.literal_scan", "s"),
    "char2.literal_scans": ("char2.literal_scan", "calls"),
    "char2.verify_prop_s": ("char2.verify_prop", "s"),
    "char2.frobenius_check_s": ("char2.frobenius_check", "s"),
    "cli.build_rows_s": ("cli.build_rows", "s"),
    "cli.render_s": ("cli.render", "s"),
    "cli.pool_wait_s": ("cli.pool_wait", "s"),
}

PROBE_FIELDS = {"q961": 961, "q997": 997}


class Tracer:
    """In-memory spans plus monotonically increasing counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, call]
        self.stack = []
        self.call_id = -1
        self.counters = {k: itertools.count() for k in COUNTERS}
        self.bumps = {k: 0 for k in COUNTERS}  # non-unit increments
        self.errors = {layer: 0 for layer in LAYERS}
        self._seen = set()
        self._saved = []

    # -- spans ---------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.call_id])
        self.stack.append(idx)
        return idx

    def close(self, idx, exc=None):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if exc is not None:
            layer = self.spans[idx][0].split(".", 1)[0]
            if (layer, id(exc)) not in self._seen:
                self._seen.add((layer, id(exc)))
                self.errors[layer] += 1

    def wrap(self, fn, name, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, exc)
                raise
            self.close(idx)
            return result
        wrapper.__wrapped__ = fn
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- counters ------------------------------------------------------

    def snapshot(self):
        """Current counter values, span count and error counts;
        `_delta` turns two of these into per-pass amounts."""
        return ({k: next(c) + self.bumps[k]
                 for k, c in self.counters.items()},
                len(self.spans), dict(self.errors))

    def bump(self, key, amount):
        self.bumps[key] += amount

    # -- installation --------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]
                            if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "legcurves" or n.startswith("legcurves."))
                   and m is not None]

        def count_pairs(args):
            q = args[0].q
            self.bump("count_table_pairs", (q - 2) * q)

        for modname, names in FUNCTIONS.items():
            mod = sys.modules["legcurves." + modname]
            for attr, span in names.items():
                orig = getattr(mod, attr)
                new = self.wrap(orig, span, count_pairs
                                if span == "curve.count_table" else None)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._replace(m, k, new)
        for (cls, attr), span in METHODS.items():
            self._replace(cls, attr, self.wrap(cls.__dict__[attr], span))
        self._install_counters()
        self._install_field_tables()
        self._install_pool()
        self._install_output()

    def _install_counters(self):
        fe_tick = self.counters["fe_ops"].__next__
        for attr in FE_OPS:
            orig = Fe.__dict__[attr]

            def counted(*args, _orig=orig):
                fe_tick()
                return _orig(*args)
            self._replace(Fe, attr, counted)
        eq_tick = self.counters["field_eq_calls"].__next__
        field_eq = Field.__dict__["__eq__"]

        def eq(a, b):
            eq_tick()
            return field_eq(a, b)
        self._replace(Field, "__eq__", eq)

    def _install_field_tables(self):
        """Field._get is the single point where lookup tables are built:
        every call is a lookup, every builder run a build."""
        orig = Field.__dict__["_get"]
        lookup = self.counters["table_lookups"].__next__
        build_tick = self.counters["table_builds"].__next__
        tracer = self

        def _get(field, name, builder):
            lookup()

            def build():
                build_tick()
                idx = tracer.open("field.table_build")
                try:
                    value = builder()
                except BaseException as exc:
                    tracer.close(idx, exc)
                    raise
                tracer.close(idx)
                tracer.bump("table_entries", _entries(value))
                return value
            return orig(field, name, build)
        self._replace(Field, "_get", _get)

    def _install_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __enter__(self):
                self._span = tracer.open("cli.pool_wait")
                return super().__enter__()

            def __exit__(self, *exc_info):
                try:
                    return super().__exit__(*exc_info)
                finally:
                    tracer.close(self._span, exc_info[1])
        self._replace(cli, "ProcessPoolExecutor", TracedPool)

    def _install_output(self):
        orig = cli._emit

        def emit(text, out):
            self.bump("output_bytes", len(text.encode("utf-8")))
            return orig(text, out)
        self._replace(cli, "_emit", emit)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _entries(value):
    """Number of entries in a built table: (exp, log) pairs count both
    halves, the addition table counts q*q."""
    if isinstance(value, tuple):
        return sum(len(v) for v in value)
    if value and isinstance(value[0], list):
        return len(value) * len(value[0])
    return len(value)


def _delta(before, after):
    # taking the first snapshot advanced every counter once
    counts = {k: after[0][k] - before[0][k] - 1 for k in COUNTERS}
    errors = {k: after[2][k] - before[2][k] for k in LAYERS}
    return counts, before[1], after[1], errors


def pass_metrics(tracer, before, after, wall):
    """Per-layer metrics of one traced pass from its spans and counters."""
    counts, lo, hi, errors = _delta(before, after)
    spans = tracer.spans[lo:hi]
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= lo:
            child[parent - lo] += t1 - t0
    self_by_name = {}
    calls_by_name = {}
    for (name, t0, t1, _, _), c in zip(spans, child):
        self_by_name[name] = self_by_name.get(name, 0.0) + (t1 - t0 - c)
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by_name.items()
                                   if k.startswith(layer + "."))
        m[f"{layer}.errors"] = errors[layer]
    for metric, (span, kind) in SPAN_METRICS.items():
        src = self_by_name if kind == "s" else calls_by_name
        m[metric] = src.get(span, 0)
    lookups = counts["table_lookups"]
    m["field.table_lookups"] = lookups
    m["field.table_builds"] = counts["table_builds"]
    m["field.table_hit_ratio"] = (
        (lookups - counts["table_builds"]) / lookups if lookups else 0.0)
    m["field.table_entries"] = counts["table_entries"]
    m["field.fe_ops"] = counts["fe_ops"]
    m["field.field_eq_calls"] = counts["field_eq_calls"]
    pairs = counts["count_table_pairs"]
    m["curve.count_table_pairs"] = pairs
    m["curve.count_table_pairs_per_s"] = (
        pairs / m["curve.count_table_s"] if pairs else 0.0)
    m["cli.output_bytes"] = counts["output_bytes"]
    inside = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["bench.self_s"] = wall - inside
    m["trace.wall_s"] = wall
    m["trace.spans"] = hi - lo
    return m


def mul_probe(reps=5, n=20000):
    """ns per element multiply, Fe objects against integer-code closures,
    in GF(31^2) and GF(997).  Run with the wrappers uninstalled."""
    out = {}
    for tag, q in PROBE_FIELDS.items():
        f = field_of_order(q)
        codes = [(7 * i + 3) % (q - 1) + 1 for i in range(200)]
        pairs = [(codes[i], codes[(i * 37 + 11) % 200]) for i in range(200)]
        fe_pairs = [(f.from_code(a), f.from_code(b)) for a, b in pairs]
        mul = f._mul_func()
        rounds = n // len(pairs)
        for kind, seq, op in (("fe", fe_pairs, operator.mul),
                              ("code", pairs, mul)):
            samples = []
            for _ in range(reps):
                t0 = time.perf_counter()
                for _ in range(rounds):
                    for a, b in seq:
                        op(a, b)
                samples.append((time.perf_counter() - t0) / n * 1e9)
            out[f"field.{kind}_mul_ns_{tag}"] = statistics.median(samples)
    return out
