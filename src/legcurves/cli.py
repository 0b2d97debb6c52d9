"""Command-line front end: verification sweeps and table exports.

Every command builds a list of row dicts with a fixed key order, then
renders them as JSON (one top-level array) or CSV (header row, plain
comma separation).  JSON is rendered from one row template per key
order, with each repeated value object rendered once, and its bytes are
those of `json.dumps(rows, indent=2, ensure_ascii=False)`.  Work is
split across processes only at the level of whole field sizes and
merged back in submission order, so output bytes never depend on
--jobs.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_str

from . import char2 as c2
from . import classify, stats, supersingular
from .curve import (
    legendre_count_table,
    verify_class_sizes,
    verify_four_torsion_equivalence,
    verify_group_law,
    verify_nonsquare_twist_isomorphism,
    verify_shift_sums,
    verify_two_descent_kernel,
    verify_twist_counts,
)
from .field import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    MAX_ORDER,
    check_cap,
    field_of_order,
    make_field,
    odd_prime_powers,
    odd_primes,
    trace2,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

_CSV_COLUMNS = {
    "count": ("p", "n", "lambda", "count"),  # modulus only in JSON
    "classify": ("q", "N", "witness_count", "first_witness",
                 "legendre_isogenous", "excluded_reason"),
    "census": ("q", "attained_multiples_of_four", "legendre_counts",
               "reference_density"),
    "supersingular": ("p", "signed_prime", "degree", "prime_root_count",
                      "class_number", "predicted", "ok"),
    "stats": ("q", "total", "main_term", "excess", "formula_ok"),
    "char2": ("n", "lambda", "beta", "count"),
}


@dataclass
class RunConfig:
    """One resolved invocation: a command, its value range, and the
    output/parallelism knobs."""

    command: str
    values: list
    fmt: str = "json"
    out: str | None = None
    jobs: int = 1
    cap: int | None = None
    aux_cap: int = stats.DEFAULT_AUX_CAP
    lam: list | None = None
    beta: int = 0

    def validate(self):
        if not self.values and self.command != "verify-all":
            raise ValueError("empty range: nothing to do")
        if self.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        if self.aux_cap < 0:
            raise ValueError(f"--aux-cap {self.aux_cap} is negative")
        if self.cap is not None and self.cap < 0:
            raise ValueError(f"--max-q {self.cap} is negative")
        if self.cap is not None and self.cap > DEFAULT_ENUMERATION_CAP:
            raise ValueError(
                f"--max-q {self.cap} is above the table cap "
                f"{DEFAULT_ENUMERATION_CAP}, which every table build keeps")
        if self.cap is not None and self.values:
            need = min(self.values)
            if self.command == "char2":
                need = 2 ** need
            # supersingular rows go without roots where GF(p^2) is over the cap
            if self.cap < need and self.command != "supersingular":
                raise ValueError(
                    f"--max-q {self.cap} is below the smallest requested "
                    f"enumeration ({need})")


# ---------------------------------------------------------------------------
# row builders (module level so process pools can pick them up)

def _count_rows(task):
    q, lam_codes, cap = task
    f = field_of_order(q)
    table = legendre_count_table(f, cap)
    codes = lam_codes if lam_codes else sorted(table)
    modulus = list(f.modulus)   # one object: the renderer encodes it once
    rows = []
    for lc in codes:
        if lc not in table:
            raise ValueError(f"lambda code {lc} is not admissible over F_{q}")
        rows.append({"p": f.p, "n": f.n, "modulus": modulus,
                     "lambda": lc, "count": table[lc]})
    return rows


def _classify_rows(task):
    q, cap = task
    f = field_of_order(q)
    rows = []
    for r in classify.census(q, cap):
        first = f.code(r.legendre_witnesses[0]) if r.legendre_witnesses else None
        rows.append({
            "q": r.q,
            "N": r.n,
            "witness_count": len(r.legendre_witnesses),
            "first_witness": first,
            "legendre_isogenous": r.legendre_isogenous,
            "excluded_reason": r.excluded_reason,
            "attained": r.attained,
        })
    return rows


def _census_rows(task):
    q, cap = task
    return [classify.census_summary(q, cap)]


def _supersingular_rows(task):
    p, cap = task
    count = supersingular.supersingular_prime_field_count(p)
    if p % 4 == 3:
        h = supersingular.class_number(p)
        predicted = 1 if p == 3 else 3 * h
    else:
        h = None
        predicted = 0
    row = {
        "p": p,
        "signed_prime": p if p % 4 == 1 else -p,
        "degree": (p - 1) // 2,
        "prime_root_count": count,
        "class_number": h,
        "predicted": predicted,
        "ok": count == predicted,
        "prime_field_roots": None,
        "roots": None,
    }
    try:
        check_cap(p * p, cap, "root table", f"GF({p}^2)")
    except EnumerationCapError:
        return [row]   # the roots are listed only where GF(p^2) fits the cap
    t = supersingular.supersingular_lambdas(p)
    row["prime_field_roots"] = list(t.prime_field_roots)
    row["roots"] = [list(r.coeffs) for r in t.roots]
    if t.prime_field_roots != sorted(t.prime_field_roots) or \
            len(t.prime_field_roots) != count:
        raise RuntimeError(f"prime-field root scan mismatch at p={p}")
    if len(t.roots) != (p - 1) // 2:
        raise RuntimeError(f"expected {(p - 1) // 2} supersingular lambdas "
                           f"at p={p}, found {len(t.roots)}")
    return [row]


def _stats_rows(task):
    q, cap, aux_cap = task
    r = stats.legendre_sum(q, cap, aux_cap)
    return [{
        "q": r.q,
        "total": r.total,
        "main_term": r.main_term,
        "excess": r.total - r.main_term,
        "formula_ok": r.formula_ok,
        "triple_count": r.triple_count,
        "nodal_at_zero": r.nodal_at_zero,
        "nodal_at_one": r.nodal_at_one,
    }]


def _char2_rows(task):
    n, beta_code, cap = task
    f = make_field(2, n)
    beta = f.from_code(beta_code)
    rows = []
    for lc in range(1, f.q):
        e = c2.Char2Curve(f, beta, f.from_code(lc))
        rows.append({"n": n, "lambda": lc, "beta": beta_code,
                     "count": c2.char2_count(e, cap)})
    return rows


_BUILDERS = {
    "count": _count_rows,
    "classify": _classify_rows,
    "census": _census_rows,
    "supersingular": _supersingular_rows,
    "stats": _stats_rows,
    "char2": _char2_rows,
}


def _build_rows(config: RunConfig):
    builder = _BUILDERS[config.command]
    if config.command == "count":
        tasks = [(q, config.lam, config.cap) for q in config.values]
    elif config.command == "stats":
        tasks = [(q, config.cap, config.aux_cap) for q in config.values]
    elif config.command == "char2":
        tasks = [(n, config.beta, config.cap) for n in config.values]
    else:
        tasks = [(v, config.cap) for v in config.values]
    if config.jobs > 1 and len(tasks) > 1:
        # the pool forks all its workers at once: never more than the
        # tasks or the cores
        workers = min(config.jobs, len(tasks), os.cpu_count() or 1)
        # read through the module, so `__getattr__` below and a replaced
        # class both apply
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            per_task = list(pool.map(builder, tasks))
    else:
        per_task = [builder(t) for t in tasks]
    return [row for chunk in per_task for row in chunk]


def __getattr__(name):
    # concurrent.futures loads when a pool first starts, not with the CLI
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# rendering

def _csv_cell(value):
    if value is None:
        return ""
    if value is True:
        return "1"
    if value is False:
        return "0"
    return str(value)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, depth):
    """The text `json.dumps(indent=2, ensure_ascii=False)` gives a value
    nested `depth` levels deep."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    inner = "\n" + "  " * (depth + 1)
    close = inner[:-2]
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join(
            [_json_text(v, depth + 1) for v in value]) + close + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            [f"{_json_str(k)}: {_json_text(v, depth + 1)}"
             for k, v in value.items()]) + close + "}")
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _row_template(keys):
    """A %-template of one row with these keys, at depth 1 of the array:
    each value goes in as its text."""
    if not keys:
        return "  {}"
    return "  {\n" + ",\n".join(
        f"    {_json_str(k).replace('%', '%%')}: %s" for k in keys) + "\n  }"


def _render_json(rows):
    """`json.dumps(rows, indent=2, ensure_ascii=False) + "\\n"` for a
    list of row dicts."""
    if not rows:
        return "[]\n"
    templates = {}
    texts = {}      # id -> text; the rows keep every value alive meanwhile
    parts = []
    for row in rows:
        keys = tuple(row)
        template = templates.get(keys)
        if template is None:
            template = templates[keys] = _row_template(keys)
        values = []
        for v in row.values():
            if type(v) is not int:      # bool is an int subclass: not here
                text = texts.get(id(v))
                if text is None:
                    text = texts[id(v)] = _json_text(v, 2)
                v = text
            values.append(v)
        parts.append(template % tuple(values))
    return "[\n" + ",\n".join(parts) + "\n]\n"


def render(rows, fmt, command):
    if fmt == "json":
        return _render_json(rows)
    columns = _CSV_COLUMNS[command]
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _emit(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# verify-all: the acceptance suites, each timed on stderr.  Each returns
# (failures, cases): the failure strings, empty when the suite passed,
# and how many fields, primes or degrees its outer loops checked.

def suite_isogeny_window(scale="full"):
    qs = odd_prime_powers(729 if scale == "full" else 49)
    failures = []
    for q in qs:
        failures.extend(classify.verify_isogeny_window(q))
    return failures, len(qs)


def suite_exceptional_counts(scale="full"):
    squares = (9, 25, 49, 81, 121, 169) if scale == "full" else (9, 25)
    failures = []
    for q in squares:
        r = classify.normalized_r(q)
        target = (r + 1) ** 2
        rec = next(x for x in classify.census(q) if x.n == target)
        if not rec.attained:
            failures.append(f"q={q}: no curve at all attains {target} points")
        if rec.legendre_witnesses:
            failures.append(f"q={q}: the excluded count {target} has a "
                            f"Legendre witness {rec.legendre_witnesses[0]}")
        if rec.excluded_reason != classify.EXCLUDED_EXCEPTION:
            failures.append(f"q={q}: count {target} not marked as the "
                            f"maximal/minimal exception")
    return failures, len(squares)


def suite_count_sum(scale="full"):
    limit, aux = (1000, 512) if scale == "full" else (121, 49)
    qs = odd_prime_powers(limit)
    failures = []
    for q in qs:
        failures.extend(stats.verify_stats(q, aux_cap=aux))
    return failures, len(qs)


def _replay(p, check=None):
    """The tail of a supersingular failure string: the command that
    reproduces it.  That is the call `supersingular.<check>(p)` when a
    check is named, else the table build for p, which checks the roots."""
    if check is None:
        return f"; replay: legcurves supersingular --p {p}"
    return (f'; replay: python -c "from legcurves.supersingular import '
            f'{check}; raise SystemExit(not {check}({p}))"')


def suite_supersingular_roots(scale="full"):
    primes = odd_primes(300 if scale == "full" else 61)
    failures = []
    for p in primes:
        t = supersingular.supersingular_lambdas(p)
        if len(t.roots) != (p - 1) // 2:
            failures.append(f"p={p}: expected {(p - 1) // 2} supersingular "
                            f"lambdas, found {len(t.roots)}{_replay(p)}")
        if not supersingular.verify_eighth_power(p):
            failures.append(f"p={p}: negated supersingular lambdas are not "
                            f"all eighth powers"
                            f"{_replay(p, 'verify_eighth_power')}")
    return failures, len(primes)


def suite_root_count_formula(scale="full"):
    primes = odd_primes(500 if scale == "full" else 100)
    return [f"p={p}: prime-field root count deviates from the "
            f"class-number dispatch{_replay(p, 'verify_sp_formula')}"
            for p in primes
            if not supersingular.verify_sp_formula(p)], len(primes)


def suite_supersingular_structure(scale="full"):
    primes = odd_primes(43 if scale == "full" else 13)
    return [f"p={p}: some supersingular group is not the expected square "
            f"of a cyclic factor{_replay(p, 'verify_ss_structure')}"
            for p in primes
            if not supersingular.verify_ss_structure(p)], len(primes)


def suite_four_torsion(scale="full"):
    qs = odd_prime_powers(121 if scale == "full" else 25)
    failures = []
    for q in qs:
        failures.extend(verify_four_torsion_equivalence(field_of_order(q)))
    return failures, len(qs)


def suite_descent_and_classes(scale="full"):
    descent_qs = odd_prime_powers(49 if scale == "full" else 13)
    class_qs = ((7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)
                if scale == "full" else (7, 11))
    failures = []
    for q in descent_qs:
        f = field_of_order(q)
        failures.extend(verify_two_descent_kernel(f))
        failures.extend(verify_nonsquare_twist_isomorphism(f))
    for q in class_qs:
        failures.extend(verify_class_sizes(field_of_order(q)))
    return failures, len(descent_qs) + len(class_qs)


def suite_char2(scale="full"):
    limit = 10 if scale == "full" else 5
    failures = []
    for n in range(1, limit + 1):
        if not c2.verify_char2_prop(n):
            failures.append(f"n={n}: count divisibility by 4 does not match "
                            f"the quadratic-coefficient trace")
        if not c2.verify_odd_intersection(n):
            failures.append(f"n={n}: some trace intersection count is even")
        f = make_field(2, n)
        alpha = next(f.from_code(c) for c in range(1, f.q)
                     if trace2(f.from_code(c)) == 1)
        # a twist by a trace-0 element is isomorphic (0 when n = 1)
        beta = next((f.from_code(c) for c in range(1, f.q)
                     if trace2(f.from_code(c)) == 0), f(0))
        for lc in range(1, f.q):
            lam = f.from_code(lc)
            e0 = c2.Char2Curve(f, f(0), lam)
            e1 = c2.char2_twist(e0, alpha)
            n0 = c2.char2_count(e0)
            n1 = c2.char2_count(e1)
            if n0 + n1 != 2 ** (n + 1) + 2:
                failures.append(f"n={n}, lambda code {lc}: twist counts sum "
                                f"to {n0 + n1}, not 2^{n + 1}+2")
            if (c2.char2_is_isomorphic(e0, e1)
                    or not c2.char2_is_isomorphic(e0, c2.char2_twist(e0, beta))):
                failures.append(f"n={n}, lambda code {lc}: the twist classes "
                                f"do not follow the trace of the twist")
            if not c2.frobenius_image_check(lam):
                failures.append(f"n={n}, lambda code {lc}: squared-lambda "
                                f"count differs from the image-model count")
    return failures, limit


def _field_axiom_failures(q):
    """Exhaustive commutativity/associativity/distributivity and inverse
    checks on the code tables of F_q."""
    f = field_of_order(q)
    add = f._add_func()
    mul = f._mul_func()
    neg = f._neg_codes()
    inv = f._inv_codes()
    add_m = [[add(a, b) for b in range(q)] for a in range(q)]
    mul_m = [[mul(a, b) for b in range(q)] for a in range(q)]
    failures = []
    rng = range(q)
    for a in rng:
        arow_add, arow_mul = add_m[a], mul_m[a]
        if arow_add[0] != a or arow_mul[1] != a or arow_mul[0] != 0:
            failures.append(f"q={q}: identity laws fail at code {a}")
        if arow_add[neg[a]] != 0:
            failures.append(f"q={q}: additive inverse fails at code {a}")
        if a and arow_mul[inv[a]] != 1:
            failures.append(f"q={q}: multiplicative inverse fails at code {a}")
        for b in rng:
            if arow_add[b] != add_m[b][a] or arow_mul[b] != mul_m[b][a]:
                failures.append(f"q={q}: commutativity fails at ({a}, {b})")
            brow_add, brow_mul = add_m[b], mul_m[b]
            ab_add, ab_mul = arow_add[b], arow_mul[b]
            # (a+b)+c = a+(b+c), (a*b)*c = a*(b*c), a*(b+c) = a*b + a*c
            if any(add_m[ab_add][c] != arow_add[brow_add[c]] for c in rng):
                failures.append(f"q={q}: additive associativity fails "
                                f"at ({a}, {b})")
            if any(mul_m[ab_mul][c] != arow_mul[brow_mul[c]] for c in rng):
                failures.append(f"q={q}: multiplicative associativity fails "
                                f"at ({a}, {b})")
            ab_row = add_m[ab_mul]
            if any(arow_mul[brow_add[c]] != ab_row[arow_mul[c]]
                   for c in rng):
                failures.append(f"q={q}: distributivity fails at ({a}, {b})")
        if failures:
            break
    return failures


def suite_infrastructure(scale="full"):
    fields = odd_prime_powers(121 if scale == "full" else 25)
    failures = []
    for q in fields:
        failures.extend(_field_axiom_failures(q))
        f = field_of_order(q)
        failures.extend(verify_group_law(f))
        failures.extend(verify_twist_counts(f))
        failures.extend(verify_shift_sums(f))
    hasse_primes = [p for p in odd_primes(127 if scale == "full" else 31)
                    if p >= 17]
    for p in hasse_primes:
        failures.extend(supersingular.verify_hasse_trace(p))
    # determinism: the same config must render identical bytes whether
    # rows are built serially, in a pool, or on a second run
    qs = odd_prime_powers(25)
    base = RunConfig("classify", qs)
    serial = render(_build_rows(base), "json", "classify")
    again = render(_build_rows(base), "json", "classify")
    pooled = render(_build_rows(RunConfig("classify", qs, jobs=2)),
                    "json", "classify")
    if serial != again:
        failures.append("identical serial runs rendered different bytes")
    if serial != pooled:
        failures.append("--jobs 2 rendered different bytes than --jobs 1")
    for fmt in ("json", "csv"):
        a = render(_build_rows(RunConfig("stats", qs)), fmt, "stats")
        b = render(_build_rows(RunConfig("stats", qs, jobs=3)), fmt, "stats")
        if a != b:
            failures.append(f"stats {fmt} output depends on --jobs")
    return failures, len(fields) + len(hasse_primes)


ALL_SUITES = (
    ("isogeny window", suite_isogeny_window),
    ("exceptional square counts", suite_exceptional_counts),
    ("family count sum", suite_count_sum),
    ("supersingular roots and eighth powers", suite_supersingular_roots),
    ("prime-field root count formula", suite_root_count_formula),
    ("supersingular group structure", suite_supersingular_structure),
    ("four-torsion equivalence", suite_four_torsion),
    ("descent kernel and isomorphism classes", suite_descent_and_classes),
    ("char-2 divisibility and image counts", suite_char2),
    ("determinism and algebra suites", suite_infrastructure),
)


def run_verify_all(scale, out=None):
    lines = []
    bad = 0
    for name, fn in ALL_SUITES:
        start = time.perf_counter()
        try:
            failures, cases = fn(scale)
            if not cases:
                failures = [*failures, "checked no cases"]
        except Exception as exc:
            # a suite that raises is a failed suite; the others still run
            failures, cases = [f"raised {type(exc).__name__}: {exc}"], 0
        sys.stderr.write(f"{time.perf_counter() - start:.2f} s  "
                         f"{cases} cases  {name}\n")
        if failures:
            bad += 1
            lines.append(f"FAIL {name}: {failures[0]}")
            lines.extend(f"     {msg}" for msg in failures[1:5])
            extra = len(failures) - 5
            if extra > 0:
                lines.append(f"     ... and {extra} more")
        else:
            lines.append(f"ok   {name}")
    lines.append(f"{len(ALL_SUITES) - bad}/{len(ALL_SUITES)} suites passed")
    _emit("\n".join(lines) + "\n", out)
    return EXIT_INVARIANT if bad else EXIT_OK


# ---------------------------------------------------------------------------
# argument handling

def _add_common(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for multi-field sweeps")
    sub.add_argument("--max-q", type=int, default=None, dest="cap",
                     help="enumeration cap forwarded to the library")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="legcurves",
        description="verification sweeps and tables for the curve family "
                    "y^2 = x(x-1)(x-lambda) over finite fields")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("count", help="point counts per lambda over one field")
    p.add_argument("--q", type=int, required=True, help="odd prime power")
    p.add_argument("--lam", type=int, action="append", default=None,
                   help="lambda code (repeatable; default: all admissible)")
    _add_common(p)

    p = subs.add_parser("classify",
                        help="Hasse-interval counts with witnesses")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-max", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("census", help="per-field density summary")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-max", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("supersingular",
                        help="supersingular lambda tables per prime")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--p-max", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("stats", help="family count sums per field")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-max", type=int, default=None)
    p.add_argument("--aux-cap", type=int, default=stats.DEFAULT_AUX_CAP,
                   help="largest q for the enumeration cross-checks")
    _add_common(p)

    p = subs.add_parser("char2", help="characteristic-2 counts per lambda")
    p.add_argument("--n", type=int, default=None, help="extension degree")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--beta", type=int, default=0,
                   help="quadratic coefficient code (default 0)")
    _add_common(p)

    p = subs.add_parser("verify-all", help="run every acceptance suite")
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="full acceptance caps, or a fast smoke pass")
    p.add_argument("--out", default=None)
    return parser


def _require_odd_prime_power(q, parser):
    if q is None or q < 3 or q % 2 == 0:
        parser.error(f"{q} is not an odd prime power")
    try:
        field_of_order(q)
    except ValueError:
        parser.error(f"{q} is not an odd prime power")


def _resolve_values(args, parser):
    cmd = args.command
    # before any factoring or scan: no table above the cap can be built
    for name in ("q", "q_max", "p", "p_max"):
        value = getattr(args, name, None)
        if value is not None and value > DEFAULT_ENUMERATION_CAP:
            parser.error(f"--{name.replace('_', '-')} {value} is above the "
                         f"enumeration cap {DEFAULT_ENUMERATION_CAP}")
    if cmd == "count":
        _require_odd_prime_power(args.q, parser)
        for lc in args.lam or ():
            if not 1 < lc < args.q:
                parser.error(f"lambda code {lc} is not admissible over "
                             f"F_{args.q} (need 2 <= code < q)")
        return [args.q]
    if cmd == "supersingular":
        if (args.p is None) == (args.p_max is None):
            parser.error("give exactly one of --p / --p-max")
        if args.p is not None:
            if args.p % 2 == 0 or field_of_order(args.p).n != 1:
                parser.error(f"{args.p} is not an odd prime")
            return [args.p]
        return odd_primes(args.p_max)
    if cmd == "char2":
        if (args.n is None) == (args.n_max is None):
            parser.error("give exactly one of --n / --n-max")
        lo, hi = (args.n, args.n) if args.n is not None else (1, args.n_max)
        top = MAX_ORDER.bit_length() - 1        # 2^n <= MAX_ORDER
        if lo <= hi:    # an empty range fails in RunConfig.validate
            if lo < 1 or hi > top:
                parser.error(f"extension degree {lo if lo < 1 else hi} "
                             f"is outside [1, {top}]")
            if not 0 <= args.beta < 2 ** lo:
                parser.error(f"beta code {args.beta} is outside "
                             f"[0, {2 ** lo}) for n = {lo}")
            # before the first field: GF(2^hi) must fit the cap too
            check_cap(2 ** hi, args.cap, "char-2 table", f"GF(2^{hi})")
        return list(range(lo, hi + 1))
    if (args.q is None) == (args.q_max is None):
        parser.error("give exactly one of --q / --q-max")
    if args.q is not None:
        _require_odd_prime_power(args.q, parser)
        return [args.q]
    return list(odd_prime_powers(args.q_max))


def _config(args, parser):
    """The validated RunConfig of parsed arguments: every argument check,
    and no sweep.  A usage error exits through `parser.error`; a range
    over the enumeration cap raises EnumerationCapError."""
    try:
        config = RunConfig(
            command=args.command,
            values=_resolve_values(args, parser),
            fmt=args.format,
            out=args.out,
            jobs=args.jobs,
            cap=args.cap,
            aux_cap=getattr(args, "aux_cap", stats.DEFAULT_AUX_CAP),
            lam=getattr(args, "lam", None),
            beta=getattr(args, "beta", 0),
        )
        config.validate()
    except EnumerationCapError:
        raise
    except ValueError as exc:
        parser.error(str(exc))
    return config


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-all":
        return run_verify_all(args.scale, args.out)
    try:
        rows = _build_rows(_config(args, parser))
    except EnumerationCapError as exc:
        sys.stderr.write(f"range exceeds the enumeration cap: {exc}\n")
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return EXIT_INVARIANT
    _emit(render(rows, args.format, args.command), args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
