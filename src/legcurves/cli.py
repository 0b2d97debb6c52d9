"""Command-line front end: verification sweeps and table exports.

Every command builds a list of row dicts with a fixed key order, then
renders them as JSON (one top-level array) or CSV (header row, plain
comma separation).  Work is split across processes only at the level of
whole field sizes and merged back in submission order, so output bytes
never depend on --jobs.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import char2 as c2
from . import classify, stats, supersingular
from .curve import (
    legendre_count_table,
    verify_class_sizes,
    verify_four_torsion_equivalence,
    verify_group_law,
    verify_nonsquare_twist_isomorphism,
    verify_two_descent_kernel,
    verify_twist_counts,
)
from .field import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    field_of_order,
    make_field,
    odd_prime_powers,
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
    scale: str = "full"

    def validate(self):
        if not self.values and self.command != "verify-all":
            raise ValueError("empty range: nothing to do")
        if self.jobs < 1:
            raise ValueError("--jobs must be at least 1")
        if self.cap is not None and self.values:
            need = min(self.values)
            if self.command in ("supersingular",):
                need = need * need
            elif self.command == "char2":
                need = 2 ** need
            if self.cap < need:
                raise ValueError(
                    f"--max-q {self.cap} is below the smallest requested "
                    f"enumeration ({need})")


# ---------------------------------------------------------------------------
# row builders (module level so process pools can pick them up)

def _modulus_ints(field):
    return [int(c) for c in field.modulus]


def _count_rows(task):
    q, lam_codes, cap = task
    f = field_of_order(q)
    table = legendre_count_table(f, cap)
    codes = lam_codes if lam_codes else sorted(table)
    rows = []
    for lc in codes:
        if lc not in table:
            raise ValueError(f"lambda code {lc} is not admissible over F_{q}")
        rows.append({"p": f.p, "n": f.n, "modulus": _modulus_ints(f),
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
    limit = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if p * p <= limit:
        t = supersingular.supersingular_lambdas(p)
        row["prime_field_roots"] = list(t.prime_field_roots)
        row["roots"] = [list(r.coeffs) for r in t.roots]
        if t.prime_field_roots != sorted(t.prime_field_roots) or \
                len(t.prime_field_roots) != count:
            raise RuntimeError(f"prime-field root scan mismatch at p={p}")
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
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            per_task = list(pool.map(builder, tasks))
    else:
        per_task = [builder(t) for t in tasks]
    return [row for chunk in per_task for row in chunk]


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


def render(rows, fmt, command):
    if fmt == "json":
        return json.dumps(rows, indent=2, ensure_ascii=False) + "\n"
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
# verify-all: the acceptance suites.  Each suite returns a list of
# failure strings; empty means the suite passed.

def _odd_primes(limit):
    return [p for p in odd_prime_powers(limit) if field_of_order(p).n == 1]


def suite_isogeny_window(scale="full"):
    limit = 199 if scale == "full" else 49
    failures = []
    for q in odd_prime_powers(limit):
        failures.extend(classify.verify_isogeny_window(q))
    return failures


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
    return failures


def suite_count_sum(scale="full"):
    limit, aux = (1000, 343) if scale == "full" else (121, 49)
    failures = []
    for q in odd_prime_powers(limit):
        failures.extend(stats.verify_stats(q, aux_cap=aux))
    return failures


def suite_supersingular_roots(scale="full"):
    limit = 200 if scale == "full" else 61
    failures = []
    for p in _odd_primes(limit):
        t = supersingular.supersingular_lambdas(p)
        if len(t.roots) != (p - 1) // 2:
            failures.append(f"p={p}: expected {(p - 1) // 2} supersingular "
                            f"lambdas, found {len(t.roots)}")
        if len(set(t.roots)) != len(t.roots):
            failures.append(f"p={p}: repeated supersingular lambda")
        if not supersingular.verify_eighth_power(p):
            failures.append(f"p={p}: negated supersingular lambdas are not "
                            f"all eighth powers")
    return failures


def suite_root_count_formula(scale="full"):
    limit = 500 if scale == "full" else 100
    return [f"p={p}: prime-field root count deviates from the "
            f"class-number dispatch"
            for p in _odd_primes(limit)
            if not supersingular.verify_sp_formula(p)]


def suite_supersingular_structure(scale="full"):
    limit = 31 if scale == "full" else 13
    return [f"p={p}: some supersingular group is not the expected square "
            f"of a cyclic factor"
            for p in _odd_primes(limit)
            if not supersingular.verify_ss_structure(p)]


def suite_four_torsion(scale="full"):
    limit = 121 if scale == "full" else 25
    failures = []
    for q in odd_prime_powers(limit):
        failures.extend(verify_four_torsion_equivalence(field_of_order(q)))
    return failures


def suite_descent_and_classes(scale="full"):
    descent_limit = 49 if scale == "full" else 13
    class_qs = ((7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83)
                if scale == "full" else (7, 11))
    failures = []
    for q in odd_prime_powers(descent_limit):
        f = field_of_order(q)
        failures.extend(verify_two_descent_kernel(f))
        failures.extend(verify_nonsquare_twist_isomorphism(f))
    for q in class_qs:
        failures.extend(verify_class_sizes(field_of_order(q)))
    return failures


def suite_char2(scale="full"):
    limit = 10 if scale == "full" else 5
    failures = []
    for n in range(1, limit + 1):
        if not c2.verify_char2_prop(n):
            failures.append(f"n={n}: count divisibility by 4 does not match "
                            f"the quadratic-coefficient trace")
        f = make_field(2, n)
        alpha = next(f.from_code(c) for c in range(1, f.q)
                     if trace2(f.from_code(c)) == 1)
        for lc in range(1, f.q):
            lam = f.from_code(lc)
            e0 = c2.Char2Curve(f, f(0), lam)
            n0 = c2.char2_count(e0)
            n1 = c2.char2_count(c2.char2_twist(e0, alpha))
            if n0 + n1 != 2 ** (n + 1) + 2:
                failures.append(f"n={n}, lambda code {lc}: twist counts sum "
                                f"to {n0 + n1}, not 2^{n + 1}+2")
            if not c2.frobenius_image_check(lam):
                failures.append(f"n={n}, lambda code {lc}: squared-lambda "
                                f"count differs from the image-model count")
    return failures


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
    limit = 121 if scale == "full" else 25
    failures = []
    for q in odd_prime_powers(limit):
        failures.extend(_field_axiom_failures(q))
        f = field_of_order(q)
        failures.extend(verify_group_law(f))
        failures.extend(verify_twist_counts(f))
    # determinism: the same config must render identical bytes whether
    # rows are built serially, in a pool, or on a second run
    qs = list(odd_prime_powers(25))
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
    return failures


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
        failures = fn(scale)
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
        return _odd_primes(args.p_max)
    if cmd == "char2":
        if (args.n is None) == (args.n_max is None):
            parser.error("give exactly one of --n / --n-max")
        return [args.n] if args.n is not None else list(range(1, args.n_max + 1))
    if (args.q is None) == (args.q_max is None):
        parser.error("give exactly one of --q / --q-max")
    if args.q is not None:
        _require_odd_prime_power(args.q, parser)
        return [args.q]
    return list(odd_prime_powers(args.q_max))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-all":
        return run_verify_all(args.scale, args.out)
    try:
        values = _resolve_values(args, parser)
        config = RunConfig(
            command=args.command,
            values=values,
            fmt=args.format,
            out=args.out,
            jobs=args.jobs,
            cap=args.cap,
            aux_cap=getattr(args, "aux_cap", stats.DEFAULT_AUX_CAP),
            lam=getattr(args, "lam", None),
            beta=getattr(args, "beta", 0),
        )
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        rows = _build_rows(config)
    except EnumerationCapError as exc:
        sys.stderr.write(f"range exceeds the enumeration cap: {exc}\n")
        return EXIT_USAGE
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(f"invariant failure: {exc}\n")
        return EXIT_INVARIANT
    _emit(render(rows, config.fmt, config.command), config.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
