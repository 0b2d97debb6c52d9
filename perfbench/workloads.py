"""Seeded, stratified inputs and the user actions of each workload.

A workload is a fixed list of actions (one CLI command, or one chunk of
a verify-all suite called through the public functions).  The seed
draws every field and parameter from fixed size strata, so any seed
gives comparable work; legcurves only ever sees the generated inputs.

Every action names the metric its time feeds, the number of curves it
counts or checks (a function of its inputs alone), a call that does the
library work, and a check of what the call returned (see checks.py).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from typing import Callable

from legcurves import char2, cli, curve, field, supersingular

import checks

WORKLOADS = ("tables-prime", "tables-ext", "oracles")

CENSUS_Q_MAX = 200
CLASSIFY_PRIMES = (503, 619, 809, 1013)

# Caches that outlive a call.  Captured before any tracing wrapper is
# installed, so they always name the real lru_cache objects.
_CACHES = (field._make_field, supersingular.supersingular_lambdas)


def reset_caches():
    """Drop interned fields (and with them every lookup table) and the
    supersingular tables, so each action pays its own set-up the way a
    fresh CLI process does."""
    for c in _CACHES:
        c.cache_clear()


@dataclass
class Action:
    metric: str                      # e.g. "cmd.count_s"
    label: str                       # human-readable, replayable
    curves: int                      # curves counted or checked
    call: Callable[[], object]
    check: Callable[[object], list]


def _primes(lo, hi):
    return [p for p in range(lo, hi) if checks.is_prime(p)]


def _draw(rng, pool):
    return pool[rng.randrange(len(pool))]


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _cli_action(metric, argv, curves, check):
    def checked(result):
        rc, text = result
        if rc != 0:
            return [f"exit code {rc}"]
        return check(text)
    return Action(metric, "legcurves " + " ".join(argv), curves,
                  lambda: _run_cli(argv), checked)


def _count(q):
    return _cli_action("cmd.count_s", ["count", "--q", str(q)], q - 2,
                       lambda text: checks.check_counts(q, text))


def _stats(q, aux_cap=None):
    argv = ["stats", "--q", str(q)]
    cap = 343  # the CLI default
    if aux_cap is not None:
        argv += ["--aux-cap", str(aux_cap)]
        cap = aux_cap
    return _cli_action("cmd.stats_s", argv, q - 2,
                       lambda text: checks.check_stats(q, cap, text))


def _classify(q):
    return _cli_action("cmd.classify_s", ["classify", "--q", str(q)], q - 2,
                       lambda text: checks.check_classify(q, text))


def _census_pair(q_max, jobs):
    """census once serially and once pooled; the pooled bytes must equal
    the serial bytes."""
    curves = sum(q - 2 for q in checks.odd_prime_powers(q_max))
    serial = {}

    def check_serial(text):
        serial["text"] = text
        return checks.check_census(q_max, text)

    def check_pooled(text):
        failures = checks.check_census(q_max, text)
        if text != serial.pop("text", None):
            failures.append(f"--jobs {jobs} output differs from --jobs 1")
        return failures

    argv = ["census", "--q-max", str(q_max)]
    return [
        _cli_action("cmd.census_jobs1_s", argv + ["--jobs", "1"], curves,
                    check_serial),
        _cli_action("cmd.census_s", argv + ["--jobs", str(jobs)], curves,
                    check_pooled),
    ]


def _failures_of(result):
    """Flatten the failure lists a verify_* call returns."""
    return [msg for part in result for msg in part]


def _algebra(q):
    def call():
        f = field.field_of_order(q)
        return (curve.verify_group_law(f), curve.verify_twist_counts(f))
    # 40 group-law curves; per lambda the literal twist count and the
    # square twist; 5 lambdas against every non-square twist
    curves = 40 + 2 * (q - 2) + 5 * (q - 1) // 2
    return Action("suite.algebra_s", f"group law + twist counts q={q}",
                  curves, call, _failures_of)


def _four_torsion(q):
    def call():
        return (curve.verify_four_torsion_equivalence(
            field.field_of_order(q)),)
    return Action("suite.four_torsion_s", f"four-torsion q={q}", q - 2,
                  call, _failures_of)


def _descent(q):
    def call():
        f = field.field_of_order(q)
        return (curve.verify_two_descent_kernel(f),
                curve.verify_nonsquare_twist_isomorphism(f))
    monic = q * (q - 1) * (q - 2) // 6
    return Action("suite.descent_s", f"descent + self-twist q={q}",
                  2 * monic + q - 2, call, _failures_of)


def _supersingular(p):
    def call():
        table = supersingular.supersingular_lambdas(p)
        return (table, supersingular.verify_eighth_power(p),
                supersingular.verify_sp_formula(p))
    return Action("suite.supersingular_s",
                  f"supersingular lambdas + eighth powers p={p}", p * p,
                  call, lambda r: checks.check_supersingular(p, *r))


def _ss_structure(p):
    def call():
        return supersingular.verify_ss_structure(p)

    def check(ok):
        return [] if ok is True else [f"p={p}: a supersingular group is "
                                      f"not (d, d)"]
    return Action("suite.supersingular_s", f"supersingular structure p={p}",
                  (p - 1) // 2, call, check)


def _char2_prop(n):
    q = 2 ** n

    def check(ok):
        return [] if ok is True else [f"n={n}: divisibility by 4 does not "
                                      f"follow the trace of beta"]
    literal = (q - 1) * q if q <= 64 else 0
    return Action("suite.char2_s", f"char2 proposition n={n}",
                  2 * (q - 1) + literal,
                  lambda: char2.verify_char2_prop(n), check)


def _char2_twists(n, betas):
    """Per lambda: the curve, its twist by a trace-1 alpha, a seeded beta,
    and the lambda^2 image-model check.  alpha and Tr(beta) come from the
    benchmark's own bit arithmetic."""
    q = 2 ** n
    gf = checks.GF2n(field.make_field(2, n).modulus)
    alpha = next(c for c in range(1, q) if gf.trace(c) == 1)
    traces = [gf.trace(b) for b in betas]

    def call():
        f = field.make_field(2, n)
        out = []
        for lc in range(1, q):
            lam = f.from_code(lc)
            e0 = char2.Char2Curve(f, f(0), lam)
            n0 = char2.char2_count(e0)
            n1 = char2.char2_count(char2.char2_twist(e0, f.from_code(alpha)))
            eb = char2.Char2Curve(f, f.from_code(betas[lc - 1]), lam)
            out.append((n0, n1, char2.char2_count(eb),
                        char2.frobenius_image_check(lam)))
        return out

    def check(result):
        failures = [] if len(result) == q - 1 else [f"n={n}: {len(result)} "
                                                    f"lambdas, expected {q - 1}"]
        for t, counts in zip(traces, result):
            failures += checks.check_char2(n, q, t, *counts)
        return failures
    return Action("suite.char2_s", f"char2 twists + image model n={n}",
                  5 * (q - 1), call, check)


def build(workload, seed):
    """The ordered action list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "tables-prime":
        actions = [
            _count(_draw(rng, _primes(2590, 2650))),
            _count(_draw(rng, _primes(3390, 3450))),
            _stats(_draw(rng, _primes(2950, 3010))),
            _stats(_draw(rng, _primes(930, 990)), aux_cap=1000),
        ]
        # classify's all-curves oracle exits as soon as every count has
        # shown up, so its cost jumps up to 5x between neighbouring primes
        # (617: 1.1 s, 619: 0.22 s).  Drawn primes would swamp every
        # seed-to-seed comparison, so these four are fixed.
        return actions + [_classify(q) for q in CLASSIFY_PRIMES]
    if workload == "tables-ext":
        jobs = min(2, len(os.sched_getaffinity(0)))
        return [
            # legcurves keeps a q x q addition table up to q = 2100 and
            # adds digit-wise above it: one field on each side
            _count(_draw(rng, [1331, 1369])),
            _count(_draw(rng, [2197, 2209])),
            _stats(_draw(rng, [729, 841])),
            _stats(_draw(rng, [243, 289, 343])),      # within the aux cap
        ] + _census_pair(CENSUS_Q_MAX, jobs)
    n7 = 7
    betas = [rng.randrange(2 ** n7) for _ in range(2 ** n7 - 1)]
    return [
        # one extension field, fixed: 121 costs a third more than 81
        _algebra(_draw(rng, _primes(101, 110))),
        _algebra(81),
        _four_torsion(_draw(rng, _primes(61, 74))),
        # fixed: the monic-curve count C(q, 3) behind curves_per_s would
        # vary by 2.4x between q = 31 and q = 41
        _descent(41),
        # the root scan costs about p^3: narrow strata keep seeds comparable
        _supersingular(_draw(rng, _primes(160, 175))),
        _supersingular(_draw(rng, _primes(190, 200))),
        # GF(31^2) sets the workload's peak memory; GF(29^2) would not
        _ss_structure(31),
        _char2_prop(6),
        _char2_twists(n7, betas),
    ]

