"""Acceptance gate: every stated criterion at full scale.

Each test runs the corresponding verify-all suite (shared with the CLI)
plus an independent spot check, and prints one pass/fail line.  All
criteria are exact identities; the timed ones also enforce their
wall-clock budgets.
"""

import json
import time

from legcurves import classify, cli, stats, supersingular
from legcurves.char2 import Char2Curve, char2_count
from legcurves.curve import count_four_torsion, legendre, verify_class_sizes
from legcurves.field import field_of_order, make_field


def _run(suite):
    """The failures of a verify-all suite at full scale; a suite that
    checked no case fails."""
    failures, cases = suite("full")
    return failures if cases else failures + ["checked no cases"]


def _gate(num, name, failures, elapsed=None, bound=None):
    ok = not failures and (bound is None or elapsed < bound)
    print(f"[acceptance] criterion {num} ({name}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert not failures, failures[:5]
    if bound is not None:
        assert elapsed < bound, f"{elapsed:.1f}s over the {bound}s budget"


def test_criterion_01_isogeny_window():
    t0 = time.monotonic()
    failures = _run(cli.suite_isogeny_window)
    elapsed = time.monotonic() - t0
    # independent set-equality reading for one plain q and one square q
    for q, removed in ((27, set()), (25, {36})):
        records = classify.census(q)
        divisible = {r.n for r in records if r.attained and r.n % 4 == 0}
        witnessed = {r.n for r in records if r.legendre_witnesses}
        if divisible - removed != witnessed:
            failures.append(f"q={q}: set mismatch")
    _gate(1, "isogeny window, q <= 729", failures, elapsed, 300)


def test_criterion_01_census_over_gf_3_7(tmp_path):
    # GF(3^7): many counts are attained by no curve, so every class matters
    out = tmp_path / "classify.json"
    t0 = time.monotonic()
    code = cli.main(["classify", "--q", "2187", "--out", str(out)])
    elapsed = time.monotonic() - t0
    failures = [] if code == 0 else [f"classify --q 2187 exited {code}"]
    attained = {r["N"] for r in json.loads(out.read_text()) if r["attained"]}
    if attained != classify._waterhouse_counts(3, 7):
        failures.append("q=2187: attained set differs from Waterhouse's")
    _gate(1, "census of GF(3^7) against Waterhouse", failures, elapsed, 2)


def test_criterion_02_exceptional_counts():
    failures = _run(cli.suite_exceptional_counts)
    rec = next(r for r in classify.census(81) if r.n == 100)
    if not (rec.attained and not rec.legendre_witnesses):
        failures.append("q=81: the count 100 is not a strict exception")
    _gate(2, "exceptional square counts", failures)


def test_criterion_03_count_sum():
    t0 = time.monotonic()
    failures = _run(cli.suite_count_sum)
    elapsed = time.monotonic() - t0
    aux = stats.auxiliary_counts(343)
    if aux[0] != 343 * 343 or aux[1] != 344 or aux[2] != 342:
        failures.append(f"q=343: enumeration cross-check got {aux}")
    _gate(3, "family count sum, q <= 1000", failures, elapsed, 120)


def test_criterion_04_supersingular_roots():
    failures = _run(cli.suite_supersingular_roots)
    if len(supersingular.supersingular_lambdas(199).roots) != 99:
        failures.append("p=199: root count is not (p-1)/2")
    _gate(4, "supersingular roots and eighth powers, p <= 300", failures)


def test_criterion_05_root_count_formula():
    t0 = time.monotonic()
    failures = _run(cli.suite_root_count_formula)
    elapsed = time.monotonic() - t0
    s = supersingular.supersingular_prime_field_count(491)
    if s != 3 * supersingular.class_number(491):
        failures.append(f"p=491: {s} prime-field roots vs class-number "
                        f"prediction")
    _gate(5, "prime-field root count formula, p <= 500", failures,
          elapsed, 60)


def test_criterion_06_supersingular_structure():
    failures = _run(cli.suite_supersingular_structure)
    t = supersingular.supersingular_lambdas(31)
    e = legendre(t.roots[0].field, t.roots[0])
    if e.group_structure() != (32, 32):
        failures.append("p=31: first supersingular group is not (32, 32)")
    _gate(6, "supersingular group structure, p <= 43", failures)


def test_criterion_07_four_torsion():
    failures = _run(cli.suite_four_torsion)
    f17 = field_of_order(17)
    if count_four_torsion(legendre(f17, f17(16))) != 16:
        failures.append("q=17, lambda=16: full four-torsion expected")
    _gate(7, "four-torsion equivalence, q <= 121", failures)


def test_criterion_08_descent_and_classes():
    failures = _run(cli.suite_descent_and_classes)
    failures.extend(verify_class_sizes(field_of_order(83)))
    _gate(8, "descent kernel and isomorphism classes", failures)


def test_criterion_09_char2():
    failures = _run(cli.suite_char2)
    f = make_field(2, 10)
    if char2_count(Char2Curve(f, f(0), f.from_code(1023))) % 4:
        failures.append("n=10: trace-zero class count not divisible by 4")
    _gate(9, "char-2 divisibility and image counts, n <= 10", failures)


def test_criterion_10_infrastructure():
    failures = _run(cli.suite_infrastructure)
    _gate(10, "determinism and algebra suites, q <= 121", failures)
