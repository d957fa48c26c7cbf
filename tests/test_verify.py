"""Tests of the cross-validation report sections."""

from dyckpeaks import verify
from dyckpeaks.paths import StatKind, build_table, parse_path, psi
from dyckpeaks.verify import VerifyReport, _check_bijection, _check_three_way


def test_sum_rule_section_names_the_corrupted_method():
    tables = {method: build_table(4, 2, method) for method in ("enum", "dp", "gf")}
    tables["dp"].entries[(3, 1, 0, StatKind.PEAK)] += 1
    report = VerifyReport()
    _check_three_way(report, tables, 4, 2)
    sum_rule = report.lines[report.lines.index("== sum rule: occurrence counts partition all paths =="):]
    assert [line for line in sum_rule if line.startswith("FAIL")] == [
        "FAIL method dp: sum over r at (n=3, k=1, kind=peak) is 6, expected 5"
    ]
    assert not report.passed


def test_bijection_section_names_the_first_failure_in_k_major_order(monkeypatch):
    # Two corrupted images: a small path at k = 3 and a larger one at k = 2.
    # Returning the input breaks the exchange on each path, and the
    # involution on its true partner, which comes later in enumeration order.
    # A sweep over every path for k = 2 before k = 3 meets the larger one
    # first, so that is the only counterexample the section may name.
    small, large = parse_path("UUUDDD"), parse_path("UUDDUDUDUD")
    corrupted = {(small, 3), (large, 2)}

    def fake_psi(path, k):
        return path if (path, k) in corrupted else psi(path, k)

    monkeypatch.setattr(verify, "psi", fake_psi)
    report = VerifyReport()
    _check_bijection(report, 12, 14)
    assert [line for line in report.lines if line.startswith("FAIL")] == [
        "FAIL statistics not exchanged at k=2, path UUDDUDUDUD"
    ]
    assert report.failures == 1
