"""Tests of the cross-validation report sections."""

from dyckpeaks.paths import StatKind, build_table
from dyckpeaks.verify import VerifyReport, _check_three_way


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
