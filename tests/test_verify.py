"""Tests of the cross-validation report sections."""

import tracemalloc

import pytest

from dyckpeaks import paths, verify
from dyckpeaks.paths import (
    DOWN,
    UP,
    DyckPath,
    StatKind,
    _turn,
    build_table,
    enumerate_paths,
    parse_path,
    psi,
    statistics,
)
from dyckpeaks.series import InvariantError
from dyckpeaks.verify import VerifyReport, _check_bijection, _check_three_way, _path_code, _sweep


def test_sum_rule_section_names_the_corrupted_method():
    tables = {method: build_table(4, 2, method) for method in ("enum", "dp", "gf")}
    tables["dp"].rows[StatKind.PEAK][1][3][0] += 1
    report = VerifyReport()
    _check_three_way(report, tables, 4, 2)
    sum_rule = report.lines[report.lines.index("== sum rule: occurrence counts partition all paths =="):]
    assert [line for line in sum_rule if line.startswith("FAIL")] == [
        "FAIL method dp: sum over r at (n=3, k=1, kind=peak) is 6, expected 5"
    ]
    assert not report.passed


def test_three_way_section_names_the_first_disagreeing_cell():
    # two corrupted cells in two tables: the first in cell order is named,
    # with every method's count there
    tables = {method: build_table(4, 2, method) for method in ("enum", "dp", "gf")}
    tables["dp"].rows[StatKind.PEAK][1][3][0] += 1
    tables["gf"].rows[StatKind.VALLEY][0][4][0] += 1
    report = VerifyReport()
    _check_three_way(report, tables, 4, 2)
    three_way = report.lines[: report.lines.index("== sum rule: occurrence counts partition all paths ==")]
    assert [line for line in three_way if line.startswith("FAIL")] == [
        "FAIL counterexample (n=3, k=1, r=0, kind=peak): enum=2 dp=3 gf=2"
    ]


def substitute_turn(monkeypatch, fake):
    """Make ``fake`` the step-level turn seen by the certificate's sweep and
    by the public ``psi`` that names its counterexample."""
    monkeypatch.setattr(paths, "_turn", fake)
    monkeypatch.setattr(verify, "_turn", fake)


def replacing(images):
    """A turn that returns ``images[(steps, k)]`` where given, else the true
    turn; ``images`` maps a path's steps and k to the steps of its image."""

    def fake(steps, k):
        image = images.get((steps, k))
        return _turn(steps, k) if image is None else list(image)

    return fake


def test_bijection_section_names_the_first_failure_in_k_major_order(monkeypatch):
    # Two corrupted images: a small path at k = 3 and a larger one at k = 2.
    # Returning the input breaks the exchange on each path, and the
    # involution on its true partner, which comes later in enumeration order.
    # A sweep over every path for k = 2 before k = 3 meets the larger one
    # first, so that is the only counterexample the section may name.
    small, large = parse_path("UUUDDD"), parse_path("UUDDUDUDUD")
    substitute_turn(monkeypatch, replacing({(small.steps, 3): small.steps, (large.steps, 2): large.steps}))
    report = VerifyReport()
    _check_bijection(report, 12)
    assert [line for line in report.lines if line.startswith("FAIL")] == [
        "FAIL statistics not exchanged at k=2, path UUDDUDUDUD"
    ]
    assert report.failures == 1


def failures(report):
    return [line for line in report.lines if line.startswith("FAIL")]


def test_bijection_section_calls_psi_once_per_path_and_k(monkeypatch):
    # 197 paths with n <= 6, four heights each: the walk turns each path's
    # steps once per k and tallies its corners itself, and the second
    # application and the image's counts are read back from the image's own
    # leaf. A passing section never calls the public psi or statistics.
    calls = {"_turn": 0, "psi": 0, "statistics": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    substitute_turn(monkeypatch, counting("_turn", _turn))
    monkeypatch.setattr(verify, "psi", counting("psi", psi))
    monkeypatch.setattr(verify, "statistics", counting("statistics", statistics))
    report = VerifyReport()
    _check_bijection(report, 6)
    assert calls == {"_turn": 788, "psi": 0, "statistics": 0}
    assert report.lines[-1] == (
        "PASS involution and (peaks at k) <-> (valleys at k-2) exchange hold on "
        "788 (path, k) cases, n <= 6, k in 2..5"
    )


def test_bijection_section_builds_no_path_object(monkeypatch):
    # the walk codes the 197 paths with n <= 6 and their 788 images from
    # their steps, and the lookup validates the images: a passing section
    # builds no DyckPath and never enumerates
    built = []
    post_init = DyckPath.__post_init__

    def counting(self):
        built.append(self.steps)
        post_init(self)

    def refused(n):
        raise AssertionError("the section enumerated paths")

    monkeypatch.setattr(DyckPath, "__post_init__", counting)
    monkeypatch.setattr(verify, "enumerate_paths", refused)
    report = VerifyReport()
    _check_bijection(report, 6)
    assert report.passed
    assert len(built) == 0


@pytest.mark.parametrize("n", range(11))
def test_sweep_equals_the_arrays_of_enumerated_paths(n):
    # the independent route: enumerate_paths, statistics, _path_code and
    # _turn on every path, in ascending order of the path's code
    ks = range(2, 6)
    weights = [1 << i for i in range(2 * n - 1, -1, -1)]
    rows = []
    for path in enumerate_paths(n):
        profile = statistics(path)
        rows.append(
            [_path_code(path.steps, weights)]
            + [_path_code(_turn(path.steps, k), weights) for k in ks]
            + [profile.count(StatKind.PEAK, k) for k in ks]
            + [profile.count(StatKind.VALLEY, k - 2) for k in ks]
        )
    codes, images, peaks, valleys = _sweep(n, ks)
    assert [list(codes), *map(list, images), *map(list, peaks), *map(list, valleys)] == [
        list(column) for column in zip(*sorted(rows))
    ]


def test_bijection_section_checks_an_image_outside_the_table_directly(monkeypatch):
    # UUDUDD has no peak at 5 and no valley at 3, so psi fixes it at k = 5;
    # the fake sends it to a longer path, which no semilength-3 code matches
    fixed = parse_path("UUDUDD")
    seen = []

    def fake_turn(steps, k):
        seen.append(("".join("U" if s == UP else "D" for s in steps), k))
        return [UP, *steps, DOWN] if (steps, k) == (fixed.steps, 5) else _turn(steps, k)

    substitute_turn(monkeypatch, fake_turn)
    report = VerifyReport()
    _check_bijection(report, 8)
    assert failures(report) == ["FAIL not an involution at k=5, path UUDUDD"]
    assert report.failures == 1
    assert ("UUUDUDDD", 5) in seen  # the direct second application


def test_bijection_section_names_a_two_to_one_image_in_k_major_order(monkeypatch):
    # Two semilength-4 paths share an image at k = 3, and two semilength-6
    # paths share one at k = 2. The true partner of the second path of each
    # pair loses its involution; the k = 2 one is named although its
    # semilength comes later.
    shared = {}
    for first, second, k in (("UUUDDDUD", "UDUUUDDD", 3), ("UUDDUUDDUUDD", "UDUDUDUDUDUD", 2)):
        image = psi(parse_path(first), k).steps
        shared[(parse_path(first).steps, k)] = shared[(parse_path(second).steps, k)] = image
    assert str(psi(parse_path("UDUDUDUDUDUD"), 2)) == "UUDUDUDUDUDD"

    substitute_turn(monkeypatch, replacing(shared))
    report = VerifyReport()
    _check_bijection(report, 8)
    assert failures(report) == ["FAIL not an involution at k=2, path UUDUDUDUDUDD"]


def test_bijection_section_checks_both_counts_of_the_exchange(monkeypatch):
    # Swapping UUUDDD with UDUDUD at k = 2 keeps the involution and the
    # count of peaks at 2 (none on either), but UUUDDD has no valley at 0
    # where UDUDUD has two.
    a, b = parse_path("UUUDDD").steps, parse_path("UDUDUD").steps
    substitute_turn(monkeypatch, replacing({(a, 2): b, (b, 2): a}))
    report = VerifyReport()
    _check_bijection(report, 4)
    assert failures(report) == ["FAIL statistics not exchanged at k=2, path UUUDDD"]


def test_bijection_section_fails_an_image_of_another_semilength(monkeypatch):
    # UUDUDD and UUUDUDDD have no peak at 5 and no valley at 3, so swapping
    # them at k = 5 keeps the involution and both counts; only the
    # semilength changes. The longer step list is valid, so only the lookup
    # among the semilength's codes rejects it.
    a, b = parse_path("UUDUDD").steps, parse_path("UUUDUDDD").steps
    substitute_turn(monkeypatch, replacing({(a, 5): b, (b, 5): a}))
    report = VerifyReport()
    _check_bijection(report, 8)
    assert failures(report) == ["FAIL image of another semilength at k=5, path UUDUDD"]
    assert report.failures == 1


def test_bijection_section_refuses_a_failure_direct_calls_do_not_repeat(monkeypatch):
    # a turn that sends the empty path to UD on its first call only: the
    # arrays fail semilength 0, and the direct calls find no path to name
    calls = []

    def first_call_wrong(steps, k):
        calls.append(steps)
        return [UP, DOWN] if len(calls) == 1 else _turn(steps, k)

    substitute_turn(monkeypatch, first_call_wrong)
    with pytest.raises(InvariantError, match="psi at k=2 failed on semilength 0"):
        _check_bijection(VerifyReport(), 2)


def test_bijection_section_keeps_no_path_objects():
    # flat arrays per semilength: a dict of images would hold megabytes
    report = VerifyReport()
    tracemalloc.start()
    try:
        _check_bijection(report, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 512 * 1024
