"""Tests of the cross-validation report sections."""

import gc
import tracemalloc
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_paths import dyck_paths
from test_series import check_value_type

from dyckpeaks import paths, verify
from dyckpeaks.cfrac import _marked_fraction, catalan_cfrac, lemma_rhs, peak_bivar_cfrac
from dyckpeaks.gfcount import stat_family, valley0_closed_count
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
from dyckpeaks.series import BivarSeries, InvariantError
from dyckpeaks.verify import (
    VerifyReport,
    _check_bijection,
    _check_cfrac,
    _check_lemma,
    _check_mark_convention,
    _check_peak1_printed,
    _check_three_way,
    _check_valley0_binomial,
    _sweep,
)


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


def _path_code(steps: tuple[int, ...], weights: list[int]) -> int:
    """The steps read as a binary number behind a leading 1, up-steps as 1s.

    ``weights`` are the powers of two 2^(2n - 1), ..., 2, 1 for the
    semilength n at hand. The leading 1 keeps a path of any other length
    from sharing a code with a semilength-n path. This is the independent
    route's coder: the certificate's walk builds its codes bit by bit.
    """
    if len(steps) != len(weights):
        weights = [1 << i for i in range(len(steps) - 1, -1, -1)]
    return (sum(map(mul, steps, weights)) + (3 << len(steps)) - 1) >> 1


def _steps_of(code: int) -> tuple[int, ...]:
    """The steps of a path from its code: the bits behind the leading 1."""
    return tuple(UP if bit == "1" else DOWN for bit in bin(code)[3:])


def _packed(n: int, code: int, image: int, peaks: int, valleys: int) -> int:
    """A certificate record for semilength n: the code and the image in
    2n + 1 bits each, then the two counts in n.bit_length() bits each."""
    width, bits = 2 * n + 1, n.bit_length()
    return ((code << width | image) << 2 * bits) + (peaks << bits) + valleys


def _fields(n: int, record: int) -> tuple[int, int, int, int]:
    """The (code, image, peaks, valleys) that ``_packed`` packed."""
    width, bits = 2 * n + 1, n.bit_length()
    counts, mask = (1 << bits) - 1, (1 << width) - 1
    return record >> width + 2 * bits, record >> 2 * bits & mask, record >> bits & counts, record & counts


def substitute_turn(monkeypatch, fake):
    """Make ``fake`` the step-level turn seen by the public ``psi`` that
    names the certificate's counterexample, and by the certificate itself.

    The certificate's walk turns no steps, so its records are faked after
    the walk: where ``fake`` turns a path's steps otherwise than the true
    ``_turn``, the path's record and swapped record are packed again with
    the fake image's code. ``fake`` is called once per path of each (n, k)
    sweep, in the sweep's order, then by ``psi``.
    """
    monkeypatch.setattr(paths, "_turn", fake)
    sweep = verify._sweep

    def faked_sweep(n, k):
        records, swapped = sweep(n, k)
        weights = [1 << i for i in range(2 * n - 1, -1, -1)]
        for j, record in enumerate(records):
            code, _, peaks, valleys = _fields(n, record)
            steps = _steps_of(code)
            image = fake(steps, k)
            if image != _turn(steps, k):
                image_code = _path_code(image, weights)
                records[j] = _packed(n, code, image_code, peaks, valleys)
                swapped[j] = _packed(n, image_code, code, valleys, peaks)
        return records, swapped

    monkeypatch.setattr(verify, "_sweep", faked_sweep)


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


def test_bijection_section_calls_no_turn_psi_or_statistics_when_it_passes(monkeypatch):
    # 197 paths with n <= 6, four heights each: the walk keeps each path's
    # pairs by start height, turns them at its leaf once per k and tallies
    # its corners itself, and the second application and the image's counts
    # are read back from the image's own leaf. A passing section never
    # calls _turn, the public psi or statistics. The counter goes on
    # paths._turn directly, since substitute_turn itself calls its turn
    # once per (path, k).
    calls = {"_turn": 0, "psi": 0, "statistics": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(paths, "_turn", counting("_turn", _turn))
    monkeypatch.setattr(verify, "psi", counting("psi", psi))
    monkeypatch.setattr(verify, "statistics", counting("statistics", statistics))
    report = VerifyReport()
    _check_bijection(report, 6)
    assert calls == {"_turn": 0, "psi": 0, "statistics": 0}
    assert report.lines[-1] == (
        "PASS involution and (peaks at k) <-> (valleys at k-2) exchange hold on "
        "788 (path, k) cases, n <= 6, k in 2..5"
    )


def test_bijection_section_builds_no_path_object(monkeypatch):
    # the walk codes the 197 paths with n <= 6 and their 788 images from
    # their steps, and the swap check validates the images: a passing section
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


@settings(deadline=None, max_examples=50)
@given(dyck_paths(300, min_semilength=50), st.integers(2, 8))
def test_turn_flips_the_two_bits_of_each_peak_at_k_and_valley_at_k_minus_2(path, k):
    # past the enumeration guard: the image's code is the path's code XOR
    # 3 << position for each corner whose pair starts at k - 1, the bits the
    # walk keeps at that start height, here found by a scan of the steps
    steps = path.steps
    weights = [1 << i for i in range(len(steps) - 1, -1, -1)]
    mask, h = 0, 0
    for t in range(1, len(steps)):
        h += steps[t - 1]  # the corner between steps t - 1 and t
        if (steps[t - 1], steps[t], h) in ((UP, DOWN, k), (DOWN, UP, k - 2)):
            mask ^= 3 << (len(steps) - 1 - t)
    assert _path_code(_turn(steps, k), weights) == _path_code(steps, weights) ^ mask


def test_the_turn_rule_is_one_definition_for_psi_and_the_certificate(monkeypatch):
    # A rule one level too high turns the pairs that start at height k. Only
    # paths._turn_start is patched: psi turns the peak at 3 of UUUDDD at
    # k = 2 into a valley at 1, and the certificate fails at k = 2 on UUDD,
    # which no pair starting at 2 changes: its peak at 2 stays, and its
    # image has no valley at 0.
    monkeypatch.setattr(paths, "_turn_start", lambda k: k)
    assert str(psi(parse_path("UUUDDD"), 2)) == "UUDUDD"
    report = VerifyReport()
    _check_bijection(report, 4)
    assert failures(report) == ["FAIL statistics not exchanged at k=2, path UUDD"]


@pytest.mark.parametrize("n", range(11))
def test_sweep_equals_the_arrays_of_enumerated_paths(n):
    # the independent route: enumerate_paths, statistics, _path_code and
    # _turn on every path, in ascending order of the path's code; each
    # record decodes to (code, image, peaks at k, valleys at k - 2) and its
    # swapped record to (image, code, valleys, peaks)
    weights = [1 << i for i in range(2 * n - 1, -1, -1)]
    paths_of_n = sorted((_path_code(path.steps, weights), path) for path in enumerate_paths(n))
    for k in range(2, 6):
        rows = []
        for code, path in paths_of_n:
            profile = statistics(path)
            image = _path_code(_turn(path.steps, k), weights)
            rows.append((code, image, profile.count(StatKind.PEAK, k), profile.count(StatKind.VALLEY, k - 2)))
        records, swapped = _sweep(n, k)
        assert [_fields(n, record) for record in records] == rows, k
        assert [_fields(n, record) for record in swapped] == [(m, c, v, p) for c, m, p, v in rows], k


@pytest.mark.parametrize("n", range(9))
def test_sweep_is_the_same_at_every_junction(monkeypatch, n):
    # the prefix walk of paths._split_walk may stop at any number of
    # up-steps left: every split joins prefixes and suffixes at another
    # height, with either last step
    ks = range(2, 6)
    expected = [_sweep(n, k) for k in ks]
    for split in range(n + 1):
        monkeypatch.setattr(paths, "_SPLIT", split)
        assert [_sweep(n, k) for k in ks] == expected, split


@pytest.mark.parametrize(
    "rule, off_walk",
    [(lambda k: k - 2, False), (lambda k: k, False), (lambda k: -1, True), (lambda k: 50, True)],
    ids=["k-2", "k", "-1", "50"],
)
def test_sweep_turns_the_pairs_that_the_step_kernel_turns_under_any_rule(monkeypatch, rule, off_walk):
    # The walk reads the rule once per k and the step kernel once per call;
    # under a patched rule each image's code is still that of _turn's steps.
    # A start below the axis or above every height turns nothing, and must
    # not wrap to another height's pairs.
    monkeypatch.setattr(paths, "_turn_start", rule)
    for n in range(9):
        weights = [1 << i for i in range(2 * n - 1, -1, -1)]
        for k in range(2, 6):
            records, swapped = _sweep(n, k)
            codes, image_codes = zip(*(_fields(n, record)[:2] for record in records))
            expected = [_path_code(_turn(_steps_of(code), k), weights) for code in codes]
            assert list(image_codes) == expected, (n, k)
            assert [_fields(n, record)[:2] for record in swapped] == list(zip(image_codes, codes)), (n, k)
            if off_walk:
                assert image_codes == codes, (n, k)


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
    # semilength changes. The longer step list is valid, so only the swap
    # check, where no semilength-3 code matches its code, rejects it.
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


def test_enumeration_and_certificate_free_their_tables_without_the_cyclic_gc():
    # the recursive closures of both walks refer to themselves; once a walk
    # ends, its suffix lists must go by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for n in range(9):
            paths._enum_codes(n, range(min(5, n) + 1))
        report = VerifyReport()
        _check_bijection(report, 8)
        assert report.passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def bumped(family, r):
    """``family`` with 1 added to the constant term of entry r, if any."""
    return tuple(series + 1 if i == r else series for i, series in enumerate(family))


def test_lemma_section_names_the_first_height_where_the_closed_form_disagrees(monkeypatch):
    def perturbed(k, *args):
        closed = lemma_rhs(k, *args)
        return closed + 1 if k == 3 else closed

    monkeypatch.setattr(verify, "lemma_rhs", perturbed)
    report = VerifyReport()
    _check_lemma(report, 8, 2)
    assert report.lines == [
        "== closed form vs direct evaluation of the marked fraction ==",
        "FAIL closed form disagrees with direct evaluation at k=3",
    ]
    assert report.failures == 1


@pytest.mark.parametrize(
    "name, perturb, line",
    [
        (
            "catalan_cfrac",
            lambda depth, order: catalan_cfrac(depth, order) + 1,
            "FAIL uniform fraction does not reproduce the path series",
        ),
        (
            "stat_family",
            lambda kind, k, order, r_max: bumped(stat_family(kind, k, order, r_max), 1 if k == 2 else None),
            "FAIL k=2: z^1 slice disagrees with the peak series",
        ),
        (
            # a term above the compared slices: only the z = 1 sum changes
            "peak_bivar_cfrac",
            lambda k, x_order, z_order: peak_bivar_cfrac(k, x_order, z_order)
            + BivarSeries.monomial(int(k == 4), 0, 3, z_order, x_order),
            "FAIL k=4: substituting z=1 does not recover the path series",
        ),
    ],
    ids=["catalan_cfrac", "stat_family", "peak_bivar_cfrac"],
)
def test_cfrac_section_fails_the_one_perturbed_check(monkeypatch, name, perturb, line):
    monkeypatch.setattr(verify, name, perturb)
    report = VerifyReport()
    _check_cfrac(report, 8, 2)
    assert failures(report) == [line]
    assert report.failures == 1
    assert len(report.lines) == 10  # the title and nine checks


def test_peak1_section_prints_the_implemented_form_that_disagrees_with_the_oracle(monkeypatch):
    monkeypatch.setattr(
        verify, "stat_family", lambda kind, k, order, r_max: bumped(stat_family(kind, k, order, r_max), 2)
    )
    report = VerifyReport()
    _check_peak1_printed(report, 6, 3, build_table(6, 1, "enum"))
    i = report.lines.index("FAIL r=2: implemented form disagrees with the enumeration oracle")
    assert report.lines[i + 1 : i + 3] == [
        "     implemented: [1, 0, 1, 0, 3, 6, 21]",
        "     oracle:      [0, 0, 1, 0, 3, 6, 21]",
    ]
    assert failures(report) == [report.lines[i]]
    assert report.failures == 1


def test_valley0_section_stops_at_the_first_wrong_extraction(monkeypatch):
    monkeypatch.setattr(
        verify, "valley0_closed_count", lambda n, r: valley0_closed_count(n, r) + ((n, r) == (3, 1))
    )
    report = VerifyReport()
    _check_valley0_binomial(report, 6, 2, build_table(6, 0, "enum"))
    assert report.lines[-2:] == [
        "     n= 3 r=1:          3 |        2/3 |          2   <- literal differs",
        "FAIL coefficient extraction wrong at n=3, r=1",
    ]
    assert report.failures == 1


def test_mark_convention_section_fails_a_raw_slice_off_the_peak_series(monkeypatch):
    def perturbed(depth, mark, tail):
        raw = _marked_fraction(depth, mark, tail)
        return raw + BivarSeries.monomial(1, 0, 1, raw.z_order, raw.x_order)

    monkeypatch.setattr(verify, "_marked_fraction", perturbed)
    report = VerifyReport()
    _check_mark_convention(report, 8, 2)
    assert report.lines == [
        "== discrepancy check: raw mark z vs semilength mark x*z ==",
        "FAIL raw-mark slices do not reduce to the peak series after the x^r shift",
    ]
    assert report.failures == 1


def test_verify_report_is_a_mutable_value():
    check_value_type(
        VerifyReport, {"lines": ["PASS a"], "failures": 1, "warnings": 2}, VerifyReport(),
        "VerifyReport(lines=['PASS a'], failures=1, warnings=2)", frozen=False,
    )
    report, other = VerifyReport(), VerifyReport()
    assert repr(report) == "VerifyReport(lines=[], failures=0, warnings=0)"
    assert report.lines is not other.lines  # each report gets its own list
    report.fail("x")
    assert report != other and report == VerifyReport(["FAIL x"], failures=1)
    report.failures = 0
    assert report.passed and report == VerifyReport(lines=["FAIL x"])
