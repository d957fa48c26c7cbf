"""Tests for explicit paths, statistics, oracles, and the two rewrites."""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_series import check_value_type

from dyckpeaks import paths
from dyckpeaks.gfcount import stat_gf, valley0_closed_count
from dyckpeaks.paths import (
    CountTable,
    DOWN,
    DyckPath,
    PathError,
    StatKind,
    StatProfile,
    UP,
    _dp_distribution,
    _turn,
    bounded_height_count,
    build_table,
    count_exact_dp,
    count_exact_enum,
    enumerate_paths,
    parse_path,
    psi,
    statistics,
    theta_forward,
    theta_inverse,
)
from dyckpeaks.series import InvariantError

CATALAN = [1]
for _n in range(1, 15):
    CATALAN.append(sum(CATALAN[i] * CATALAN[_n - 1 - i] for i in range(_n)))


# Long enough to reach far past the enumeration guard.
LONG = 200


@st.composite
def dyck_paths(draw, max_semilength=7, min_semilength=0):
    n = draw(st.integers(min_value=min_semilength, max_value=max_semilength))
    ups_left, h = n, 0
    steps = []
    while len(steps) < 2 * n:
        if ups_left == 0:
            up = False
        elif h == 0:
            up = True
        else:
            up = draw(st.booleans())
        if up:
            ups_left -= 1
            h += 1
            steps.append(UP)
        else:
            h -= 1
            steps.append(DOWN)
    return DyckPath(tuple(steps))


# -- parsing and validation -------------------------------------------------


def test_parse_basic():
    assert parse_path("UUDD").steps == (UP, UP, DOWN, DOWN)
    assert parse_path("UUDD").semilength == 2


def test_parse_alphabets_and_whitespace():
    assert parse_path("(()())").to_text() == "UUDUDD"
    assert parse_path(" u U d D ").to_text() == "UUDD"
    assert parse_path("").steps == ()


def test_parse_below_axis_reports_index():
    with pytest.raises(PathError) as exc:
        parse_path("UDD")
    assert exc.value.index == 2


def test_parse_alien_character_reports_index():
    with pytest.raises(PathError) as exc:
        parse_path("UUxDD")
    assert exc.value.index == 2


def test_parse_unbalanced_reports_first_unmatched_up():
    with pytest.raises(PathError) as exc:
        parse_path("UUD")
    assert exc.value.index == 0


def test_direct_construction_validates():
    with pytest.raises(PathError):
        DyckPath((DOWN, UP))
    with pytest.raises(PathError):
        DyckPath((UP,))
    with pytest.raises(PathError):
        DyckPath((UP, 2))


def test_steps_that_equal_a_unit_but_are_no_int_are_refused():
    # 1.0, True and Fraction(1) all compare equal to UP, and would put
    # floats and bools into the statistics; the message names the first one
    cases = [
        ((1.0, 1.0, -1.0, -1.0), "step must be +1 or -1, got 1.0 (index 0)"),
        ((True, DOWN), "step must be +1 or -1, got True (index 0)"),
        ((Fraction(1), DOWN), "step must be +1 or -1, got Fraction(1, 1) (index 0)"),
        ((UP, -1.0), "step must be +1 or -1, got -1.0 (index 1)"),
        ((UP, False), "step must be +1 or -1, got False (index 1)"),
    ]
    for steps, message in cases:
        with pytest.raises(PathError) as exc:
            DyckPath(steps)
        assert str(exc.value) == message, steps


def test_list_input_is_stored_as_the_validated_tuple():
    path = DyckPath([UP, DOWN])
    assert type(path.steps) is tuple
    assert path == DyckPath((UP, DOWN))
    assert hash(path) == hash(DyckPath((UP, DOWN)))


def test_path_and_profile_are_frozen_values():
    check_value_type(
        DyckPath, {"steps": (UP, UP, DOWN, DOWN)}, DyckPath((UP, DOWN, UP, DOWN)),
        "DyckPath(steps=(1, 1, -1, -1))",
    )
    # a profile holds dicts, so, frozen as it is, it has no hash
    check_value_type(
        StatProfile,
        {"peaks_by_height": {1: 1, 2: 1}, "valleys_by_height": {0: 1}, "max_height": 2},
        statistics(parse_path("UUDUDD")),
        "StatProfile(peaks_by_height={1: 1, 2: 1}, valleys_by_height={0: 1}, max_height=2)",
        hashable=False,
    )
    assert statistics(parse_path("UDUUDD")) == StatProfile({1: 1, 2: 1}, {0: 1}, 2)


def test_count_table_is_a_mutable_value():
    table = build_table(1, 0, "dp")
    check_value_type(
        CountTable, {"rows": table.rows}, build_table(2, 0, "dp"),
        "CountTable(rows={<StatKind.PEAK: 'peak'>: [[[1], [1, 0]]], "
        "<StatKind.VALLEY: 'valley'>: [[[1], [1, 0]]]})",
        frozen=False,
    )
    table.rows = {}
    assert table == CountTable({}) and repr(table) == "CountTable(rows={})"


# -- statistics ---------------------------------------------------------------


def test_statistics_examples():
    profile = statistics(parse_path("UUDUDD"))
    assert profile.peaks_by_height == {2: 2}
    assert profile.valleys_by_height == {1: 1}
    assert profile.max_height == 2

    profile = statistics(parse_path("UDUD"))
    assert profile.peaks_by_height == {1: 2}
    assert profile.valleys_by_height == {0: 1}


def test_statistics_empty_path():
    profile = statistics(DyckPath(()))
    assert profile.peaks_by_height == {}
    assert profile.valleys_by_height == {}
    assert profile.max_height == 0


@settings(deadline=None)
@given(dyck_paths())
def test_every_nonempty_path_has_a_peak_and_none_at_height_0(path):
    profile = statistics(path)
    if path.steps:
        assert sum(profile.peaks_by_height.values()) >= 1
    assert 0 not in profile.peaks_by_height
    assert all(count > 0 for count in profile.peaks_by_height.values())
    assert all(count > 0 for count in profile.valleys_by_height.values())


def _recount(path):
    """Peaks, valleys and max height from the height sequence alone."""
    heights = path.heights()
    peaks, valleys = {}, {}
    for j in range(1, len(heights) - 1):
        if heights[j - 1] < heights[j] > heights[j + 1]:
            peaks[heights[j]] = peaks.get(heights[j], 0) + 1
        elif heights[j - 1] > heights[j] < heights[j + 1]:
            valleys[heights[j]] = valleys.get(heights[j], 0) + 1
    return peaks, valleys, max(heights)


@settings(deadline=None)
@given(dyck_paths(LONG))
def test_statistics_equals_a_recount_from_heights(path):
    profile = statistics(path)
    assert (profile.peaks_by_height, profile.valleys_by_height, profile.max_height) == _recount(path)


# -- enumeration and DP oracles ----------------------------------------------


@pytest.mark.parametrize("n", range(10))
def test_enumeration_counts_are_catalan(n):
    paths = list(enumerate_paths(n))
    assert len(paths) == CATALAN[n]
    assert len(set(paths)) == CATALAN[n]
    # read as binary numbers with up-steps as 1s, strictly decreasing
    codes = [int("0" + "".join("1" if s == UP else "0" for s in p.steps), 2) for p in paths]
    assert all(a > b for a, b in zip(codes, codes[1:]))


def test_enumeration_guard():
    with pytest.raises(ValueError):
        next(enumerate_paths(15))
    with pytest.raises(ValueError):
        next(enumerate_paths(4, guard=3))
    assert sum(1 for _ in enumerate_paths(4, guard=4)) == CATALAN[4]
    # a negative guard is refused as such, whatever the semilength
    for n in (0, 4):
        with pytest.raises(ValueError, match="^guard must be >= 0$"):
            next(enumerate_paths(n, guard=-1))
        with pytest.raises(ValueError, match="^guard must be >= 0$"):
            count_exact_enum(n, 1, 0, StatKind.PEAK, guard=-1)


def test_enum_table_equals_a_recount_of_explicit_paths():
    # The recount classifies corners from heights() alone, so it shares no
    # code with the tallying search or with statistics().
    n_max, k_max = 9, 6
    expected = {
        kind: [[[0] * (n + 1) for n in range(n_max + 1)] for _ in range(k_max + 1)] for kind in StatKind
    }
    for n in range(n_max + 1):
        for path in enumerate_paths(n):
            peaks, valleys, _ = _recount(path)
            for k in range(k_max + 1):
                expected[StatKind.PEAK][k][n][peaks.get(k, 0)] += 1
                expected[StatKind.VALLEY][k][n][valleys.get(k, 0)] += 1
    assert build_table(n_max, k_max, "enum").rows == expected


def decoded_codes(n, heights):
    """paths._enum_codes(n, heights) read by its documented layout, as
    {tally: ways}: fields of w = n.bit_length() bits, the peaks at
    ``heights`` first, then the valleys; nothing above the last field."""
    w, fields = n.bit_length(), 2 * len(heights)
    tallies = {}
    for code, ways in paths._enum_codes(n, heights).items():
        assert code >> fields * w == 0, (n, heights, code)
        tally = tuple(code >> w * i & (1 << w) - 1 for i in range(fields))
        tallies[tally] = tallies.get(tally, 0) + ways
    return tallies


def recounted_tallies(recounts, heights):
    """{tally: paths} in the layout of decoded_codes, from each path's
    (peaks, valleys) recount."""
    tallies = {}
    for peaks, valleys in recounts:
        tally = tuple(peaks.get(h, 0) for h in heights) + tuple(valleys.get(h, 0) for h in heights)
        tallies[tally] = tallies.get(tally, 0) + 1
    return tallies


@pytest.mark.parametrize("n", range(11))
def test_enum_profiles_equal_a_recount_across_the_junction(monkeypatch, n):
    # Each path is a walked prefix and a listed suffix; from n = 5 on, the
    # junction between them is an interior point, and each split of
    # paths._split_walk (0..n up-steps left) puts it at another height.
    # The whole tally of every path, recounted from heights() alone, must
    # come out as the search's codes, decoded field by field, at tops
    # below, at and above every corner a path can have.
    recounts = [_recount(path)[:2] for path in enumerate_paths(n)]
    for top in sorted({1, 2, min(4, n + 1), n + 1}):
        expected = recounted_tallies(recounts, range(top))
        for split in range(n + 1):  # a split above n walks no prefix, as one at n
            monkeypatch.setattr(paths, "_SPLIT", split)
            assert decoded_codes(n, range(top)) == expected, (top, split)


@pytest.mark.parametrize("n", range(11))
def test_split_walk_asks_each_step_of_a_state_for_its_term_once(monkeypatch, n):
    # (h, ups, up, corner) names one step from one state, so the kernel's
    # memo asks for it at most once in a call, however many prefixes reach
    # the state; a term of 1 per step makes every path's sum start + 2n
    for split in range(n + 1):
        monkeypatch.setattr(paths, "_SPLIT", split)
        asked = Counter()

        def term(h, ups, up, corner):
            asked[h, ups, up, corner] += 1
            return 1

        sums = []
        paths._split_walk(n, 7, term, sums.extend)
        assert sums == [7 + 2 * n] * CATALAN[n], split
        assert set(asked.values()) <= {1}, (split, asked.most_common(1))


@pytest.mark.parametrize("n", [6, 10])
def test_split_walk_builds_each_suffix_list_once(n):
    # a step's term is added to every suffix from the state it enters, and
    # only once in a call: when its own state's list is built, however many
    # prefixes reach that state
    added = Counter()

    class Term(int):
        def __add__(self, other):
            added[self.step] += 1
            return int(self) + other

    def term(h, ups, up, corner):
        value = Term(1)
        value.step = (h, ups, up, corner)
        return value

    @cache
    def suffixes(h, ups):  # Dyck suffixes from height h with ups up-steps left
        return 1 if not h + ups else (h and suffixes(h - 1, ups)) + (ups and suffixes(h + 1, ups - 1))

    sums = []
    paths._split_walk(n, 7, term, sums.extend)
    assert sums == [7 + 2 * n] * CATALAN[n]
    assert added and all(
        count == (suffixes(h + 1, ups - 1) if up else suffixes(h - 1, ups))
        for (h, ups, up, _), count in added.items()
    )


@pytest.mark.parametrize("n", range(9))
def test_enum_profiles_far_above_every_corner_pad_the_tallies_of_k_max_n(n):
    # no corner lies above height n, so a k_max far above n gives the
    # k_max = n rows, and every row above n holds each path at r = 0
    k_max = 10**4
    table = build_table(n, k_max, "enum")
    for kind in StatKind:
        assert table.rows[kind][: n + 1] == build_table(n, n, "enum").rows[kind]
        assert table.rows[kind][n + 1 :] == [[[CATALAN[m]] + [0] * m for m in range(n + 1)]] * (k_max - n)


@pytest.mark.parametrize("n", [0, 1, 3, 4, 7, 8, 12])
def test_enum_table_equals_the_dp_table_at_every_field_width(n):
    # a field of w = n.bit_length() bits is full at n = 1, 3 and 7
    # ((UD)^n has n peaks at height 1), one bit wider at 4 and 8, and
    # empty at n = 0
    for k_max in (0, 5, n + 3):
        assert build_table(n, k_max, "enum").rows == build_table(n, k_max, "dp").rows, k_max
    for kind, k in ((StatKind.PEAK, 1), (StatKind.VALLEY, 0)):
        for r in {max(n - 1, 0), n}:
            assert count_exact_enum(n, k, r, kind) == count_exact_dp(n, k, r, kind), (kind, k, r)


@pytest.mark.parametrize("n", range(9))
def test_count_exact_enum_above_every_corner(n):
    # no corner lies above height n: the count there is every path for r = 0
    for k in (n, n + 1, 10**6):
        for kind in StatKind:
            for r in (0, 1):
                assert count_exact_enum(n, k, r, kind) == count_exact_dp(n, k, r, kind), (k, kind, r)


@pytest.mark.parametrize("n", range(8))
def test_enum_codes_pack_the_heights_they_are_given(n):
    # field i counts the peaks at heights[i] and field len(heights) + i the
    # valleys there, for a range that need not start at 0 or end below n
    recounts = [_recount(path)[:2] for path in enumerate_paths(n)]
    for heights in (range(1, 2), range(n, n + 1), range(2, n + 3), range(n + 1, n + 4)):
        assert decoded_codes(n, heights) == recounted_tallies(recounts, heights), heights


@pytest.mark.parametrize("k", [0, 1, 5, 9, 10**6])
def test_count_exact_enum_packs_the_one_height_it_reads(monkeypatch, k):
    asked = []

    def spy(n, heights):
        asked.append(heights)
        return codes(n, heights)

    codes = paths._enum_codes
    monkeypatch.setattr(paths, "_enum_codes", spy)
    for kind in StatKind:
        assert count_exact_enum(8, k, 1, kind) == count_exact_dp(8, k, 1, kind), kind
    assert asked == [range(k, k + 1)] * 2


def test_enum_table_builds_no_path_objects(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the enumeration oracle built a path object")

    reference = build_table(7, 4, "dp")
    monkeypatch.setattr(DyckPath, "__post_init__", refuse)
    monkeypatch.setattr(StatProfile, "__init__", refuse)
    assert build_table(7, 4, "enum").rows == reference.rows
    assert count_exact_enum(7, 2, 1, StatKind.VALLEY) == count_exact_dp(7, 2, 1, StatKind.VALLEY)


def test_enum_table_guard():
    with pytest.raises(ValueError) as exc:
        build_table(15, 2, "enum")
    assert str(exc.value) == (
        "semilength 15 exceeds the enumeration guard 14; pass guard=15 to override deliberately"
    )
    with pytest.raises(ValueError) as exc:
        next(enumerate_paths(15))
    assert str(exc.value) == (
        "semilength 15 exceeds the enumeration guard 14; pass guard=15 to override deliberately"
    )
    assert build_table(4, 2, "enum", guard=4).rows == build_table(4, 2, "dp").rows


def test_count_exact_enum_matches_dp():
    for n in range(8):
        for k in range(4):
            for kind in StatKind:
                for r in range(n + 2):
                    assert count_exact_enum(n, k, r, kind) == count_exact_dp(n, k, r, kind), (n, k, r, kind)


def test_count_exact_enum_validates():
    for args in ((-1, 1, 0), (3, -1, 0), (3, 1, -1)):
        with pytest.raises(ValueError, match=r"^n, k, r must be >= 0$"):
            count_exact_enum(*args, StatKind.PEAK)
    with pytest.raises(ValueError, match="enumeration guard 3"):
        count_exact_enum(4, 1, 0, StatKind.PEAK, guard=3)
    assert count_exact_enum(4, 1, 0, StatKind.PEAK, guard=4) == count_exact_dp(4, 1, 0, StatKind.PEAK)


def test_count_exact_dp_examples():
    assert count_exact_dp(3, 1, 1, StatKind.PEAK) == 2
    assert count_exact_dp(3, 1, 1, StatKind.VALLEY) == 1
    for n in range(7):
        assert count_exact_dp(n, 0, 0, StatKind.PEAK) == CATALAN[n]
        assert count_exact_dp(n, 0, 1, StatKind.PEAK) == 0
    assert count_exact_dp(3, 1, 7, StatKind.PEAK) == 0


def test_count_exact_dp_equals_row_n_of_the_whole_sweep():
    # the two readers of the one sweep: the middle point of its first half,
    # and height 0 after its last step
    for n in range(41):
        for k in range(11):
            for kind in StatKind:
                for r in range(7):
                    expected = _dp_distribution(n, k, kind, r + 1)[n][r]
                    assert count_exact_dp(n, k, r, kind) == expected, (n, k, r, kind)


def test_count_exact_dp_at_the_edge_of_its_digit_width():
    # the single count packs digits of n + 2 bits; above height n no prefix
    # of n steps meets an occurrence, so digit 0 holds every prefix, up to
    # binom(n, n // 2) of them at one height
    for n in range(61):
        for k in sorted({0, 1, 2, n // 2, n, n + 1, n + 2}):
            for kind in StatKind:
                for r in range(4):
                    expected = _dp_distribution(n, k, kind, r + 1)[n][r]
                    assert count_exact_dp(n, k, r, kind) == expected, (n, k, r, kind)


def test_count_exact_dp_when_the_middle_point_is_a_corner():
    # neither half counts the corner at the middle point of UUDD or UDUD
    assert count_exact_dp(2, 2, 1, StatKind.PEAK) == 1  # UUDD
    assert count_exact_dp(2, 2, 0, StatKind.PEAK) == 1  # UDUD
    assert count_exact_dp(2, 0, 1, StatKind.VALLEY) == 1  # UDUD
    assert count_exact_dp(2, 0, 0, StatKind.VALLEY) == 1  # UUDD


@pytest.mark.parametrize("n", [1000, 1001])
def test_count_exact_dp_valleys_at_0_equal_the_binomial_closed_form(n):
    # the middle point's height has the parity of n, so both parities
    for r in range(5):
        assert count_exact_dp(n, 0, r, StatKind.VALLEY) == valley0_closed_count(n, r), r


def test_count_exact_dp_matches_enumeration():
    for n in range(8):
        for k in range(4):
            for kind in StatKind:
                for r in range(n + 1):
                    enum_count = sum(
                        1 for p in enumerate_paths(n) if statistics(p).count(kind, k) == r
                    )
                    assert count_exact_dp(n, k, r, kind) == enum_count, (n, k, r, kind)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 57, 200])
def test_dp_distribution_sums_to_catalan(n):
    # cap = n + 1 at n = 200 is the widest packing: 202 digits of 402 bits
    for k in sorted({0, 1, 3, 8, n, n + 2}):
        for cap in sorted({0, 1, 4, n + 1}):
            for kind in StatKind:
                rows = _dp_distribution(n, k, kind, cap)
                assert len(rows) == n + 1
                for m, dist in enumerate(rows):
                    assert len(dist) == cap + 1
                    assert sum(dist) == comb(2 * m, m) // (m + 1), (n, m, k, cap, kind)


@pytest.mark.parametrize("kind, k", [(StatKind.PEAK, 2), (StatKind.VALLEY, 1)])
def test_dp_distribution_equals_the_gf_table_at_n_120(kind, k):
    # every bucket of every row, past the enumeration guard
    n = 120
    table = build_table(n, k, "gf")
    for m, row in enumerate(_dp_distribution(n, k, kind, n + 1)):
        assert row == [table.get(m, k, r, kind) for r in range(n + 2)], m


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 6))
def test_dp_table_rows_do_not_depend_on_n_max(a, b, k):
    # the sweep trims its heights by n_max, so a shorter table must be a
    # prefix of a longer one; single counts use the overflow bucket r + 1
    a, b = min(a, b), max(a, b)
    small = build_table(a, k, "dp")
    large = build_table(b, k, "dp")
    assert small.rows == {kind: [n_rows[: a + 1] for n_rows in k_rows] for kind, k_rows in large.rows.items()}
    for kind, k_rows in small.rows.items():
        for k_, n_rows in enumerate(k_rows):
            for n, row in enumerate(n_rows):
                for r, count in enumerate(row):
                    assert count_exact_dp(n, k_, r, kind) == count, (n, k_, r, kind)


def test_dp_table_sweeps_once_per_band_height(monkeypatch):
    # a peak at k and a valley at k - 2 share their sweep, so k_max = 4 has
    # 7 band heights (-2..4), not 10 (kind, k) pairs
    import dyckpeaks.paths as paths

    calls = []

    def counting(*args):
        calls.append(args)
        return _dp_distribution(*args)

    monkeypatch.setattr(paths, "_dp_distribution", counting)
    build_table(9, 4, "dp")
    assert len(calls) == 7
    assert {args[0] for args in calls} == {9} and {args[3] for args in calls} == {10}
    calls.clear()
    build_table(9, 5, "dp")
    assert len(calls) == 8


def test_gf_table_builds_one_family_per_band_height(monkeypatch):
    # peaks at k are the valley form at k - 2, so k_max = 5 has 8 distinct
    # band heights (-2 for peaks at 0, -1..5), not 12 (kind, k) pairs; each
    # family that reads a ratio still runs the r_series check once
    from dyckpeaks import gfcount

    calls, ratios = [], []
    family, r_series = gfcount.stat_family, gfcount.r_series

    def counting(kind, k, order, r_max):
        before = len(ratios)
        out = family(kind, k, order, r_max)
        calls.append((gfcount._band_height(kind, k), len(ratios) - before))
        return out

    monkeypatch.setattr(gfcount, "stat_family", counting)
    monkeypatch.setattr(gfcount, "r_series", lambda *args: ratios.append(args) or r_series(*args))
    table = build_table(12, 5, "gf")
    assert sorted(calls) == [(-2, 0)] + [(j, 1) for j in range(-1, 6)]
    assert table.rows == build_table(12, 5, "dp").rows


@pytest.mark.parametrize("k_max", [0, 1, 2])
def test_gf_table_equals_the_dp_table_where_little_is_shared(k_max):
    # k_max 0 and 1 share no band height, and k_max 2 shares only height 0
    assert build_table(16, k_max, "gf").rows == build_table(16, k_max, "dp").rows


def test_gf_table_rows_sharing_a_family_are_not_aliased():
    # valleys at 1 and peaks at 3 read one family; a caller that edits one
    # (verify's reshaped tables in the CLI tests) must not edit the other
    table = build_table(8, 5, "gf")
    peaks = [list(row) for row in table.rows[StatKind.PEAK][3]]
    valleys = table.rows[StatKind.VALLEY][1]
    assert valleys == peaks
    valleys[4][1] += 1
    valleys.append([0] * 10)
    assert table.rows[StatKind.PEAK][3] == peaks


@settings(deadline=None)
@given(st.integers(0, LONG), st.integers(0, 10), st.integers(0, 5), st.sampled_from(list(StatKind)))
def test_dp_equals_the_generating_function_past_the_enumeration_guard(n, k, r, kind):
    assert count_exact_dp(n, k, r, kind) == stat_gf(kind, k, r, n).coefficient(n)


def test_count_exact_dp_above_every_reachable_height():
    # no semilength-n path climbs above n, so k > n sees no occurrence
    for n in range(8):
        for k in range(n + 1, n + 4):
            for kind in StatKind:
                assert count_exact_dp(n, k, 0, kind) == CATALAN[n]
                assert all(count_exact_dp(n, k, r, kind) == 0 for r in range(1, n + 2))


def test_bounded_height_count_examples():
    assert bounded_height_count(0, 3, 0) == 1
    assert bounded_height_count(3, 1, 1) == 1
    assert bounded_height_count(2, 0, 0) == 0
    # no walk of n steps climbs above height n, so a huge band costs nothing
    assert bounded_height_count(4, 10**12, 0) == 2
    assert bounded_height_count(3, 10**12, 5) == 0
    with pytest.raises(ValueError, match=r"^end_height must be <= k$"):
        bounded_height_count(2, 1, 2)
    # a negative argument is named as such, even when end_height > k too
    for args in [(3, -1, 0), (3, -2, -1)]:
        with pytest.raises(ValueError, match=r"^arguments must be >= 0$"):
            bounded_height_count(*args)


def test_bounded_height_count_equals_a_dense_band_walk():
    # reference: one entry per height of the band, every height every step
    for k in range(7):
        cur = [1] + [0] * k
        for n_steps in range(13):
            for end_height in range(k + 1):
                assert bounded_height_count(n_steps, k, end_height) == cur[end_height], (n_steps, k, end_height)
            cur = [(cur[h - 1] if h else 0) + (cur[h + 1] if h < k else 0) for h in range(k + 1)]


# -- psi ----------------------------------------------------------------------


def test_psi_examples():
    assert psi(parse_path("UUDD"), 2).to_text() == "UDUD"
    assert psi(parse_path("UDUD"), 2).to_text() == "UUDD"


def test_psi_fixed_point():
    path = parse_path("UUUDDD")  # no peaks at 2, no valleys at 0
    assert psi(path, 2) == path


def test_psi_requires_k_at_least_2():
    with pytest.raises(ValueError):
        psi(parse_path("UD"), 1)


def test_psi_rejects_a_non_unit_step():
    # DyckPath validates on construction, so bypass it to hand psi bad steps;
    # an image that leaves the axis is an invariant failure too, not a PathError
    cases = [
        ((UP, 2, DOWN, DOWN, DOWN), "step must be +1 or -1, got 2 (index 1)"),
        ((UP, DOWN, DOWN, UP), "path dips below the axis (index 2)"),
    ]
    for steps, reason in cases:
        bad = object.__new__(DyckPath)
        object.__setattr__(bad, "steps", steps)
        with pytest.raises(InvariantError) as info:
            psi(bad, 2)
        assert str(info.value) == f"rewrite produced an invalid path: {reason}"


def test_psi_validates_the_turned_steps(monkeypatch):
    # the public psi builds a path object from the kernel's steps, so a turn
    # that leaves the axis is an invariant failure
    monkeypatch.setattr(paths, "_turn", lambda steps, k: [DOWN, UP, UP, DOWN])
    with pytest.raises(InvariantError) as info:
        psi(parse_path("UUDD"), 2)
    assert str(info.value) == "rewrite produced an invalid path: path dips below the axis (index 0)"


@settings(deadline=None, max_examples=50)
@given(dyck_paths(300, min_semilength=50), st.integers(2, 8))
def test_psi_is_its_validated_turn_on_long_paths(path, k):
    # past the enumeration guard: psi is its kernel's turn, validated, and
    # turning twice gives the steps back
    turned = _turn(path.steps, k)
    assert psi(path, k).steps == tuple(turned)
    assert _turn(tuple(turned), k) == list(path.steps)


@settings(deadline=None)
@given(dyck_paths(LONG), st.integers(2, 5))
def test_psi_is_an_involution(path, k):
    assert psi(psi(path, k), k) == path


@settings(deadline=None)
@given(dyck_paths(LONG), st.integers(2, 5))
def test_psi_exchanges_the_two_statistics(path, k):
    before = statistics(path)
    after = statistics(psi(path, k))
    assert after.count(StatKind.VALLEY, k - 2) == before.count(StatKind.PEAK, k)
    assert after.count(StatKind.PEAK, k) == before.count(StatKind.VALLEY, k - 2)


def _swapped_heights(path, k):
    """The path's heights with every peak apex at k set to k - 2 and every
    valley bottom at k - 2 set to k, from the steps alone."""
    heights = list(accumulate(path.steps, initial=0))
    swapped = list(heights)
    for j in range(1, len(heights) - 1):
        before, h, after = heights[j - 1 : j + 2]
        if before < h > after and h == k:
            swapped[j] = k - 2
        elif before > h < after and h == k - 2:
            swapped[j] = k
    return swapped


@pytest.mark.parametrize("k", range(2, 8))
def test_psi_moves_the_apexes_at_k_and_the_bottoms_at_k_minus_2(k):
    for n in range(10):
        for path in enumerate_paths(n):
            assert list(accumulate(psi(path, k).steps, initial=0)) == _swapped_heights(path, k)


@settings(deadline=None)
@given(dyck_paths(LONG), st.integers(2, 7))
def test_psi_moves_the_corners_of_long_paths(path, k):
    assert list(accumulate(psi(path, k).steps, initial=0)) == _swapped_heights(path, k)


def test_psi_count_identity_small():
    # |{r peaks at k}| == |{r valleys at k-2}| over whole levels
    for n in range(7):
        for k in (2, 3):
            for r in range(n + 1):
                peaks = sum(
                    1 for p in enumerate_paths(n) if statistics(p).count(StatKind.PEAK, k) == r
                )
                valleys = sum(
                    1
                    for p in enumerate_paths(n)
                    if statistics(p).count(StatKind.VALLEY, k - 2) == r
                )
                assert peaks == valleys


# -- theta ---------------------------------------------------------------------


def test_theta_examples():
    assert theta_forward(parse_path("UUDD")).to_text() == "UD"
    assert theta_forward(parse_path("UUDUDD")).to_text() == "UDUD"
    assert theta_forward(parse_path("UD")).to_text() == ""
    assert theta_forward(DyckPath(())) is None


def test_theta_rejects_paths_with_valleys_at_0():
    with pytest.raises(ValueError):
        theta_forward(parse_path("UDUD"))


def test_theta_rejects_exactly_the_paths_with_a_valley_at_0():
    for n in range(11):
        for path in enumerate_paths(n):
            if statistics(path).count(StatKind.VALLEY, 0) > 0:
                with pytest.raises(ValueError, match="^path has a valley at height 0"):
                    theta_forward(path)
            else:
                theta_forward(path)


def test_theta_roundtrip_and_counting():
    for n in range(1, 9):
        arch_free = [
            p
            for p in enumerate_paths(n)
            if statistics(p).count(StatKind.VALLEY, 0) == 0
        ]
        # the rewrite is a bijection onto all paths one semilength shorter
        assert len(arch_free) == CATALAN[n - 1]
        images = set()
        for p in arch_free:
            inner = theta_forward(p)
            assert theta_inverse(inner) == p
            images.add(inner)
        assert len(images) == CATALAN[n - 1]


@settings(deadline=None)
@given(dyck_paths(LONG))
def test_theta_inverse_then_forward(path):
    assert theta_forward(theta_inverse(path)) == path


# -- tables ---------------------------------------------------------------------


def test_build_table_entries():
    table = build_table(6, 2, "enum")
    assert table.get(2, 2, 1, StatKind.PEAK) == 1
    assert table.get(6, 1, 0, StatKind.PEAK) == 57
    assert table.get(3, 1, 9, StatKind.PEAK) == 0  # r > n stays zero


def test_build_table_get_is_zero_outside_the_grid():
    table = build_table(4, 2, "dp")
    # each negative index below would wrap round to a nonzero count
    peak = table.rows[StatKind.PEAK]
    assert (peak[1][-1][0], peak[-1][3][0], peak[1][3][-1]) == (6, 2, 1)
    for n, k, r in ((3, 1, 4), (5, 1, 0), (3, 3, 0), (-1, 1, 0), (3, -1, 0), (3, 1, -1)):
        for kind in StatKind:
            assert table.get(n, k, r, kind) == 0, (n, k, r, kind)


def test_build_table_methods_agree():
    reference = build_table(6, 3, "enum")
    for method in ("dp", "gf"):
        assert build_table(6, 3, method).rows == reference.rows


def test_build_table_sum_rule():
    build_table(7, 4, "dp").check_sum_rule()


def test_build_table_rejects_unknown_method():
    with pytest.raises(ValueError):
        build_table(2, 2, "magic")


def test_count_table_sum_rule_detects_corruption():
    table = build_table(3, 1, "dp")
    table.rows[StatKind.PEAK][1][3][0] += 1
    with pytest.raises(InvariantError) as exc:
        table.check_sum_rule()
    assert str(exc.value) == "sum over r at (n=3, k=1, kind=peak) is 6, expected 5"
