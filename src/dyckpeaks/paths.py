"""Ground truth: explicit Dyck paths, their statistics, and counting oracles.

A Dyck path is a sequence of up-steps (+1) and down-steps (-1) that starts
and ends at height 0 and never dips below it. A peak at height k is an
interior lattice point at height k entered by an up-step and left by a
down-step; a valley swaps the two steps. Endpoints are never peaks or
valleys.

This module provides two independent counting routes, exhaustive enumeration
and a polynomial-time dynamic program, plus the two statistic-preserving
rewrites used to certify count identities:

* ``psi``: turns over every pair of opposite steps that starts at height
  k - 1, so a peak at k (up, down) becomes a valley at k - 2 (down, up) and
  back. It is an involution exchanging (peaks at k) with (valleys at k - 2).
  Which pairs turn is defined once, in ``_turn_start``. The step-level
  ``_turn`` reads it, and ``psi`` validates its result as a path;
  ``verify``'s certificate reads it too, once per k, and turns the pairs
  that start there by flipping their bits in the path's code. It checks
  the images by one identity: the walk's records are closed under the swap.
* ``theta_forward``: strips the outer arch of a path with no valleys at
  height 0, a bijection onto paths one unit of semilength shorter.

The enumeration walks every path of a semilength once, as a walked prefix
joined to a listed suffix, in one kernel, ``_split_walk``. It alone forms
the lattice's steps and decides which step closes a peak or a valley, and
it sums the caller's term for each step: the oracle's term is the code of
the corner a step closes, and that of ``verify``'s certificate the step's
share of a path's packed record.

It also holds the one walk of single steps confined to a band [0, k], which
yields its row after every step. ``bounded_height_count`` reads its last
row, and ``chebyshev.r_series`` reads height 0 at every even step, the
lattice route of its bounded-height check.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cache
from itertools import accumulate, islice
from operator import add, mul

from .series import InvariantError, _Frozen, _Record, catalan_series

DEFAULT_ENUM_GUARD = 14

UP = 1
DOWN = -1

_CHAR_TO_STEP = {"U": UP, "u": UP, "(": UP, "D": DOWN, "d": DOWN, ")": DOWN}


class StatKind(enum.Enum):
    """Which interior pattern is being counted."""

    PEAK = "peak"
    VALLEY = "valley"


def _band_height(kind: StatKind, k: int) -> int:
    """Band height j of ``kind`` at height k: valleys at j, peaks at j + 2,
    each a pair of opposite steps from j + 1; -2 for peaks at 0 (no band)."""
    if not isinstance(kind, StatKind):
        raise TypeError(f"kind must be a StatKind, got {kind!r}")
    return k if kind is StatKind.VALLEY else k - 2


class PathError(ValueError):
    """A step sequence is not a valid Dyck path; ``index`` locates the offense."""

    def __init__(self, message: str, index: int):
        super().__init__(f"{message} (index {index})")
        self.reason = message
        self.index = index


class DyckPath(_Frozen):
    """An explicit up/down step sequence, validated on construction."""

    __slots__ = ("steps",)  # a tuple of UP and DOWN

    def __init__(self, steps: Iterable[int]) -> None:
        super().__init__(tuple(steps))
        self.__post_init__()  # a method of its own: perfbench's tracer wraps it to count validations

    def __post_init__(self) -> None:
        steps = self.steps
        # Accept at C speed (int unit steps, as many ups as downs, no prefix
        # below the axis); the walk below runs only to locate a rejection.
        # The type test refuses 1.0, True and Fraction(1), which equal UP.
        ups = steps.count(UP)
        if (
            2 * ups == len(steps) == ups + steps.count(DOWN)
            and {int}.issuperset(map(type, steps))
            and min(accumulate(steps), default=0) >= 0
        ):
            return
        height = 0
        # The last up-step to leave the axis is the first one never matched
        # when the path ends above the axis.
        last_rise = 0
        for i, s in enumerate(steps):
            if type(s) is not int or s not in (UP, DOWN):
                raise PathError(f"step must be +1 or -1, got {s!r}", i)
            if height == 0:
                last_rise = i
            height += s
            if height < 0:
                raise PathError("path dips below the axis", i)
        if height != 0:
            raise PathError(f"path ends at height {height}, not 0", last_rise)

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    def heights(self) -> tuple[int, ...]:
        """Lattice heights of the 2n + 1 path points."""
        return tuple(accumulate(self.steps, initial=0))

    def to_text(self) -> str:
        return "".join("U" if s == UP else "D" for s in self.steps)

    def __str__(self) -> str:
        return self.to_text()


def parse_path(text: str) -> DyckPath:
    """Parse a path over U/D (or u/d, or parentheses); whitespace is ignored.

    Raises :class:`PathError` carrying the first offending index into the
    original text: an alien character, the first step to dip below the axis,
    or the first up-step left unmatched.
    """
    steps: list[int] = []
    positions: list[int] = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        step = _CHAR_TO_STEP.get(ch)
        if step is None:
            raise PathError(f"unexpected character {ch!r}", i)
        steps.append(step)
        positions.append(i)
    try:
        return DyckPath(tuple(steps))
    except PathError as exc:
        raise PathError(exc.reason, positions[exc.index]) from None


class StatProfile(_Frozen):
    """Peak and valley counts, keyed by height; only nonzero counts stored."""

    __slots__ = ("peaks_by_height", "valleys_by_height", "max_height")

    def __init__(self, peaks_by_height: dict[int, int], valleys_by_height: dict[int, int], max_height: int) -> None:
        super().__init__(peaks_by_height, valleys_by_height, max_height)

    def count(self, kind: StatKind, height: int) -> int:
        if not isinstance(kind, StatKind):
            raise TypeError(f"kind must be a StatKind, got {kind!r}")
        table = self.peaks_by_height if kind is StatKind.PEAK else self.valleys_by_height
        return table.get(height, 0)


def statistics(path: DyckPath) -> StatProfile:
    """Scan a path once and tally its peaks and valleys by height."""
    peaks: dict[int, int] = {}
    valleys: dict[int, int] = {}
    h = 0
    max_h = 0
    prev = UP  # a valid path starts with an up-step, so its start is no corner
    for s in path.steps:
        if s != prev:
            # the point between ``prev`` and ``s`` is a corner at height h
            if s == DOWN:
                peaks[h] = peaks.get(h, 0) + 1
                if h > max_h:  # the highest point is a peak
                    max_h = h
            else:
                valleys[h] = valleys.get(h, 0) + 1
            prev = s
        h += s
    return StatProfile(peaks, valleys, max_h)


def _check_guard(n: int, guard: int) -> None:
    """Refuse an exhaustive enumeration above the guard."""
    if guard < 0:
        raise ValueError("guard must be >= 0")
    if n > guard:
        raise ValueError(
            f"semilength {n} exceeds the enumeration guard {guard}; "
            f"pass guard={n} to override deliberately"
        )


def _check_count_args(n: int, k: int, r: int, kind: StatKind) -> None:
    if n < 0 or k < 0 or r < 0:
        raise ValueError("n, k, r must be >= 0")
    if not isinstance(kind, StatKind):
        raise TypeError(f"kind must be a StatKind, got {kind!r}")


def enumerate_paths(n: int, *, guard: int = DEFAULT_ENUM_GUARD) -> Iterator[DyckPath]:
    """Yield every Dyck path of semilength n exactly once, up-steps first.

    Read as binary numbers with up-steps as 1s, the paths come in strictly
    decreasing order, from U^n D^n down to (UD)^n. Enumeration is
    exponential (there are catalan(n) paths); n above ``guard`` is refused
    unless the caller raises the guard deliberately.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_guard(n, guard)
    steps = [UP] * n + [DOWN] * n
    while True:
        yield DyckPath(tuple(steps))
        # The next path keeps the longest prefix it can: its last up-step
        # from height >= 1 turns down, and the ``ups`` up-steps after it
        # (all from the axis) plus the one freed come first in the suffix.
        height = 0
        ups = 0
        for j in range(2 * n - 1, -1, -1):
            height -= steps[j]  # the height before step j
            if steps[j] == UP:
                if height:
                    break
                ups += 1
        else:
            return
        steps[j:] = [DOWN] + [UP] * (ups + 1) + [DOWN] * (2 * n - j - ups - 2)


# The prefix walk of ``_split_walk`` stops once this many up-steps are
# left. Every n <= 12 at k_max 5 (best of 5, Python 3.11, 2-CPU shared
# host) took 72, 54, 49, 50, 55, 87 and 193 ms at the splits 2, 3, 4, 5, 6,
# 8 and 12, and 108 ms by a walk down to every path; at n = 12 the suffix
# lists add 0.38 MB to the traced peak at 4 and 2.6 MB at 6. The
# certificate, every (n <= 10, k in 2..5), took 77, 48, 42, 53 and 57 ms at
# the splits 2 to 6, and the traced peak of its n <= 8 was 154, 193, 273,
# 401 and 576 KiB.
_SPLIT = 4


def _split_walk(n: int, start: int, term, emit) -> None:
    """Sum per-step terms over every semilength-n path, a walked prefix
    joined to a listed suffix.

    The kernel owns the lattice. A walk state is (height h, up-steps left,
    whether the last step went up); from it a down-step goes first, when
    h > 0, and then an up-step, when one is left. A down-step after an
    up-step closes a peak at h, and an up-step after a down-step a valley
    at h: that step is a corner. A step adds ``term(h, ups, up, corner)``,
    and a path's sum is ``start`` plus the terms of its steps. A step's
    term is the same whatever prefix reached its state, so ``term`` runs
    once per (state, step) in a call: the states' steps are memoized.

    A depth-first walk sums the prefixes' terms up to the step that leaves
    ``_SPLIT`` up-steps. For each state it stops in, a list holds the sum
    of every suffix from there, one entry per suffix, built once per call
    and memoized like the steps.
    Each prefix passes ``emit`` an iterator of its total plus every entry,
    so the caller keeps what it needs (a tally of the sums, or the sums
    themselves). The paths come in ascending order of their steps read as
    binary numbers with the up-steps as 1s.
    """

    @cache
    def steps(h: int, ups: int, last_up: bool) -> list[tuple[int, tuple[int, int, bool]]]:
        # ``ups`` of the n up-steps are left at height h, so h + ups downs remain
        out = []
        if h:
            out.append((term(h, ups, False, last_up), (h - 1, ups, False)))
        if ups:
            out.append((term(h, ups, True, not last_up), (h + 1, ups - 1, True)))
        return out

    @cache
    def suffixes(h: int, ups: int, last_up: bool) -> list[int]:
        if not h + ups:  # the path's end: one empty suffix (reached after an up-step only when n = 0)
            return [0]
        found = []
        for value, state in steps(h, ups, last_up):
            found += map(value.__add__, suffixes(*state))
        return found

    def walk(h: int, ups: int, last_up: bool, total: int) -> None:
        if ups <= _SPLIT:
            emit(map(total.__add__, suffixes(h, ups, last_up)))
        else:
            for value, state in steps(h, ups, last_up):
                walk(*state, total + value)

    walk(0, n, True, start)  # last_up starts true, so the first step is no valley
    walk = suffixes = None  # break the closures' cycles: the lists go with this call, not with the GC


def _enum_codes(n: int, heights: range) -> Counter[int]:
    """Semilength-n paths counted by their packed corner tallies at
    ``heights``: the enumeration oracle.

    A code has fields of w = n.bit_length() bits: field i counts the peaks
    at height heights[i] and field len(heights) + i the valleys there. No
    height holds more than n < 2^w corners, so no field carries into the
    next (at n = 0 every field is empty and reads 0). A height above n
    holds no corner, so its fields read 0. Callers read a field by shift
    and mask. The walk builds no path object and shares no code with the
    dynamic program or the series layer; callers apply the enumeration
    guard.

    A path's code is the sum of its steps' terms, summed by
    :func:`_split_walk` and counted as they come: a step that closes a
    corner adds that corner's code, the corner at the junction of a prefix
    and a suffix included.
    """
    w = n.bit_length()
    # the code of a corner at height h (the zeros keep every h <= n in
    # range; no step closes a peak at 0)
    peak, valley = [0] * (n + 1), [0] * (n + 1)
    for i, h in enumerate(heights):
        if h <= n:
            peak[h], valley[h] = 1 << w * i, 1 << w * (len(heights) + i)
    codes: Counter[int] = Counter()
    _split_walk(n, 0, lambda h, ups, up, corner: (valley if up else peak)[h] if corner else 0, codes.update)
    return codes


def count_exact_enum(n: int, k: int, r: int, kind: StatKind, *, guard: int = DEFAULT_ENUM_GUARD) -> int:
    """Number of semilength-n paths with exactly r occurrences at height k,
    by exhaustive enumeration (refused above ``guard``, like
    :func:`enumerate_paths`): one field of each :func:`_enum_codes` code,
    which packs the corners at k alone."""
    _check_count_args(n, k, r, kind)
    _check_guard(n, guard)
    w = n.bit_length()
    shift = 0 if kind is StatKind.PEAK else w  # field 0 holds the peaks at k, field 1 the valleys
    return sum(ways for code, ways in _enum_codes(n, range(k, k + 1)).items() if code >> shift & (1 << w) - 1 == r)


def _dp_bits(steps: int) -> int:
    """Width of one occurrence digit in the DP's packed integers, for a
    reader that sweeps ``steps`` steps: there are 2^steps step sequences of
    that length, so no digit counts more prefixes than steps + 1 bits hold,
    and none carries into the next. The width is steps + 2."""
    return steps + 2


def _dp_sweep(n: int, j: int, cap: int, bits: int) -> Iterator[tuple[list[int], int]]:
    """The dynamic program's one step loop, for paths of 2n steps, counting
    the corners of band height j (:func:`_band_height`): yields (state,
    corner) for t = 0..2n, before the first step and after each.

    After t steps every prefix ends at a height of the parity of t, so the
    state is one integer per such height (entry i is height 2i + t % 2),
    trimmed to the heights from which the path can still return to the
    axis by step 2n. Its base-2^bits digit c counts the prefixes with c
    occurrences so far (digit cap: cap or more). The reader gives the width,
    :func:`_dp_bits` of the number of steps it reads; a digit is exact up to
    that step. A corner at the point after step t is counted only when step
    t + 1 is taken. Up to step n no height is trimmed, since every height a
    prefix reaches by then can still return to the axis. Each step builds one
    list and trims it in place.

    The corner needs no direction state: its pair of opposite steps starts
    at the far side h = j + 1, the band height plus one (a peak at j + 2 or
    a valley at j). The prefixes at the corner whose last step is the
    pair's first are exactly the prefixes one step earlier at h. The
    corner's second step brings them back to h, and there their digits move
    up one bucket. ``corner`` is that set one step earlier: the packed
    prefixes at h after step t - 1 (0 when no entry there holds h, as at
    j = -2, where no path has a corner).
    """
    low = (1 << bits * cap) - 1  # digits 0..cap-1; the digit for cap stays put
    side = j + 1
    at_side = side // 2
    cur = [1]  # the empty prefix, at height 0 with no occurrences
    corner = 0
    yield cur, corner
    total_steps = 2 * n
    for pos in range(total_steps):
        size = min(pos + 1, total_steps - pos - 1) // 2 + 1  # entries after this step
        if pos % 2:  # odd heights to even: 2j is entered from 2j - 1 and 2j + 1
            nxt = list(map(add, [0] + cur, cur + [0]))
        else:  # even heights to odd: 2j + 1 is entered from 2j and 2j + 2
            nxt = list(map(add, cur, cur[1:] + [0]))
        del nxt[size:]  # in place: no copy, and in the first half nothing to cut
        if corner and at_side < size:
            moved = corner & low
            nxt[at_side] += (moved << bits) - moved
        corner = cur[at_side] if side % 2 == pos % 2 and 0 <= at_side < len(cur) else 0
        cur = nxt
        yield cur, corner


def _dp_distribution(n: int, k: int, kind: StatKind, cap: int) -> list[list[int]]:
    """Counts of paths by number of occurrences of the statistic, for every
    semilength m = 0..n from one sweep of 2n steps (:func:`_dp_sweep`).

    Row m is a list of length cap + 1: index c < cap is the exact count of
    semilength-m paths with c occurrences at height k, index cap collects
    "cap or more". It is read at height 0 after step 2m; that endpoint is no
    corner yet, since a corner is counted only when the next step is taken.
    The whole sweep is needed because every row is read; a single count is
    read at the sweep's middle point instead (:func:`count_exact_dp`). Its
    digits are :func:`_dp_bits` of all 2n steps wide.
    """
    bits = _dp_bits(2 * n)
    digit = (1 << bits) - 1
    rows = []
    for state, _ in islice(_dp_sweep(n, _band_height(kind, k), cap, bits), 0, None, 2):  # after each even step
        axis = state[0]
        rows.append([axis >> bits * c & digit for c in range(cap)] + [axis >> bits * cap])
    return rows


def count_exact_dp(n: int, k: int, r: int, kind: StatKind) -> int:
    """Number of semilength-n paths with exactly r occurrences at height k.

    Read from the first half of the dynamic program's sweep
    (:func:`_dp_sweep`): the second half repeats it. A path read backwards
    with its up- and down-steps exchanged is a path again, with every peak
    and valley at its old height, so the suffixes from height h after step n
    are the prefixes that reach h by step n, read backwards, with the same
    occurrences. Let F_h[c] count the prefixes at h after step n with c
    occurrences, and G[c] those among them at k whose last step came from
    the far side, one above the band height: the ``corner`` the sweep yields,
    the prefixes there one step earlier, whose step to k adds no occurrence.
    Then

        count = sum_h sum_c F_h[c]·F_h[r - c]
                - sum_c G[c]·G[r - c] + sum_c G[c]·G[r - 1 - c]:

    a prefix and a suffix meet at the middle point, which neither half
    counts as a corner; it is one exactly when both halves are in G, so the
    G terms move those paths up one occurrence. The first n steps are never
    trimmed, so F_h holds every prefix, whichever height it ends at.

    The occurrence axis is capped at r + 1 (an overflow bucket), so digits
    0..r of each packed integer are exact. At most 2^n prefixes have n
    steps, so a digit needs only :func:`_dp_bits` of n = n + 2 bits, half the
    width the whole sweep packs. Each of the n steps costs one big-integer
    addition per height of r + 2 digits of n + 2 bits: half the additions
    of the whole sweep, each on integers of half the size.
    """
    _check_count_args(n, k, r, kind)
    if r > n:
        return 0
    bits = _dp_bits(n)
    for mid, corner in islice(_dp_sweep(n, _band_height(kind, k), r + 1, bits), n + 1):
        pass
    digit = (1 << bits) - 1
    # f[c][j] is F_h[c] for h = 2j + n % 2, and g[c] is G[c]
    f = [[state >> bits * c & digit for state in mid] for c in range(r + 1)]
    g = [corner >> bits * c & digit for c in range(r + 1)]
    return (
        sum(sum(map(mul, f[c], f[r - c])) for c in range(r + 1))
        - sum(map(mul, g, reversed(g)))
        + sum(map(mul, g, reversed(g[:r])))
    )


def _band_walk(n_steps: int, k: int, end: int) -> Iterator[list[int]]:
    """Walks of single steps from height 0 confined to the band [0, k], as
    one row per step: the rows after steps t = 0..n_steps.

    After t steps every walk ends at a height of the parity of t, so entry j
    of row t counts the t-step walks that end at height 2j + t % 2. Each
    step costs one big-integer addition per entry: height 2j + 1 is entered
    from 2j and 2j + 2, height 2j from 2j - 1 and 2j + 1, and the heights
    above k are cut off. Heights from which ``end`` can no longer be reached
    by step ``n_steps`` are trimmed as well; a walk that passes one is too
    high to come back to any kept entry, so every kept entry is exact. No
    walk of t steps climbs above height t, so a row has at most
    min(k, t) // 2 + 1 entries, however large k is, and none when no height
    is left to keep. Each step builds one list, by one ``map(add, ...)`` over
    the row and its shift, padded by a shared zero; an empty row stays
    empty.

    This is the lattice route of the bounded-height check:
    ``chebyshev.r_series`` reads height 0 at every even step. It shares no
    code with the enumeration or the dynamic program.
    """
    row, z = [1], [0]
    yield row
    for t in range(1, n_steps + 1):
        parity = t % 2
        if parity:  # even heights to odd: 2j + 1 is entered from 2j and 2j + 2
            row = list(map(add, row, row[1:] + z))
        elif row:  # odd heights to even: 2j is entered from 2j - 1 and 2j + 1
            row = list(map(add, z + row, row + z))
        del row[(min(k, end + n_steps - t) - parity) // 2 + 1 :]
        yield row


def bounded_height_count(n_steps: int, k: int, end_height: int) -> int:
    """Paths of ``n_steps`` single steps from height 0 to ``end_height``
    confined to the band [0, k]: read from the last row of the band walk."""
    if n_steps < 0 or end_height < 0 or k < 0:
        raise ValueError("arguments must be >= 0")
    if end_height > k:
        raise ValueError("end_height must be <= k")
    for row in _band_walk(n_steps, k, end_height):
        pass
    j = end_height // 2
    return row[j] if (n_steps - end_height) % 2 == 0 and j < len(row) else 0


def _turn_start(k: int) -> int:
    """The height k - 1 at which the pairs of opposite steps that ``psi``
    turns at k start: up then down is a peak at k, down then up a valley at
    k - 2.

    This is the one definition of which pairs turn. :func:`_turn`, and so
    ``psi``, reads it, and so does the walk of ``verify``'s certificate,
    once per k; a start that no pair has turns nothing in either.
    """
    return k - 1


def _turn(steps: tuple[int, ...], k: int) -> list[int]:
    """Turn over every pair of opposite steps that starts at height
    :func:`_turn_start` of k and return the new steps, not validated.

    ``psi`` validates the result as a :class:`DyckPath`. Only steps are
    exchanged, so the result holds the input's steps in another order.
    """
    new_steps = list(steps)
    start, h = _turn_start(k), 0  # h: the height before steps i and i + 1
    for i in range(len(steps) - 1):
        if h == start and steps[i] + steps[i + 1] == 0:
            new_steps[i], new_steps[i + 1] = steps[i + 1], steps[i]
        h += steps[i]
    return new_steps


def psi(path: DyckPath, k: int) -> DyckPath:
    """Height-swap involution: peaks at height k trade places with valleys
    at height k - 2.

    Both corners are a pair of opposite steps that starts at height k - 1:
    up then down is a peak at k, down then up a valley at k - 2. ``psi``
    turns every such pair over (:func:`_turn`, which reads the pairs'
    height from :func:`_turn_start`, the one definition of which pairs
    turn) and validates the image as a :class:`DyckPath`. A swap changes
    only the height of the point between its two steps, k to k - 2 or back,
    so the pairs that start at k - 1 are the same on the image and never
    overlap: applied twice, each pair is turned back, and on the image the
    peaks at k are the valleys at k - 2 of the path and the reverse.
    Requires k >= 2 so a lowered apex stays on or above the axis.
    """
    if k < 2:
        raise ValueError("psi requires k >= 2")
    try:
        return DyckPath(tuple(_turn(path.steps, k)))
    except PathError as exc:
        raise InvariantError(f"rewrite produced an invalid path: {exc}") from exc


def theta_forward(path: DyckPath) -> DyckPath | None:
    """Strip the outer arch of a path with no valleys at height 0.

    Such a path touches the axis only at its endpoints, so it is an up-step,
    an inner path shifted up by one, and a down-step; the inner path is
    returned (None for the empty path). Raises ValueError if the input has a
    valley at height 0, that is, an interior point on the axis.
    """
    if 0 in path.heights()[1:-1]:
        raise ValueError("path has a valley at height 0; the outer arch is not unique")
    if not path.steps:
        return None
    return DyckPath(path.steps[1:-1])


def theta_inverse(path: DyckPath) -> DyckPath:
    """Re-wrap a path in an outer arch; inverse of :func:`theta_forward`."""
    return DyckPath((UP,) + path.steps + (DOWN,))


METHODS = ("enum", "dp", "gf")  # the three counting routes, in the order verify reports them


class CountTable(_Record):
    """Exact counts as rows: ``rows[kind][k][n][r]``, r <= n, is the number of
    semilength-n paths with exactly r occurrences of ``kind`` at height k.
    The one cell order, (n, k, r, kind) with peak before valley, is set by
    :meth:`row_pairs`; the command line renders a pair of rows at a time."""

    __slots__ = ("rows",)

    def __init__(self, rows: dict[StatKind, list[list[list[int]]]]) -> None:
        super().__init__(rows)

    def get(self, n: int, k: int, r: int, kind: StatKind) -> int:
        rows = self.rows[kind]  # 0 outside the grid, where a negative index would wrap
        return rows[k][n][r] if 0 <= k < len(rows) and 0 <= n < len(rows[k]) and 0 <= r <= n else 0

    def row_pairs(self) -> Iterator[tuple[int, int, list[int], list[int]]]:
        """Every (n, k) as (n, k, peak row, valley row), n first; the table's
        cells are entry r of each row in turn, the peak's before the valley's."""
        peak, valley = self.rows[StatKind.PEAK], self.rows[StatKind.VALLEY]
        for n in range(len(peak[0])):
            for k, (peak_rows, valley_rows) in enumerate(zip(peak, valley)):
                yield n, k, peak_rows[n], valley_rows[n]

    def check_sum_rule(self) -> None:
        """Every (n, k, kind) row must sum to the total path count; the first
        row in cell order that does not, or is missing, raises
        :class:`InvariantError`. The peak rows at k = 0 set the grid."""
        peak = self.rows[StatKind.PEAK]
        for n, paths in enumerate(catalan_series(len(peak[0]) - 1).coeffs):
            for k in range(len(peak)):
                for kind in StatKind:
                    try:
                        total = sum(self.rows[kind][k][n])
                    except IndexError:
                        raise InvariantError(f"no row at (n={n}, k={k}, kind={kind.value})") from None
                    if total != paths:
                        raise InvariantError(
                            f"sum over r at (n={n}, k={k}, kind={kind.value}) is {total}, "
                            f"expected {paths}"
                        )


def build_table(
    n_max: int,
    k_max: int,
    method: str,
    *,
    guard: int = DEFAULT_ENUM_GUARD,
) -> CountTable:
    """Full table of counts for n <= n_max, k <= k_max, r <= n, both kinds.

    The three methods are independent routes to the same numbers. Each fills
    the :class:`CountTable` rows in the form it makes them: enumeration reads
    each distinct code of :func:`_enum_codes` at the heights 0..min(k_max, n)
    field by field straight into its rows, and gives the rows above height n
    every path at r = 0; a DP sweep gives the row of every semilength, and a
    series family gives one slice per r, read across.
    A peak at k and a valley at k - 2 are one pair of opposite steps from
    height k - 1, so the DP sweeps, and a family is read, once per band
    height (:func:`_band_height`, the rule both read), for every (k, kind)
    there. A negative guard is refused under every method.
    """
    if n_max < 0 or k_max < 0:
        raise ValueError("n_max and k_max must be >= 0")
    _check_guard(n_max if method == "enum" else 0, guard)  # only enumeration has a size to guard
    if method == "enum":
        rows = {kind: [[] for _ in range(k_max + 1)] for kind in StatKind}
        for n in range(n_max + 1):
            top, w = min(k_max, n) + 1, n.bit_length()
            codes, mask = _enum_codes(n, range(top)), (1 << w) - 1
            total = sum(codes.values())
            for kind_rows in rows.values():  # no corner lies above n: every path has none there
                for k, k_rows in enumerate(kind_rows):
                    k_rows.append([0] * (n + 1) if k < top else [total] + [0] * n)
            # field i of a code fills row i here: the peaks' heights below top, then the valleys'
            fields = list(enumerate(k_rows[n] for kind_rows in rows.values() for k_rows in kind_rows[:top]))
            for code, ways in codes.items():
                for i, row in fields:
                    row[code >> w * i & mask] += ways
    elif method in ("dp", "gf"):
        from .gfcount import stat_family

        rows, by_band = {kind: [] for kind in StatKind}, {}  # by_band: the rows by n, this call only
        for kind, k_rows in rows.items():
            for k in range(k_max + 1):
                j = _band_height(kind, k)
                if j not in by_band:
                    if method == "dp":  # the sweep to n_max has a row for every n
                        by_band[j] = _dp_distribution(n_max, k, kind, n_max + 1)
                    else:  # slice r holds entry r of every row: read across
                        by_band[j] = list(zip(*(s.as_integer_sequence() for s in stat_family(kind, k, n_max, n_max))))
                k_rows.append([list(row[: n + 1]) for n, row in enumerate(by_band[j])])  # rows of its own
    else:
        raise ValueError(f"unknown method {method!r}")
    return CountTable(rows)
