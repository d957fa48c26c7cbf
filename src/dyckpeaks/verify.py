"""Cross-validation report: every counting route checked against the others.

The report is deterministic (identical inputs produce byte-identical text).
Check lines are PASS/FAIL; documented printed-formula discrepancies are WARN
and do not fail the run. The overall run fails only if a PASS-able check
fails, in which case a minimal counterexample is included.
"""

from __future__ import annotations

from .cfrac import _marked_fraction, catalan_cfrac, lemma_iterated_cfrac, lemma_rhs, peak_bivar_cfrac
from .gfcount import _valley0_binomial_literal, peak1_nonempty_blocks_gf, stat_family, valley0_closed_count
from . import paths
from .paths import DEFAULT_ENUM_GUARD, StatKind, build_table, enumerate_paths, psi, statistics
from .series import BivarSeries, InvariantError, _Record, catalan_series


class VerifyReport(_Record):
    __slots__ = ("lines", "failures", "warnings")

    def __init__(self, lines: list[str] | None = None, failures: int = 0, warnings: int = 0) -> None:
        super().__init__([] if lines is None else lines, failures, warnings)

    def section(self, title: str) -> None:
        if self.lines:
            self.lines.append("")
        self.lines.append(f"== {title} ==")

    def ok(self, text: str) -> None:
        self.lines.append(f"PASS {text}")

    def fail(self, text: str) -> None:
        self.failures += 1
        self.lines.append(f"FAIL {text}")

    def warn(self, text: str) -> None:
        self.warnings += 1
        self.lines.append(f"WARN {text}")

    def note(self, text: str) -> None:
        self.lines.append(f"     {text}")

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _check_three_way(report: VerifyReport, tables: dict, n_max: int, k_max: int) -> None:
    report.section("three-way agreement: enumeration vs dynamic program vs series")
    enum, dp, gf = (tables[m] for m in ("enum", "dp", "gf"))
    cells = (k_max + 1) * (n_max + 1) * (n_max + 2)  # r <= n for each n, k and kind
    expected = list(range(1, n_max + 2))  # row n holds the counts for r <= n
    shapes = (
        (method, kind, k, [len(row) for row in tables[method].rows[kind][k]])
        for method in ("enum", "dp", "gf")
        for kind in StatKind
        for k in range(k_max + 1)
    )
    misshapen = next((shape for shape in shapes if shape[3] != expected), None)
    if misshapen:
        method, kind, k, lengths = misshapen
        report.fail(f"method {method}: rows at (k={k}, kind={kind.value}) have lengths {lengths}, expected {expected}")
    elif enum.rows == dp.rows == gf.rows:
        report.ok(f"all {cells} cells agree for n <= {n_max}, k <= {k_max}, r <= n, both kinds")
    else:
        (n, k, r, kind), count = next(
            (key, count) for key, count in enum.sorted_items() if not dp.get(*key) == count == gf.get(*key)
        )
        report.fail(
            f"counterexample (n={n}, k={k}, r={r}, kind={kind.value}): "
            f"enum={count} dp={dp.get(n, k, r, kind)} gf={gf.get(n, k, r, kind)}"
        )

    report.section("sum rule: occurrence counts partition all paths")
    for method in ("enum", "dp", "gf"):
        try:
            tables[method].check_sum_rule()
        except InvariantError as exc:
            report.fail(f"method {method}: {exc}")
            break
    else:
        report.ok(
            f"sum over r equals the total path count for every (n <= {n_max}, "
            f"k <= {k_max}, kind), all three methods"
        )


def _sweep(n: int, k: int) -> tuple[list[int], list[int]]:
    """The certificate's records for semilength n at height k, and the same
    records swapped, one int each per path, in ascending order of the code.

    A path's code has its up-steps as 1 bits behind a leading 1, so it is
    below 2^(2n + 1); its image is the code of its image at k. With
    W = 2n + 1 and B = n.bit_length() (no count exceeds n), the path's
    record and its swapped record are

        ((code << W | image) << 2B) + (peaks at k << B) + valleys at k - 2
        ((image << W | code) << 2B) + (valleys << B) + peaks

    Every field is a sum over the path's steps, so each packed integer is
    one too: a step adds its bit to the code and to the image, and a step
    that closes a corner adds one to its count. The image turns the pairs
    of opposite steps that start at ``paths._turn_start(k)``, read once. A
    peak at h closes a pair that starts at h - 1, and turning it takes 2^p
    off the image, p the down-step's bit; a valley at h closes one that
    starts at h + 1, and turning it adds 2^p. Pairs that start at one height
    never overlap, so each turn is one such term. A start below the axis or
    above every height matches no pair and turns nothing.

    The enumeration's walk, ``paths._split_walk``, sums the records, and
    then the swapped records, each its own lane. Its steps go down first, so
    the codes ascend. It builds no path object and turns no steps.
    """
    width, bits = 2 * n + 1, n.bit_length()
    start = paths._turn_start(k)

    def record(code: int, image: int, peaks: int, valleys: int) -> int:
        return ((code << width) + image << 2 * bits) + (peaks << bits) + valleys

    def swapped_record(code: int, image: int, peaks: int, valleys: int) -> int:
        return record(image, code, valleys, peaks)

    def lane(pack):
        def steps(h: int, ups: int, last_up: bool) -> list[tuple[int, tuple[int, int, bool]]]:
            # The steps from height h with ``ups`` up-steps left (not both 0),
            # down first. The next step is the code's bit 2 * ups + h - 1.
            bit = 1 << 2 * ups + h - 1
            out = []
            if h:
                peak = last_up  # a peak at h, whose pair starts at h - 1
                image = -bit if peak and h - 1 == start else 0
                out.append((pack(0, image, int(peak and h == k), 0), (h - 1, ups, False)))
            if ups:
                valley = not last_up  # a valley at h, whose pair starts at h + 1
                image = 2 * bit if valley and h + 1 == start else bit
                out.append((pack(bit, image, 0, int(valley and h == k - 2)), (h + 1, ups - 1, True)))
            return out

        return steps

    lead = record(1 << 2 * n, 1 << 2 * n, 0, 0)  # the leading 1 of the code and the image
    records: list[int] = []
    swapped: list[int] = []
    paths._split_walk(n, lead, lane(record), records.extend)
    paths._split_walk(n, lead, lane(swapped_record), swapped.extend)
    return records, swapped


def _swaps_hold(records: list[int], swapped: list[int]) -> bool:
    """Whether ``psi`` at k is an involution exchanging peaks at k with
    valleys at k - 2 on every path of one semilength, from ``_sweep``'s
    records and swapped records (``swapped`` is sorted in place).

    Path i's record packs (code, image, peaks, valleys) = (c, m, p, v) and
    its swapped record packs (m, c, v, p), each field in its own bits; the
    codes are distinct and ascending, so the records ascend. The swap holds
    exactly when the records are closed under (c, m, p, v) -> (m, c, v, p),
    that is when the sorted swapped records equal the records. If they are
    closed, each swapped record is some path's record: m is a code of the
    semilength whose own image is c and whose counts are (v, p). Conversely,
    if the swap holds, the map sends each record to its image's record, a
    bijection on the distinct codes. An image that is invalid or has
    another semilength matches no code.
    """
    swapped.sort()
    return swapped == records


def _first_swap_failure(n: int, k: int) -> str:
    """The first semilength-n path, in enumeration order, on which ``psi`` at
    k fails, found by direct calls, and how it fails."""
    for path in enumerate_paths(n):
        image = psi(path, k)
        before, after = statistics(path), statistics(image)
        if psi(image, k) != path:
            return f"not an involution at k={k}, path {path}"
        if (after.count(StatKind.VALLEY, k - 2), after.count(StatKind.PEAK, k)) != (
            before.count(StatKind.PEAK, k),
            before.count(StatKind.VALLEY, k - 2),
        ):
            return f"statistics not exchanged at k={k}, path {path}"
        if len(image.steps) != len(path.steps):
            return f"image of another semilength at k={k}, path {path}"
    raise InvariantError(f"psi at k={k} failed on semilength {n} but on no path of it by direct calls")


def _check_bijection(report: VerifyReport, n_max: int) -> None:
    """Certify that ``psi`` is an involution exchanging peaks at height k
    with valleys at height k - 2, on every path with n <= min(n_max, 10)
    and every k in 2..5.

    Each (n, k) is one walk, ``_sweep``, into two lists of ints, no path
    objects, and one sort, ``_swaps_hold``; only one (n, k) is held at a
    time. The walk sums each path's record from its steps, and its image
    turns the pairs that start at ``paths._turn_start(k)``, the one rule
    that ``psi`` reads too.

    Each (n, k) holds when the paths' records (code, image, peaks, valleys)
    are closed under the swap to (image, code, valleys, peaks). An image's
    code is among the records exactly when it is a Dyck path of semilength
    n, and its own image and counts were summed on its own walk: the swap
    reads back the second application of ``psi`` and the tally of the image.

    The report names the first counterexample of a sweep over every path
    for each k in turn (k-major): the smallest failing k, at the first n
    where it fails, and there the first failing path of ``enumerate_paths``,
    found by direct calls to the public ``psi``, which validates its image.
    """
    report.section("height-swap rewrite: involution and statistic exchange")
    n_cap = min(n_max, 10)
    ks = range(2, 6)
    cases = 0
    failures = []  # (k, n) pairs
    for n in range(n_cap + 1):
        for k in ks:
            records, swapped = _sweep(n, k)
            cases += len(records)
            if not _swaps_hold(records, swapped):
                failures.append((k, n))
            del records, swapped  # free them before the next walk
    if failures:
        k, n = min(failures)
        report.fail(_first_swap_failure(n, k))
        return
    report.ok(
        f"involution and (peaks at k) <-> (valleys at k-2) exchange hold on "
        f"{cases} (path, k) cases, n <= {n_cap}, k in 2..5"
    )


def _check_lemma(report: VerifyReport, order: int, z_order: int) -> None:
    report.section("closed form vs direct evaluation of the marked fraction")
    a = catalan_series(order) - 1
    for k in range(1, 7):
        closed = lemma_rhs(k, a, order, z_order)
        direct = lemma_iterated_cfrac(k, a, order, z_order)
        if closed != direct:
            report.fail(f"closed form disagrees with direct evaluation at k={k}")
            return
    report.ok(f"closed form matches direct evaluation for k in 1..6 at order {order}, z-order {z_order}")


def _check_cfrac(report: VerifyReport, order: int, r_max: int) -> None:
    report.section("continued-fraction consistency")
    if catalan_cfrac(order + 1, order) == catalan_series(order):
        report.ok(f"uniform fraction at depth {order + 1} reproduces the path series at order {order}")
    else:
        report.fail("uniform fraction does not reproduce the path series")
    catalan = catalan_series(order)
    for k in range(1, 5):
        marked = peak_bivar_cfrac(k, order, order)
        family = stat_family(StatKind.PEAK, k, order, r_max)
        bad_r = next((r for r in range(r_max + 1) if marked.z_slice(r) != family[r]), None)
        if bad_r is None:
            report.ok(f"k={k}: z^r slices equal the peak series for r <= {r_max} at order {order}")
        else:
            report.fail(f"k={k}: z^{bad_r} slice disagrees with the peak series")
        if marked.subs_z_one() == catalan:
            report.ok(f"k={k}: substituting z=1 recovers the path series at order {order}")
        else:
            report.fail(f"k={k}: substituting z=1 does not recover the path series")


def _check_peak1_printed(report: VerifyReport, n_max: int, r_max: int, enum_table) -> None:
    report.section("discrepancy check: height-1 peak series, printed vs implemented")
    report.note("implemented: x^r / (1 - x^2*C^2)^(r+1)   (blocks between arches may be empty)")
    report.note("printed:     d(r=0) + x^(3r+2)*C^(2r+2) / (1 - x^2*C^2)^(r+1)   (blocks forced nonempty)")
    family = stat_family(StatKind.PEAK, 1, n_max, min(r_max, 3))
    for r, series in enumerate(family):
        implemented = series.as_integer_sequence()
        printed = peak1_nonempty_blocks_gf(r, n_max).as_integer_sequence()
        oracle = [row[r] if r <= n else 0 for n, row in enumerate(enum_table.rows[StatKind.PEAK][1])]
        if implemented != oracle:
            report.fail(f"r={r}: implemented form disagrees with the enumeration oracle")
            report.note(f"implemented: {implemented}")
            report.note(f"oracle:      {oracle}")
            continue
        report.ok(f"r={r}: implemented form matches the enumeration oracle for n <= {n_max}")
        if printed == oracle:
            report.ok(f"r={r}: printed form matches as well")
        else:
            first = next(n for n in range(n_max + 1) if printed[n] != oracle[n])
            report.warn(
                f"r={r}: printed form disagrees with the oracle, first at n={first} "
                f"(printed {printed[first]}, oracle {oracle[first]})"
            )


def _check_valley0_binomial(report: VerifyReport, n_max: int, r_max: int, enum_table) -> None:
    report.section("discrepancy check: valleys at height 0, closed-count readings")
    report.note("columns: n r | coefficient-extraction | literal (r+1)/n*binom(2n-r-1,n+1) | oracle")
    mismatches = 0
    for n in range(1, n_max + 1):
        for r in range(min(r_max, n) + 1):
            extraction = valley0_closed_count(n, r)
            literal = _valley0_binomial_literal(n, r)
            oracle = enum_table.rows[StatKind.VALLEY][0][n][r]
            marker = "" if literal == oracle else "   <- literal differs"
            report.note(f"n={n:2d} r={r}: {extraction:>10d} | {literal!s:>10} | {oracle:>10d}{marker}")
            if extraction != oracle:
                report.fail(f"coefficient extraction wrong at n={n}, r={r}")
                return
            if literal != oracle:
                mismatches += 1
    report.ok(f"coefficient extraction matches the oracle on every cell (n <= {n_max}, r <= {r_max})")
    if mismatches:
        report.warn(
            f"literal binomial reading disagrees with the oracle on {mismatches} cells "
            f"(including non-integer values); coefficient extraction is authoritative"
        )


def _check_mark_convention(report: VerifyReport, order: int, r_max: int) -> None:
    report.section("discrepancy check: raw mark z vs semilength mark x*z")
    k = 1
    raw_mark = BivarSeries.monomial(1, 0, 1, r_max, order)
    raw = _marked_fraction(k, raw_mark, BivarSeries.from_series(catalan_series(order), r_max))
    family = stat_family(StatKind.PEAK, k, order, r_max)
    shifts_ok = all(raw.z_slice(r).shift(r) == family[r] for r in range(r_max + 1))
    if not shifts_ok:
        report.fail("raw-mark slices do not reduce to the peak series after the x^r shift")
        return
    report.ok(f"x^r * (raw z^r slice) equals the peak series for r <= {r_max} at height {k}")
    first_diff = next(
        (r for r in range(r_max + 1) if raw.z_slice(r) != family[r]), None
    )
    if first_diff is not None:
        report.warn(
            f"raw mark omits the x-weight of marked down-steps: slices differ from the "
            f"counting series starting at r={first_diff}; the library therefore marks with x*z"
        )


def run_verify(
    n_max: int = 12,
    k_max: int = 5,
    r_max: int = 4,
    order: int = 30,
    guard: int = DEFAULT_ENUM_GUARD,
) -> VerifyReport:
    """Run the full cross-check suite and return the assembled report; the
    bounds n_max >= 0, k_max >= 1 and 0 <= r_max <= order are checked first."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if not 0 <= r_max <= order:
        raise ValueError("r_max must be between 0 and order")
    report = VerifyReport()
    report.lines.append(
        f"cross-validation report (n_max={n_max}, k_max={k_max}, r_max={r_max}, "
        f"order={order}, guard={guard})"
    )
    report.lines.append("")
    tables = {method: build_table(n_max, k_max, method, guard=guard) for method in ("enum", "dp", "gf")}
    _check_three_way(report, tables, n_max, k_max)
    _check_bijection(report, n_max)
    _check_lemma(report, order, r_max)
    _check_cfrac(report, order, r_max)
    _check_peak1_printed(report, n_max, r_max, tables["enum"])
    _check_valley0_binomial(report, n_max, r_max, tables["enum"])
    _check_mark_convention(report, min(order, 12), min(r_max, 3))
    report.section("summary")
    status = "OK" if report.passed else "FAILED"
    report.lines.append(
        f"{status}: {report.failures} failures, {report.warnings} warnings "
        f"(warnings document printed-formula discrepancies confirmed against the oracle)"
    )
    return report
