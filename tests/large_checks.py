"""The large cross-route checks: the counting routes against each other far
past the n <= 12 of ``dyckpeaks verify``, the benchmark commands against
their pinned digests, and the benchmark commands' start-up imports.

Tier-1 does not collect this file, since its name is not ``test_*.py``.
``python -B -m pytest tests/large_checks.py`` runs every check, and a node
id such as ``tests/large_checks.py::test_certificate_holds_for_n_11_to_13``
runs one. Every child process runs under a 300 s limit.
"""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from dyckpeaks.cfrac import peak_bivar_cfrac
from dyckpeaks.gfcount import stat_family, stat_gf
from dyckpeaks.paths import StatKind, _dp_distribution, _turn, count_exact_dp
from dyckpeaks.series import catalan_series
from dyckpeaks.verify import _swaps_hold, _sweep

ROOT = Path(__file__).resolve().parent.parent
# read, never imported, so that nothing is written under perfbench/
CLI_ARGS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["CLI_ARGS"]
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def cli(*args, flags=()):
    """``python -m dyckpeaks.cli`` with ``args`` in a child process, its
    stdout and stderr captured as bytes."""
    command = [sys.executable, "-B", *flags, "-m", "dyckpeaks.cli", *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(command, env=env, capture_output=True, check=True, timeout=300)


def same_output(args, *methods):
    """Every method prints the same bytes for the CLI arguments ``args``, and
    they are not empty."""
    first, *others = (cli(*args.split(), "--method", method).stdout for method in methods)
    assert first, f"{methods[0]} printed nothing"
    for method, out in zip(methods[1:], others):
        assert out == first, f"{method} differs from {methods[0]}"


@pytest.mark.parametrize("args", ["count --stat valley --k 4 --r 3 --n 3000", "count --stat peak --k 1 --r 4 --n 3000"])
def test_series_route_equals_the_dp_at_n_3000(args):
    same_output(args, "gf", "dp")


def test_series_route_equals_the_dp_at_k_100():
    # the bounded-height check walks the band of heights 0..100
    same_output("count --stat valley --k 100 --r 0 --n 1000", "gf", "dp")


@pytest.mark.parametrize("k", [1998, 1999, 2000])
def test_bounded_height_check_at_the_clamp_agrees_with_the_dp(k):
    # the gf run reads R_{k+1} = q_k/q_{k+1} from r_series(k + 1, 2000), C's
    # first k + 1 coefficients continued by the quotient by q_{k+1}, and the
    # band walk checks every coefficient: k = 1998 seeds 1999 terms and
    # computes 2, k = 1999 computes 1 with 1000 products, and at k = 2000
    # the seed is all of C, so the walk checks C itself and both routes
    # print Catalan(2000)
    same_output(f"count --stat valley --k {k} --r 0 --n 2000", "gf", "dp")


@pytest.mark.parametrize("fmt", ["csv", "json", "plain"])
def test_series_table_equals_the_dp_table_at_n_120(fmt):
    # the gf table reads every slice from a family, so the DP checks every
    # family; one writer renders all three formats, so each is compared
    same_output(f"table --n-max 120 --k-max 5 --format {fmt}", "gf", "dp")


@pytest.mark.parametrize("args", ["table --n-max 14 --k-max 5 --format csv", "table --n-max 12 --k-max 20 --format csv"])
def test_enumeration_table_equals_the_dp_table_at_the_guard(args):
    # n = 14 is the guard: 3.7M paths; k-max 20 at n-max 12 also fills the
    # rows above every corner
    same_output(args, "enum", "dp")


@pytest.mark.parametrize("kind", StatKind)
def test_each_family_slice_equals_its_single_slice_at_order_1000(kind):
    # stat_family reads slice 0 as x^{k+1} times its one band quotient and
    # the later slices by products; stat_gf divides once per slice
    for k in (1, 2, 4, 9):
        assert stat_family(kind, k, 1000, 2) == tuple(stat_gf(kind, k, r, 1000) for r in range(3)), k


@pytest.mark.parametrize("kind, k, r", [(StatKind.PEAK, 4, 2), (StatKind.VALLEY, 0, 3)])
def test_single_dp_count_equals_row_n_of_the_sweep_at_n_1500(kind, k, r):
    # count_exact_dp reads the middle point of the sweep's first half, in
    # digits of n + 2 bits, and _dp_distribution height 0 after all 2n
    # steps, in digits of 2n + 2 bits; n is even, so in both cases the
    # middle point can be a corner at k
    assert count_exact_dp(1500, k, r, kind) == _dp_distribution(1500, k, kind, r + 1)[1500][r]


@pytest.mark.parametrize("k, r", [(4, 2), (1, 4), (2, 3), (9, 2), (40, 1)])
def test_continued_fraction_equals_the_dp_at_n_3000(k, r):
    # k = 1 and 2 are the edge cases of the fraction's split at the mark (no
    # unmarked level, one), k = 9 lies one past the deepest height (8) that
    # deep-count asks the fraction for, and k = 40 runs 39 unmarked levels
    assert peak_bivar_cfrac(k, 3000, r).z_slice(r).coefficient(3000) == count_exact_dp(3000, k, r, StatKind.PEAK)


@pytest.mark.parametrize("k", [1, 4, 9])
def test_peak_fraction_equals_the_family_over_301_z_levels(k):
    # the fraction's division forms each z-slice as the running sum
    # out_i = out_(i-1) + d_i, so a drift in the sums shows at high z
    marked = peak_bivar_cfrac(k, 300, 300)
    assert tuple(marked.z_slice(r) for r in range(301)) == stat_family(StatKind.PEAK, k, 300, 300)
    assert marked.subs_z_one() == catalan_series(300)


def test_single_count_routes_agree_at_n_400():
    # deep-count's whole query space (both kinds, k <= 8, r <= 4) at twice
    # its largest n: the direct slice against the DP, and for peaks at
    # k >= 1 against the continued fraction too
    for kind in StatKind:
        for k in range(9):
            for r in range(5):
                gf = stat_gf(kind, k, r, 400).coefficient(400)
                assert gf == count_exact_dp(400, k, r, kind), (kind, k, r)
                if kind is StatKind.PEAK and k >= 1:
                    assert gf == peak_bivar_cfrac(k, 400, r).z_slice(r).coefficient(400), (kind, k, r)


def test_counts_past_the_print_cap_agree_across_routes():
    # CPython 3.10.7 and later print no int of more than 4300 digits unless
    # the cap is lifted, as cli.main does for its command: peaks at k = 4,
    # r = 2, n = 12000 have 7218 digits
    gf = cli(*"count --stat peak --k 4 --r 2 --n 12000 --method gf".split()).stdout
    cfrac = peak_bivar_cfrac(4, 12000, 2).z_slice(2).coefficient(12000)
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        assert gf == f"{cfrac}\n".encode()
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    same_output("count --stat valley --k 4 --r 3 --n 7200", "gf", "dp")


def turned(code, k):
    """The code of ``_turn`` at k on the steps of a path's code."""
    steps = [1 if bit == "1" else -1 for bit in bin(code)[3:]]
    return int("1" + "".join("1" if step > 0 else "0" for step in _turn(steps, k)), 2)


@pytest.mark.parametrize("n, catalan", [(11, 58786), (12, 208012), (13, 742900)])
def test_certificate_holds_for_n_11_to_13(n, catalan):
    # past the n <= 10 of verify's pinned report, with the report's own walk
    # and check. The check cannot see a walk that drops a swap-closed set of
    # paths, so the walk must hold every path. It certifies the walk's own
    # map, so at n = 11 each image must also be the code of psi's step
    # kernel, paths._turn, on the steps decoded from its code
    width, bits = 2 * n + 1, n.bit_length()  # a record packs code, image, peaks, valleys
    for k in range(2, 6):
        records, swapped = _sweep(n, k)
        assert len(records) == catalan, k
        assert _swaps_hold(records, swapped), k
        if n == 11:
            pairs = ((record >> width + 2 * bits, record >> 2 * bits & (1 << width) - 1) for record in records)
            assert [code for code, image in pairs if image != turned(code, k)] == [], k


@pytest.mark.parametrize("name", CLI_ARGS)
def test_benchmark_commands_match_their_pinned_digests(name):
    assert hashlib.sha256(cli(*CLI_ARGS[name]).stdout).hexdigest() == EXPECTED[name]["sha256"]


@pytest.mark.parametrize("name", CLI_ARGS)
def test_benchmark_commands_import_no_dataclasses_inspect_or_json(name):
    # -S keeps out what the host's .pth files import; under -m, dyckpeaks.cli
    # runs as __main__, so the parse must list dyckpeaks.paths
    err = cli(*CLI_ARGS[name], flags=("-S", "-X", "importtime")).stderr.decode()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert "dyckpeaks.paths" in loaded
    assert sorted(m for m in loaded if m.split(".")[0] in {"dataclasses", "inspect", "json"}) == []
