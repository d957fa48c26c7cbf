"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from hashlib import sha256
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from io import StringIO
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyckpeaks import chebyshev, cli, gfcount, paths, verify
from dyckpeaks.cli import main
from dyckpeaks.gfcount import stat_gf, valley0_closed_count
from dyckpeaks.paths import DOWN, UP, StatKind, build_table, count_exact_dp
from dyckpeaks.series import Series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_plain(capsys):
    code, out, _ = run(capsys, "series", "--stat", "peak", "--k", "1", "--r", "0", "--order", "6")
    assert code == 0
    assert out.strip() == "1,0,1,2,6,18,57"


def test_series_csv(capsys):
    code, out, _ = run(
        capsys, "series", "--stat", "valley", "--k", "0", "--r", "0", "--order", "3",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[:3] == ["n,coefficient", "0,1", "1,1"]


def test_long_series_csv_equals_the_plain_coefficients(capsys):
    # 2501 lines of up to ~1500 digits: each one ends in a newline and holds
    # its own coefficient, in order
    argv = ("series", "--stat", "peak", "--k", "2", "--r", "1", "--order", "2500")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    coeffs = plain.rstrip("\n").split(",")
    assert len(coeffs) == 2501
    assert run(capsys, *argv, "--format", "csv") == (
        0, "n,coefficient\n" + "".join(f"{n},{c}\n" for n, c in enumerate(coeffs)), ""
    )


def test_series_json_uses_decimal_strings(capsys):
    code, out, _ = run(
        capsys, "series", "--stat", "peak", "--k", "1", "--r", "0", "--order", "40",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 40
    assert doc["coefficients"][6] == "57"
    assert all(isinstance(c, str) for c in doc["coefficients"])


@pytest.mark.parametrize("method", ["enum", "dp", "gf"])
def test_count_methods_agree(capsys, method):
    code, out, _ = run(
        capsys, "count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "6",
        "--method", method,
    )
    assert code == 0
    assert out.strip() == "57"


@pytest.mark.parametrize("stat, k, r", [("peak", "4", "2"), ("valley", "7", "3"), ("valley", "100", "0")])
def test_count_gf_and_dp_print_the_same_bytes_at_n_1000(capsys, stat, k, r):
    argv = ("count", "--stat", stat, "--k", k, "--r", r, "--n", "1000", "--method")
    gf, dp = run(capsys, *argv, "gf"), run(capsys, *argv, "dp")
    assert gf == dp
    assert gf[0] == 0 and gf[1].strip().isdigit()


def test_count_gf_and_dp_print_the_same_bytes_for_peaks_at_height_1(capsys):
    # height 1 reads the band factor at height -1 and divides by (2 + x)^5
    argv = ("count", "--stat", "peak", "--k", "1", "--r", "4", "--n", "800", "--method")
    gf, dp = run(capsys, *argv, "gf"), run(capsys, *argv, "dp")
    assert gf == dp
    assert gf[0] == 0 and gf[1].strip().isdigit()


# -- counts past the interpreter's int-to-str digit cap --------------------------
# CPython 3.10.7 and later refuse to print an int of more than 4300 digits
# unless the cap is lifted; valley counts at height 0, r = 2, pass it near
# n = 7200. valley0_closed_count is binomials and no series.

VALLEY0_R2 = ("--stat", "valley", "--k", "0", "--r", "2")


def digit_cap():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


@contextmanager
def no_digit_cap():
    cap = digit_cap()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_a_count_past_the_digit_cap_prints_the_binomial_closed_form(capsys):
    cap = digit_cap()
    result = run(capsys, "count", *VALLEY0_R2, "--n", "8000", "--method", "gf")
    assert digit_cap() == cap
    with no_digit_cap():
        expected = f"{valley0_closed_count(8000, 2)}\n"
    assert len(expected) > 4800
    assert result == (0, expected, "")


def test_the_last_series_coefficient_past_the_digit_cap_is_the_closed_form(capsys):
    cap = digit_cap()
    code, out, err = run(capsys, "series", *VALLEY0_R2, "--order", "7200", "--format", "json")
    assert digit_cap() == cap
    assert (code, err) == (0, "")
    last = json.loads(out)["coefficients"][-1]
    with no_digit_cap():
        expected = str(valley0_closed_count(7200, 2))
    assert len(expected) > 4300
    assert last == expected


IMPORT_AND_MAIN = """import sys
def digit_cap():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
cap = digit_cap()
import dyckpeaks, dyckpeaks.cli
assert digit_cap() == cap, "import changed the cap"
code = dyckpeaks.cli.main(sys.argv[1:])
assert digit_cap() == cap, "main changed the cap"
sys.exit(code)
"""


def test_a_fresh_import_and_main_leave_the_digit_cap_as_they_found_it():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_AND_MAIN, "count", *VALLEY0_R2, "--n", "8000", "--method", "gf"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout.strip()) > 4800


# -- start-up imports: a command loads the layers it runs ----------------------
# verify and cfrac are imported inside their commands, and the package serves
# the cfrac names on first use, so the other commands never compile them;
# json is imported only where JSON is read or written. -S keeps the modules
# that the host's .pth files import out of sys.modules.

SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

COMMANDS_THEN_LAYERS = """import sys
from dyckpeaks.cli import main
for argv in sys.argv[1:]:
    assert main(argv.split()) == 0, argv
    print(sorted({"dyckpeaks.cfrac", "dyckpeaks.verify", "json"} & set(sys.modules)), file=sys.stderr)
"""


def test_commands_without_a_fraction_load_neither_verify_nor_cfrac():
    # the commands that need no json module come first: json stays unloaded
    # until the first that does; the table writes its JSON layout itself
    plain = [
        f"table --method {method} --n-max 6 --k-max 3 --format {fmt}"
        for method, fmt in (("gf", "csv"), ("dp", "json"), ("enum", "plain"), ("dp", "plain"))
    ] + [
        f"count --stat peak --k 2 --r 1 --n 9 --method {method}" for method in ("gf", "dp", "enum")
    ] + [
        "series --stat peak --k 2 --r 1 --format csv",
        "bijection --map psi --k 2 --path UUDUDD",
    ]
    with_json = [
        "series --stat valley --k 1 --r 0 --format json",
        "bijection --map theta --path UUDD --format json",
    ]
    done = subprocess.run(
        [sys.executable, "-S", "-c", COMMANDS_THEN_LAYERS, *plain, *with_json],
        env=SRC_ENV, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "[]\n" * len(plain) + "['json']\n" * len(with_json))


IMPORTED_AT_START = """import sys
import dyckpeaks.cli, dyckpeaks.verify
print(sorted({"dataclasses", "inspect", "json"} & set(sys.modules)))
"""


def test_start_up_imports_no_dataclasses_inspect_or_json():
    done = subprocess.run(
        [sys.executable, "-S", "-c", IMPORTED_AT_START], env=SRC_ENV, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_start_up_imports_no_typing():
    # every annotation is a string, and no module asks typing for an alias
    script = "import sys\nimport dyckpeaks.cli, dyckpeaks.verify\nprint('typing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=SRC_ENV, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "False\n")


CLI_MAIN = "import sys\nfrom dyckpeaks.cli import main\nsys.exit(main(sys.argv[1:]))"


def test_verify_and_cfrac_print_their_pinned_bytes_from_a_fresh_process(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(DENSE_LAMBDA_SPEC)
    for argv, digest in (
        (["verify"], "4155400197daac625527afbfb7f6657d697d3132fa51113442a7d1e0b2784614"),
        (
            ["cfrac", "--spec", str(spec), "--order", "30", "--z-order", "2", "--format", "csv"],
            "cb57d02f89c063a805ee206a658be4767cb7ffcd83122d909924442a8f304836",
        ),
    ):
        done = subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *argv], env=SRC_ENV, capture_output=True, timeout=120
        )
        assert (done.returncode, done.stderr) == (0, b""), argv
        assert sha256(done.stdout).hexdigest() == digest, argv


PACKAGE_NAMES = """import sys
import dyckpeaks
assert "dyckpeaks.cfrac" not in sys.modules, "importing the package loaded cfrac"
unresolved = [name for name in dyckpeaks.__all__ if getattr(dyckpeaks, name, None) is None]
star = {}
exec("from dyckpeaks import *", star)
from dyckpeaks import cfrac
try:
    dyckpeaks.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(unresolved, sorted(set(dyckpeaks.__all__) ^ set(star) - {"__builtins__"}))
print(dyckpeaks.peak_bivar_cfrac is cfrac.peak_bivar_cfrac and dyckpeaks.WeightSpec is cfrac.WeightSpec)
print(missing)
"""


def test_every_public_name_resolves_and_the_cfrac_names_are_cfracs():
    done = subprocess.run(
        [sys.executable, "-c", PACKAGE_NAMES], env=SRC_ENV, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[] []\nTrue\nmodule 'dyckpeaks' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("series", "--stat", "peak", "--k", "-1", "--r", "0"), "error: k and r must be >= 0"),
        (("series", "--stat", "valley", "--k", "1", "--r", "-1"), "error: k and r must be >= 0"),
        (("series", "--stat", "peak", "--k", "1", "--r", "0", "--order", "-2"), "error: order must be >= 0"),
    ],
)
def test_gf_input_errors_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.strip() == message


@pytest.mark.parametrize("method", ["enum", "dp", "gf"])
@pytest.mark.parametrize(
    "n, k, r",
    [("3", "-1", "0"), ("3", "1", "-1"), ("-1", "1", "0")],
)
def test_count_negative_input_exits_1(capsys, method, n, k, r):
    # the enumeration route once printed 5 for k = -1 and 0 for r = -1, and
    # the gf route once named its own argument ("order", "k and r")
    code, out, err = run(
        capsys, "count", "--stat", "peak", "--k", k, "--r", r, "--n", n, "--method", method,
    )
    assert code == 1
    assert out == ""
    assert err.strip() == "error: n, k, r must be >= 0"


def test_table_enum_guard_exits_1(capsys):
    code, out, err = run(capsys, "table", "--n-max", "15", "--k-max", "2", "--method", "enum")
    assert code == 1
    assert out == ""
    assert err.strip() == (
        "error: semilength 15 exceeds the enumeration guard 14; pass guard=15 to override deliberately"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("verify",),
        ("table", "--n-max", "3", "--k-max", "1", "--method", "enum"),
        ("table", "--n-max", "3", "--k-max", "1", "--method", "dp"),
        ("table", "--n-max", "3", "--k-max", "1", "--method", "gf"),
        ("count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "3", "--method", "enum"),
        ("count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "3", "--method", "dp"),
        ("count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "3", "--method", "gf"),
    ],
)
def test_negative_enum_guard_exits_1(capsys, argv):
    # it once read "semilength 12 exceeds the enumeration guard -1; pass guard=12 ...",
    # and the dp and gf routes once ignored it
    code, out, err = run(capsys, *argv, "--enum-guard", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: guard must be >= 0\n"


def test_failed_internal_check_exits_2(capsys, monkeypatch):
    # a wrong polynomial table makes the two bounded-height routes disagree
    monkeypatch.setattr(chebyshev, "q_poly", lambda k: (1, -k))
    code, out, err = run(capsys, "series", "--stat", "valley", "--k", "1", "--r", "0", "--order", "6")
    assert code == 2
    assert out == ""
    assert err == "error: bounded-height series routes disagree at k=2\n"


def test_invalid_psi_image_in_verify_exits_2(capsys, monkeypatch):
    # A turn rule one level too low turns the pairs that start on the axis,
    # so the image of UD at k = 2 is DU. No semilength-1 code matches it, and
    # the public psi that names the counterexample rejects the image.
    monkeypatch.setattr(paths, "_turn_start", lambda k: k - 2)
    code, out, err = run(capsys, "verify", "--n-max", "3", "--k-max", "2", "--r-max", "1", "--order", "4")
    assert code == 2
    assert out == ""
    assert err == "error: rewrite produced an invalid path: path dips below the axis (index 0)\n"


def test_a_remainder_in_the_closed_form_exits_2(capsys, monkeypatch):
    # binom(2m + j, m) off by one for m >= 1: the valley section's first
    # such coefficient, m = 1 and j = 1 at n = 2, reads 4 / 3
    monkeypatch.setattr(gfcount, "comb", lambda n, k: comb(n, k) + (k > 0))
    code, out, err = run(capsys, "verify", "--n-max", "3", "--k-max", "1", "--r-max", "1", "--order", "4")
    assert code == 2
    assert out == ""
    assert err == "error: non-integral coefficient for m=1, j=1\n"


def reshaped_gf_table(monkeypatch, reshape):
    # verify's gf table with its valley rows at k = 1 reshaped
    def build(n_max, k_max, method, **kwargs):
        table = build_table(n_max, k_max, method, **kwargs)
        if method == "gf":
            reshape(table.rows[StatKind.VALLEY][1], n_max)
        return table

    monkeypatch.setattr(verify, "build_table", build)


def test_an_extra_table_row_in_verify_fails_and_exits_2(capsys, monkeypatch):
    # every enumeration cell still agrees: the extra row is found by shape
    reshaped_gf_table(monkeypatch, lambda rows, n_max: rows.append([0] * (n_max + 2)))
    code, out, err = run(capsys, "verify", "--n-max", "4", "--k-max", "2", "--r-max", "1", "--order", "4")
    assert code == 2
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        "FAIL method gf: rows at (k=1, kind=valley) have lengths [1, 2, 3, 4, 5, 6], expected [1, 2, 3, 4, 5]",
    ]


def test_a_missing_table_row_in_verify_fails_and_exits_2(capsys, monkeypatch):
    reshaped_gf_table(monkeypatch, lambda rows, n_max: rows.pop())
    code, out, err = run(capsys, "verify", "--n-max", "4", "--k-max", "2", "--r-max", "1", "--order", "4")
    assert code == 2
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        "FAIL method gf: rows at (k=1, kind=valley) have lengths [1, 2, 3, 4], expected [1, 2, 3, 4, 5]",
        "FAIL method gf: no row at (n=4, k=1, kind=valley)",
    ]


def test_invalid_psi_image_in_bijection_exits_2(capsys, monkeypatch):
    # the public psi validates the turned steps, whatever the turn returns
    monkeypatch.setattr(paths, "_turn", lambda steps, k: [UP, DOWN, DOWN, UP])
    code, out, err = run(capsys, "bijection", "--map", "psi", "--k", "2", "--path", "UUDD")
    assert code == 2
    assert out == ""
    assert err == "error: rewrite produced an invalid path: path dips below the axis (index 2)\n"


def test_non_integral_counting_series_exits_2(capsys, monkeypatch):
    # a fractional coefficient in a counting series is a formula bug
    monkeypatch.setattr(
        cli, "stat_gf", lambda kind, k, r, order: Series.from_coeffs([1, Fraction(1, 2)], order)
    )
    code, out, err = run(
        capsys, "count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "3", "--method", "gf",
    )
    assert code == 2
    assert out == ""
    assert err == "error: coefficient of order 1 is non-integral: 1/2\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("series", "--stat", "valley", "--k", "2000", "--r", "0", "--order", "5"), "1,1,2,5,14,42"),
        (("count", "--stat", "peak", "--k", "3000", "--r", "0", "--n", "5", "--method", "gf"), "42"),
        (("count", "--stat", "peak", "--k", "3000", "--r", "1", "--n", "5", "--method", "gf"), "0"),
    ],
)
def test_heights_above_the_order_give_the_k_free_answer(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == expected


def test_count_empty_path(capsys):
    code, out, _ = run(
        capsys, "count", "--stat", "valley", "--k", "0", "--r", "0", "--n", "0",
        "--method", "enum",
    )
    assert code == 0
    assert out.strip() == "1"


def test_count_enum_guard(capsys):
    code, _, err = run(
        capsys, "count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "16",
        "--method", "enum",
    )
    assert code == 1
    assert "guard" in err
    code, out, _ = run(
        capsys, "count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "6",
        "--method", "enum", "--enum-guard", "6",
    )
    assert code == 0


def test_enumeration_past_the_recursion_limit_exits_1(capsys):
    # the tallying search recurses once per step; the message itself
    # differs between Python versions
    code, out, err = run(
        capsys, "count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "600",
        "--method", "enum", "--enum-guard", "600",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_table_csv(capsys):
    code, out, _ = run(
        capsys, "table", "--n-max", "6", "--k-max", "1", "--method", "dp",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,r,kind,count"
    assert "6,1,0,peak,57" in lines


def test_table_csv_and_json(capsys):
    argv = ("table", "--n-max", "2", "--k-max", "1", "--method", "dp", "--format")
    code, csv_text, _ = run(capsys, *argv, "csv")
    assert code == 0
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,k,r,kind,count"
    assert "2,1,2,peak,1" in lines  # UDUD has two peaks at height 1
    code, json_text, _ = run(capsys, *argv, "json")
    assert code == 0
    assert '"count": "1"' in json_text  # decimal strings, not JSON numbers


def test_table_dp_csv_equals_gf_csv_byte_for_byte(capsys):
    argv = ("table", "--n-max", "40", "--k-max", "5", "--format", "csv", "--method")
    code, dp, _ = run(capsys, *argv, "dp")
    assert code == 0
    code, gf, _ = run(capsys, *argv, "gf")
    assert code == 0
    assert dp == gf
    # the gf-table bytes that perfbench/expected.json pins
    assert sha256(dp.encode()).hexdigest() == (
        "f2bea75dcce5854a2f3e50f39ca88d070c7d97b5df0ab13e6af5cacebfed076c"
    )


def test_default_verify_report_bytes_are_pinned(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    # the verify-default bytes that perfbench/expected.json pins
    assert sha256(out.encode()).hexdigest() == (
        "4155400197daac625527afbfb7f6657d697d3132fa51113442a7d1e0b2784614"
    )


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("plain", "6de200e513ee0964e90756995f13c38ee364a2c2a8299995727b91cf2b8ff4fa"),
        ("json", "1190d4159802bcd21d7de1de72f916c809828710fb036bacc0822ad20f54f3e5"),
    ],
)
def test_table_plain_and_json_bytes_are_pinned(capsys, fmt, digest):
    # the cell order and layout as well as the counts; the CSV bytes are
    # pinned by the dp/gf comparison and the benchmark's expected digest
    code, out, _ = run(
        capsys, "table", "--method", "enum", "--n-max", "6", "--k-max", "3", "--format", fmt,
    )
    assert code == 0
    assert sha256(out.encode()).hexdigest() == digest


def test_table_json_and_plain_agree(capsys):
    code, plain, _ = run(capsys, "table", "--n-max", "3", "--k-max", "2", "--method", "gf")
    assert code == 0
    code, js, _ = run(
        capsys, "table", "--n-max", "3", "--k-max", "2", "--method", "enum",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(js)
    from_json = {
        (row["n"], row["k"], row["r"], row["kind"]): int(row["count"])
        for row in doc["entries"]
    }
    from_plain = {}
    for line in plain.splitlines():
        n, k, r, kind, count = line.split()
        from_plain[(int(n), int(k), int(r), kind)] = int(count)
    assert from_json == from_plain


def test_table_json_is_the_json_dumps_layout_across_write_batches(capsys):
    # 2772 cells, written as 126 strings, one per (n, k) pair of rows: the
    # streamed text is the indent=2 layout of its own document, and holds
    # the table's counts
    code, out, _ = run(capsys, "table", "--n-max", "20", "--k-max", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert [int(row["count"]) for row in doc["entries"]] == [
        count
        for _, _, peaks, valleys in build_table(20, 5, "dp").row_pairs()
        for pair in zip(peaks, valleys)
        for count in pair
    ]


def test_bijection_psi(capsys):
    code, out, _ = run(capsys, "bijection", "--map", "psi", "--k", "2", "--path", "UUDD")
    assert code == 0
    assert "UDUD" in out


def test_bijection_psi_requires_k(capsys):
    code, _, err = run(capsys, "bijection", "--map", "psi", "--path", "UUDD")
    assert code == 1
    assert "--k" in err


def test_bijection_theta(capsys):
    code, out, _ = run(
        capsys, "bijection", "--map", "theta", "--path", "UUDUDD", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["output"]["path"] == "UDUD"
    assert doc["input"]["peaks"] == {"2": 2}


def test_bijection_theta_of_the_empty_path(capsys):
    assert run(capsys, "bijection", "--map", "theta", "--path", "") == (
        0,
        "input: (empty)\n"
        "  peaks by height:   -\n"
        "  valleys by height: -\n"
        "output: none (empty path has no outer arch)\n",
        "",
    )


def test_bijection_theta_rejects_valley_at_0(capsys):
    code, _, err = run(capsys, "bijection", "--map", "theta", "--path", "UDUD")
    assert code == 1
    assert "valley" in err


def test_bijection_bad_path(capsys):
    code, _, err = run(capsys, "bijection", "--map", "psi", "--k", "2", "--path", "UDD")
    assert code == 1
    assert "index 2" in err


def test_cfrac_spec_file(capsys, tmp_path):
    spec = tmp_path / "catalan.json"
    spec.write_text('{"depth": 9, "lambdas": "x", "mus": "x", "tail": 1}')
    code, out, _ = run(capsys, "cfrac", "--spec", str(spec), "--order", "8")
    assert code == 0
    assert out.strip() == "z^0: 1,1,2,5,14,42,132,429,1430"


def test_cfrac_marked_spec(capsys, tmp_path):
    spec = tmp_path / "marked.json"
    spec.write_text('{"depth": 1, "lambdas": "x", "mus": "x*z", "tail": "C"}')
    code, out, _ = run(
        capsys, "cfrac", "--spec", str(spec), "--order", "6", "--z-order", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z^0: 1,0,1,2,6,18,57"


DENSE_LAMBDA_SPEC = (
    '{"depth": 5, "lambdas": ["C", "x", "xC2", "x", ["x", "xC2"]], '
    '"mus": ["x", "x*z", "x", ["x","z"], "x"], "tail": "C"}'
)
NON_UNIT_SPEC = (
    '{"depth": 4, "lambdas": ["2*x", "3", "x", "x^2"], '
    '"mus": ["5", ["x", "z"], "-2", "x"], "tail": 3}'
)
LEVEL_2_SINGULAR_SPEC = '{"depth": 3, "lambdas": ["x", "x", "x"], "mus": ["x", 1, "x"], "tail": 1}'


# sha256 of the csv bytes as computed by the level-by-level evaluator (one
# bivariate reciprocal per level); the continuant recurrence must reproduce
# them exactly, Fraction coefficients included
@pytest.mark.parametrize(
    "text, argv, digest",
    [
        (DENSE_LAMBDA_SPEC, ("--order", "30", "--z-order", "2"),
         "cb57d02f89c063a805ee206a658be4767cb7ffcd83122d909924442a8f304836"),
        (NON_UNIT_SPEC, ("--order", "12", "--z-order", "1"),
         "9a4eed918d6144e06186215c87c9f4526c6a89b933a1822b5c1abaa4542527f0"),
    ],
)
def test_cfrac_csv_bytes_are_pinned(capsys, tmp_path, text, argv, digest):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, _ = run(capsys, "cfrac", "--spec", str(spec), *argv, "--format", "csv")
    assert code == 0
    assert sha256(out.encode()).hexdigest() == digest


def test_long_cfrac_csv_equals_the_plain_output(capsys, tmp_path):
    # 1202 lines: every (z, n) cell in order, each line ending in a newline
    spec = tmp_path / "spec.json"
    spec.write_text('{"depth": 6, "lambdas": "x", "mus": ["x", "x", "x", "x", "x", "x*z"], "tail": "C"}')
    argv = ("cfrac", "--spec", str(spec), "--order", "600", "--z-order", "1")
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    entries = [line.split(": ")[1].split(",") for line in plain.splitlines()]
    assert [len(coeffs) for coeffs in entries] == [601, 601]
    cells = "".join(f"{j},{n},{c}\n" for j, coeffs in enumerate(entries) for n, c in enumerate(coeffs))
    assert run(capsys, *argv, "--format", "csv") == (0, "z,n,coefficient\n" + cells, "")


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("plain", "z^0: -1/2,0,0\n"),
        ("csv", "z,n,coefficient\n0,0,-1/2\n0,1,0\n0,2,0\n"),
        ("json", json.dumps({"z_order": 0, "x_order": 2, "entries": [["-1/2", "0", "0"]]}, indent=2) + "\n"),
    ],
)
def test_cfrac_prints_a_fraction_as_p_over_q(capsys, tmp_path, fmt, expected):
    # 1 / (1 - 3) = -1/2 is the constant term
    spec = tmp_path / "spec.json"
    spec.write_text('{"depth": 1, "lambdas": 0, "mus": 3}')
    code, out, _ = run(capsys, "cfrac", "--spec", str(spec), "--order", "2", "--format", fmt)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("plain", "1,1/2,0\n"),
        ("csv", "n,coefficient\n0,1\n1,1/2\n2,0\n"),
        ("json", json.dumps({"order": 2, "coefficients": ["1", "1/2", "0"]}, indent=2) + "\n"),
    ],
)
def test_series_prints_a_fraction_as_p_over_q(capsys, monkeypatch, fmt, expected):
    monkeypatch.setattr(
        cli, "stat_gf", lambda kind, k, r, order: Series.from_coeffs([1, Fraction(1, 2)], order)
    )
    code, out, _ = run(
        capsys, "series", "--stat", "peak", "--k", "1", "--r", "0", "--order", "2", "--format", fmt,
    )
    assert (code, out) == (0, expected)


@pytest.mark.parametrize(
    "text, argv, message",
    [
        (LEVEL_2_SINGULAR_SPEC, (), "error: denominator at level 2 is not invertible"),
        (DENSE_LAMBDA_SPEC, ("--order", "-1"), "error: order must be >= 0"),
        (DENSE_LAMBDA_SPEC, ("--z-order", "-1"), "error: z_order must be >= 0"),
        ("[1]", (), "error: weight spec must be a JSON object"),
        ('{"depth": 1, "lambdas": "x"}', (), "error: weight spec needs `lambdas` and `mus`"),
        ('{"depth": 1, "lambdas": true, "mus": "x"}', (), "error: invalid weight expression: True"),
        ('{"depth": 1, "lambdas": 1.5, "mus": "x"}', (), "error: invalid weight expression: 1.5"),
        ('{"depth": 1, "lambdas": "", "mus": "x"}', (), "error: cannot parse weight expression ''"),
        ('{"depth": -1, "lambdas": "x", "mus": "x"}', (), "error: depth must be >= 0"),
    ],
)
def test_cfrac_errors_exit_1(capsys, tmp_path, text, argv, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    code, out, err = run(capsys, "cfrac", "--spec", str(spec), *argv)
    assert (code, out, err) == (1, "", message + "\n")


def test_cfrac_negative_coefficient(capsys, tmp_path):
    # lambda = -2x and mu = x at two levels over tail 1 is
    # 1 / (1 - 3x + 2x / (1 - x)) = (1 - x) / (1 - 2x + 3x^2)
    spec = tmp_path / "spec.json"
    spec.write_text('{"depth": 2, "lambdas": "-2*x", "mus": "x"}')
    assert run(capsys, "cfrac", "--spec", str(spec), "--order", "5") == (0, "z^0: 1,1,-1,-5,-7,1\n", "")


def test_cfrac_json_bytes(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"depth": 2, "lambdas": "x", "mus": "x*z", "tail": 1}')
    code, out, err = run(
        capsys, "cfrac", "--spec", str(spec), "--order", "3", "--z-order", "1", "--format", "json"
    )
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "z_order": 1,\n  "x_order": 3,\n  "entries": [\n'
        '    [\n      "1",\n      "0",\n      "0",\n      "0"\n    ],\n'
        '    [\n      "0",\n      "1",\n      "1",\n      "0"\n    ]\n  ]\n}\n'
    )


def test_cfrac_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "cfrac", "--spec", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ["count", "--stat", "peak", "--k", "2", "--r", "1", "--n", "10"],
    ["table", "--n-max", "30", "--k-max", "5", "--method", "dp", "--format", "csv"],
])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(argv, unbuffered):
    # stdout is a pipe whose reader has gone, as after `| head`
    env = {key: value for key, value in SRC_ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dyckpeaks.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "unknown-command")[0] == 1
    assert run(capsys, "series", "--stat", "peak")[0] == 1
    assert run(capsys, "series", "--stat", "sideways", "--k", "1", "--r", "0")[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "series", "--help")[0] == 0


HELP_AND_USAGE_ERRORS = [["--help"]] + [
    [command, "--help"] for command in ("series", "count", "table", "bijection", "cfrac", "verify")
] + [["verify", "--n-max", "x"], ["count", "--stat", "peak", "--k", "1", "--r", "0", "--n", "3", "--method", "nope"]]


def test_help_and_usage_error_bytes_are_pinned(capsys, monkeypatch):
    # the choices, defaults and metavars the parsers show, from their one home each
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    digest = sha256()
    for argv in HELP_AND_USAGE_ERRORS:
        code, out, err = run(capsys, *argv)
        digest.update(f"{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "89687999033e6c4b86fcfc4284e304954b6cadb2eee21a6ae95889afddfe2630"


@pytest.mark.parametrize(
    "argv, given",
    [
        ((), {}),
        (
            ("--n-max", "6", "--k-max", "2", "--r-max", "1", "--order", "9", "--enum-guard", "7"),
            {"n_max": 6, "k_max": 2, "r_max": 1, "order": 9, "guard": 7},
        ),
    ],
)
def test_verify_passes_run_verify_only_the_options_given(capsys, monkeypatch, argv, given):
    # run_verify's signature is the one home of verify's defaults
    calls = []

    def spy(**options):
        calls.append(options)
        return verify.VerifyReport()

    monkeypatch.setattr(verify, "run_verify", spy)
    assert run(capsys, "verify", *argv)[0] == 0
    assert calls == [given]


def test_verify_small_run_is_deterministic(capsys):
    args = (
        "verify", "--n-max", "6", "--k-max", "3", "--r-max", "2", "--order", "8",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "WARN" in out1
    assert "FAIL" not in out1
    assert "OK: 0 failures" in out1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--k-max", "0"), "error: k_max must be >= 1"),
        (("--k-max", "-1"), "error: k_max must be >= 1"),
        (("--order", "3"), "error: r_max must be between 0 and order"),
        (("--r-max", "-1"), "error: r_max must be between 0 and order"),
        (("--n-max", "-1"), "error: n_max must be >= 0"),
    ],
)
def test_verify_bounds_exit_1(capsys, argv, message):
    # k_max 0 once printed four false FAIL lines; order 3 died in a z-slice
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("argv", [("--k-max", "1"), ("--order", "0", "--r-max", "0")])
def test_verify_at_the_bounds_passes(capsys, argv):
    code, out, _ = run(capsys, "verify", "--n-max", "6", *argv)
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("method", ["enum", "dp", "gf"])
@pytest.mark.parametrize("n_max, k_max", [("-1", "2"), ("2", "-1")])
def test_table_negative_bounds_exit_1(capsys, method, n_max, k_max):
    # k_max -1 once printed a header-only table and exited 0
    code, out, err = run(
        capsys, "table", "--n-max", n_max, "--k-max", k_max, "--method", method,
    )
    assert code == 1
    assert out == ""
    assert err == "error: n_max and k_max must be >= 0\n"


def cli_out(*argv):
    """Stdout of a CLI run that must succeed; Hypothesis tests cannot share
    the function-scoped capsys fixture across examples."""
    buffer = StringIO()
    with redirect_stdout(buffer):
        assert main(list(argv)) == 0
    return buffer.getvalue()


kinds = st.sampled_from(["peak", "valley"])


@settings(deadline=None, max_examples=40)
@given(kinds, st.integers(0, 6), st.integers(0, 6), st.integers(0, 20))
def test_series_json_equals_stat_gf(kind, k, r, order):
    doc = json.loads(cli_out(
        "series", "--stat", kind, "--k", str(k), "--r", str(r), "--order", str(order),
        "--format", "json",
    ))
    expected = stat_gf(StatKind(kind), k, r, order)
    assert doc["order"] == order
    assert doc["coefficients"] == [str(c) for c in expected.coeffs]


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 7), st.integers(0, 4), st.sampled_from(["enum", "dp", "gf"]))
def test_table_json_equals_build_table(n_max, k_max, method):
    doc = json.loads(cli_out(
        "table", "--n-max", str(n_max), "--k-max", str(k_max), "--method", method,
        "--format", "json",
    ))
    from_json = {
        (row["n"], row["k"], row["r"], StatKind(row["kind"])): int(row["count"])
        for row in doc["entries"]
    }
    rows = build_table(n_max, k_max, method).rows
    assert from_json == {
        (n, k, r, kind): count
        for kind, k_rows in rows.items()
        for k, n_rows in enumerate(k_rows)
        for n, row in enumerate(n_rows)
        for r, count in enumerate(row)
    }


@settings(deadline=None, max_examples=40)
@given(
    kinds, st.integers(0, 10), st.integers(0, 6), st.integers(0, 11),
    st.sampled_from(["enum", "dp", "gf"]),
)
def test_count_equals_count_exact_dp(kind, n, k, r, method):
    out = cli_out(
        "count", "--stat", kind, "--k", str(k), "--r", str(r), "--n", str(n),
        "--method", method,
    )
    assert out == f"{count_exact_dp(n, k, r, StatKind(kind))}\n"
