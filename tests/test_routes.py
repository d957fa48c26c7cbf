"""The three counting routes stay independent, read from the source.

Enumeration, the dynamic program and the series layer must give the same
counts without sharing code, or one bug could agree with itself. This test
parses ``src/dyckpeaks/*.py`` with ``ast`` and, from each route's entry
points, collects the library functions and classes it reaches by direct
calls; a library class also counts as reached where its name is read.
Calls by operator (``a / b`` on series) and method calls on values are not
followed, so the sets hold what a route names, not everything it runs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dyckpeaks"

ENUMERATION = ("paths.enumerate_paths", "paths._enum_codes", "paths.count_exact_enum")
DP = ("paths.count_exact_dp", "paths._dp_distribution")
GF = ("gfcount.stat_gf", "gfcount.stat_family", "cfrac.peak_bivar_cfrac")

# What enumeration may share with another route: the argument checks and
# the types every route names.
ALLOWED = {"paths._check_count_args", "paths._check_guard", "paths.StatKind", "paths.DyckPath"}

CONSTRUCTORS = ("__new__", "__init__", "__post_init__")


def _library():
    """Each definition's qualified name mapped to its node and module, each
    module's names mapped to the qualified names they are bound to, and the
    class names."""
    defs, scopes, classes = {}, {}, set()
    for file in sorted(SRC.glob("*.py")):
        module = file.stem
        tree = ast.parse(file.read_text())
        scope = scopes.setdefault(module, {})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = (node, module)
                scope[node.name] = f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                classes.add(f"{module}.{node.name}")
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{item.name}"] = (item, module)
        for node in ast.walk(tree):  # imports inside functions bind names too
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    scope[alias.asname or alias.name] = target
    return defs, scopes, classes


DEFS, SCOPES, CLASSES = _library()


def _edges(name):
    """The library definitions that ``name`` calls directly or, for
    classes, names."""
    node, module = DEFS[name]
    if name in CLASSES:  # constructing a class runs its constructors
        return {f"{name}.{m}" for m in CONSTRUCTORS if f"{name}.{m}" in DEFS}
    scope = SCOPES[module]
    owner = name.rsplit(".", 1)[0] if name.count(".") == 2 else None
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            target = scope.get(sub.id)
            if target in CLASSES:
                found.add(target)
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if isinstance(func, ast.Name):
            found.add(scope.get(func.id))
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            receiver = func.value.id
            base = owner if receiver in ("self", "cls") else scope.get(receiver)
            if base is not None:
                found.add(f"{base}.{func.attr}")
    return found & DEFS.keys()


def reached(entries):
    """Every library definition reached from ``entries``, entries included."""
    seen, todo = set(), list(entries)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_edges(name))
    return seen


def test_the_entry_points_exist():
    for name in ENUMERATION + DP + GF:
        assert name in DEFS, name


def test_enumeration_shares_nothing_with_the_dp_or_the_series_layer():
    enumeration, dp, gf = reached(ENUMERATION), reached(DP), reached(GF)
    assert enumeration & (dp | gf) <= ALLOWED, sorted(enumeration & (dp | gf) - ALLOWED)


def test_the_sets_see_what_each_route_names():
    # a walk that followed nothing would pass the test above trivially
    enumeration, dp, gf = reached(ENUMERATION), reached(DP), reached(GF)
    assert {"paths.DyckPath", "paths.PathError", "paths._check_guard"} <= enumeration
    assert {"paths._check_count_args", "paths.StatKind"} <= enumeration & dp
    # the enumeration's prefix/suffix walk also sums the certificate's
    # records, and neither the DP nor the series layer names it
    assert "paths._split_walk" in enumeration & reached(["verify._sweep"])
    assert "paths._split_walk" not in dp | gf
    # both DP readers run the one sweep kernel, which enumeration never names
    both_readers = reached(["paths.count_exact_dp"]) & reached(["paths._dp_distribution"])
    assert {"paths._dp_sweep", "paths._dp_bits"} <= both_readers - enumeration
    assert {"chebyshev.r_series", "chebyshev.q_poly", "series.catalan_series", "series.Series"} <= gf


def test_the_known_cross_route_edges_are_named():
    enumeration, dp, gf = reached(ENUMERATION), reached(DP), reached(GF)
    # build_table dispatches to all three routes and belongs to none
    assert {"paths._enum_codes", "paths._dp_distribution", "gfcount.stat_family"} <= _edges("paths.build_table")
    assert "paths.build_table" not in enumeration | dp | gf
    # the sum rule reads the path series: a check, not a route
    assert "series.catalan_series" in _edges("paths.CountTable.check_sum_rule")
    assert "paths.CountTable.check_sum_rule" not in enumeration | dp | gf
    # the series layer's bounded-height check walks the band in paths
    assert "paths._band_walk" in _edges("chebyshev.r_series")
    assert "paths._band_walk" in gf - enumeration - dp


def test_the_two_bounded_height_routes_share_nothing():
    # r_series compares a quotient by q_k, seeded with C's first k
    # coefficients, with the band walk
    walk = reached(["paths._band_walk"])
    division = reached(["chebyshev.q_poly", "chebyshev._q_coeffs", "series._quotient", "series.catalan_series"])
    assert walk == {"paths._band_walk"}
    assert not walk & division


def test_the_peak_fraction_reads_no_band_formula():
    # verify's cfrac section compares the fraction with the band formula,
    # so the fraction must derive its continuants without it
    fraction = reached(["cfrac.peak_bivar_cfrac"])
    assert {"cfrac._continuants", "cfrac._peak_polynomials", "series.catalan_series"} <= fraction
    assert not fraction & {"chebyshev.q_poly", "chebyshev.r_series", "gfcount._band"}
