"""Exact counting of peaks and valleys at a fixed height in Dyck paths."""

from .chebyshev import f_series_t, q_poly, r_series, u_inv_sq_series
from .gfcount import (
    peak_gf,
    peak1_nonempty_blocks_gf,
    stat_family,
    stat_gf,
    valley_gf,
    valley0_closed_count,
)
from .paths import (
    CountTable,
    DyckPath,
    PathError,
    StatKind,
    StatProfile,
    bounded_height_count,
    build_table,
    count_exact_dp,
    enumerate_paths,
    parse_path,
    psi,
    statistics,
    theta_forward,
    theta_inverse,
)
from .series import (
    BivarSeries,
    InvariantError,
    NonIntegralError,
    NonInvertibleError,
    Series,
    catalan_series,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the names in __all__ not imported above are cfrac's, imported on first use
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cfrac

    return getattr(cfrac, name)


__all__ = [
    "BivarSeries",
    "CountTable",
    "DyckPath",
    "InvariantError",
    "NonIntegralError",
    "NonInvertibleError",
    "PathError",
    "Series",
    "StatKind",
    "StatProfile",
    "WeightSpec",
    "bounded_height_count",
    "build_table",
    "catalan_cfrac",
    "catalan_series",
    "count_exact_dp",
    "enumerate_paths",
    "f_series_t",
    "lemma_iterated_cfrac",
    "lemma_rhs",
    "parse_path",
    "peak_bivar_cfrac",
    "peak_gf",
    "peak1_nonempty_blocks_gf",
    "psi",
    "q_poly",
    "r_series",
    "rv_cfrac",
    "stat_family",
    "stat_gf",
    "statistics",
    "theta_forward",
    "theta_inverse",
    "u_inv_sq_series",
    "valley_gf",
    "valley0_closed_count",
    "weight_spec_from_json",
]
