"""Covariate-adjusted standardized effect sizes for two-group comparisons.

Workflow: load a delimited file into a :class:`Dataset`, build its
:class:`PartitionedDesign`, fit it with :func:`fit_fwl`, and summarize with
:func:`effect_report`. :func:`build_design` reads the n rows once; the
design holds only the group counts, each group's means and factor R_j,
their pooled factor R and the column norms, and the fit, the report and
the standard errors read only those. :func:`fit_monolithic` solves the
full design of a dataset instead and is kept as a cross-check.
"""

from .dataio import Dataset, histogram, load_column, load_csv
from .distributions import (
    f_upper_p,
    regularized_incomplete_beta,
    t_two_sided_p,
)
from .effects import (
    EffectReport,
    cohens_d,
    cohens_d_adjusted,
    d_from_beta,
    d_from_t,
    effect_report,
    f_squared_from_d,
    f_squared_from_r2,
    f_stat,
    magnitude_labels,
    t_from_d,
)
from .regression import (
    GroupSummary,
    PartitionedDesign,
    PartitionedFit,
    build_design,
    coefficient_names,
    fit_fwl,
    fit_monolithic,
    group_summaries,
    r_squared_pair,
    standard_errors,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EffectReport",
    "GroupSummary",
    "PartitionedDesign",
    "PartitionedFit",
    "build_design",
    "coefficient_names",
    "cohens_d",
    "cohens_d_adjusted",
    "d_from_beta",
    "d_from_t",
    "effect_report",
    "f_squared_from_d",
    "f_squared_from_r2",
    "f_stat",
    "f_upper_p",
    "fit_fwl",
    "fit_monolithic",
    "group_summaries",
    "histogram",
    "load_column",
    "load_csv",
    "magnitude_labels",
    "r_squared_pair",
    "regularized_incomplete_beta",
    "standard_errors",
    "t_from_d",
    "t_two_sided_p",
]
