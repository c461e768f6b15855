"""Command-line front end.

Three subcommands: ``effect`` (standardized group difference with all
conversion identities), ``fit`` (coefficient table of the underlying
regression) and ``hist`` (text histogram of the response column). Output is
plain text or a JSON document with fixed top-level keys
{config, data_summary, coefficients, effect, distributions}.

Exit codes: 0 success, 1 stdout closed by its reader, 2 input/data errors,
3 numeric/model errors, an ArithmeticError such as OverflowError among
them. ``main`` may be called repeatedly in one process; it builds its
parser on the first call and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .dataio import histogram, load_column, load_csv, stream_histogram
from .distributions import f_upper_p, t_two_sided_p
from .effects import d_from_beta, effect_report, f_squared_from_r2
from .errors import DataError, NumericError
# load_csv, load_column, histogram, build_design, fit_monolithic and
# group_summaries are not called here: effect and fit build the design with
# stream_design and hist counts its bins with stream_histogram as the file
# is read, both fits are by FWL, and the reports reuse EffectReport.groups,
# which effect_report reads off the design's per-group factors. They stay
# importable as cli.load_csv, ..., the names bench/spans.py traces.
from .regression import (
    build_design,
    coefficient_names,
    fit_fwl,
    fit_monolithic,
    group_summaries,
    standard_errors,
    stream_design,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1  # Python's own exit code for a closed stdout
EXIT_DATA = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class AnalysisConfig:
    input_path: str
    delimiter: str = ";"
    response_col: str = ""
    group_col: str = ""
    covariate_cols: tuple[str, ...] = ()
    reference_level: str | None = None
    output_format: str = "text"
    precision: int = 7


def _fmt(value: float, precision: int) -> str:
    return format(value, f".{precision}g")


def _fmt_edge(value: float, precision: int) -> str:
    # an integral edge of more digits than the precision prints in full, so
    # unit bins there stay apart; below 2**53 every integer is a float
    if value.is_integer() and 10 ** precision <= abs(value) < 2 ** 53:
        return str(int(value))
    return _fmt(value, precision)


def _precision_arg(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 15:
        raise argparse.ArgumentTypeError("precision must be between 1 and 15")
    return value


def _covariates_arg(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _edges_arg(text: str) -> tuple[float, ...]:
    try:
        edges = tuple(float(c) for c in text.split(",") if c.strip())
        if all(map(math.isfinite, edges)):
            return edges
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"cannot parse finite bin edges from {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupeffect",
        description="Covariate-adjusted effect sizes for two-group comparisons.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    io_parent = argparse.ArgumentParser(add_help=False)
    io_parent.add_argument("--data", required=True, help="input delimited text file")
    io_parent.add_argument("--delimiter", default=";", help="field separator (default ';')")
    io_parent.add_argument("--response", required=True, help="response column name")
    io_parent.add_argument("--format", choices=("text", "json"), default="text")
    io_parent.add_argument("--precision", type=_precision_arg, default=7,
                           help="significant digits in text output (1-15, default 7)")

    model_parent = argparse.ArgumentParser(add_help=False)
    model_parent.add_argument("--group", required=True, help="binary group column name")
    model_parent.add_argument("--covariates", type=_covariates_arg, default=(),
                              help="comma-separated covariate column names")
    model_parent.add_argument("--ref-level", default=None,
                              help="group label to treat as group 1 (reference)")

    sub.add_parser("effect", parents=[io_parent, model_parent],
                   help="standardized group mean difference with p-value and f^2")
    sub.add_parser("fit", parents=[io_parent, model_parent],
                   help="coefficient table of the underlying regression")
    hist = sub.add_parser("hist", parents=[io_parent],
                          help="histogram of the response column")
    hist.add_argument("--edges", type=_edges_arg, default=None,
                      help="comma-separated bin edges, e.g. -1,5,10,21 "
                           "(default: unit-width bins)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on its first call, then reused.

    parse_args leaves a parser as it found it, so one parser serves every
    call; building it took most of main's own time on small inputs.
    """
    return build_parser()


def _join_negative_edges(argv) -> list[str]:
    """Rewrite ``--edges -1,5`` as ``--edges=-1,5``: argparse takes a value
    that starts with "-" and is not one number for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--edges" and re.match(r"-\.?\d", arg):
            out[-1] = f"--edges={arg}"
        else:
            out.append(arg)
    return out


def _config_from_args(args) -> AnalysisConfig:
    return AnalysisConfig(
        input_path=args.data,
        delimiter=args.delimiter,
        response_col=args.response,
        group_col=getattr(args, "group", ""),
        covariate_cols=tuple(getattr(args, "covariates", ())),
        reference_level=getattr(args, "ref_level", None),
        output_format=args.format,
        precision=args.precision,
    )


def _config_dict(config: AnalysisConfig) -> dict:
    return {
        "input_path": config.input_path,
        "delimiter": config.delimiter,
        "response": config.response_col,
        "group": config.group_col,
        "covariates": list(config.covariate_cols),
        "reference_level": config.reference_level,
        "output_format": config.output_format,
        "precision": config.precision,
    }


@dataclass(frozen=True)
class _Rows:
    """What the reader kept of the input file and what it dropped."""

    source: str
    used: int
    dropped: int


def _data_summary(rows, design) -> dict:
    g1, g2 = design.group_labels
    return {
        "source": rows.source,
        "rows_used": rows.used,
        "dropped_rows": rows.dropped,
        "group1": g1,
        "group2": g2,
        "n1": design.n1,
        "n2": design.n2,
        "dummy_mapping": {g1: 0, g2: 1},
        "reference_level": g1,
        "covariates": list(design.covariate_names),
    }


def _analyze(config: AnalysisConfig):
    design, used, dropped = stream_design(
        config.input_path,
        response_col=config.response_col,
        group_col=config.group_col,
        covariate_cols=config.covariate_cols,
        delimiter=config.delimiter,
        reference_level=config.reference_level,
    )
    fit = fit_fwl(design)
    rows = _Rows(str(config.input_path), used, dropped)
    return rows, design, fit, effect_report(design, fit)


def _coefficient_rows(design, fit):
    """(name, estimate, std. error, t value, p value) per coefficient."""
    estimates = np.concatenate([fit.delta1_hat, fit.delta2_hat])
    ses = standard_errors(design, fit)
    for name, est, se in zip(coefficient_names(design), estimates, ses):
        tv = float(est / se)
        yield name, float(est), float(se), tv, t_two_sided_p(tv, design.df)


def _report_json(config, rows, design, fit, report) -> dict:
    table = [
        {"name": name, "estimate": est, "std_error": se, "t_value": tv, "p_value": pv}
        for name, est, se, tv, pv in _coefficient_rows(design, fit)
    ]
    g1, g2 = report.groups
    sign = -1.0 if fit.beta1 > 0 else 1.0  # d has group1 - group2 in the numerator
    f2_from_r2 = f_squared_from_r2(fit.r_squared, fit.r0_squared)
    d_routes = {
        "from_group_summaries": report.d,
        "from_coefficient": sign * d_from_beta(fit.beta1, math.sqrt(fit.sigma2_hat)),
        "from_f_squared": sign * math.sqrt(f2_from_r2 * report.gamma * design.df),
    }
    return {
        "config": _config_dict(config),
        "data_summary": _data_summary(rows, design),
        "coefficients": {
            "table": table,
            "sigma_hat": math.sqrt(fit.sigma2_hat),
            "r_squared": fit.r_squared,
            "r0_squared": fit.r0_squared,
            "df": fit.df,
        },
        "effect": {
            "d": report.d,
            "t": report.t,
            "p_value": report.p_value,
            "f_squared": report.f_squared,
            "f_stat": report.f_stat,
            "gamma": report.gamma,
            "df": report.df,
            "w": report.w,
            "u": report.u,
            "v": report.v,
            "magnitude_d": report.magnitude_d,
            "magnitude_f2": report.magnitude_f2,
            "d_routes": d_routes,
            "group_summaries": {
                label: {
                    "n": s.n_rows,
                    "mean_raw": s.mean_raw,
                    "ss_raw": s.ss_raw,
                    "mean_adjusted": s.mean_adj,
                    "ss_adjusted": s.ss_adj,
                }
                for label, s in zip(design.group_labels, (g1, g2))
            },
        },
        "distributions": [
            {"statistic": report.t, "df1": report.df, "df2": None,
             "p_two_sided": report.p_value},
            {"statistic": report.f_stat, "df1": report.u, "df2": report.v,
             "p_two_sided": f_upper_p(report.f_stat, report.u, report.v)},
        ],
    }


def _effect_text(config, rows, design, fit, report) -> str:
    p = config.precision
    g1_label, g2_label = design.group_labels
    g1, g2 = report.groups
    kind = "classic" if design.w == 0 else "covariate-adjusted"
    lines = [
        f"data: {rows.source} ({rows.used} rows used, {rows.dropped} dropped)",
        f"groups: {g1_label} (n={design.n1}) vs {g2_label} (n={design.n2}); "
        f"dummy = 1 for {g2_label}",
        f"covariates: {', '.join(design.covariate_names) or '(none)'} (w={design.w})",
        "",
        f"{'':<16}{'group ' + g1_label:>14}{'group ' + g2_label:>14}",
        f"{'raw mean':<16}{_fmt(g1.mean_raw, p):>14}{_fmt(g2.mean_raw, p):>14}",
        f"{'adjusted mean':<16}{_fmt(g1.mean_adj, p):>14}{_fmt(g2.mean_adj, p):>14}",
        "",
        f"d ({kind}): {_fmt(report.d, p)}  [{report.magnitude_d}]",
        f"t: {_fmt(report.t, p)}  df: {report.df}  p: {_fmt(report.p_value, p)}",
        f"f^2: {_fmt(report.f_squared, p)}  [{report.magnitude_f2}]"
        f"  F: {_fmt(report.f_stat, p)}",
        f"gamma: {_fmt(report.gamma, p)}"
        f"  sigma: {_fmt(math.sqrt(fit.sigma2_hat), p)}",
    ]
    return "\n".join(lines)


def _fit_text(config, rows, design, fit, report) -> str:
    p = config.precision
    width = max(map(len, coefficient_names(design))) + 2
    lines = [
        f"data: {rows.source} ({rows.used} rows used, {rows.dropped} dropped)",
        f"{'coefficient':<{width}}{'estimate':>14}{'std.error':>14}"
        f"{'t value':>12}{'p value':>14}",
    ]
    for name, est, se, tv, pv in _coefficient_rows(design, fit):
        lines.append(
            f"{name:<{width}}{_fmt(est, p):>14}{_fmt(se, p):>14}"
            f"{_fmt(tv, max(p - 2, 1)):>12}{_fmt(pv, max(p - 4, 1)):>14}"
        )
    lines.append(
        f"R^2: {_fmt(fit.r_squared, p)}   R0^2: {_fmt(fit.r0_squared, p)}   "
        f"sigma: {_fmt(math.sqrt(fit.sigma2_hat), p)}   df: {fit.df}"
    )
    return "\n".join(lines)


def cmd_model(config: AnalysisConfig, command: str) -> int:
    """Run ``effect`` or ``fit``: the same analysis and JSON document; the
    command chooses only the text renderer."""
    rows, design, fit, report = _analyze(config)
    if config.output_format == "json":
        print(json.dumps(_report_json(config, rows, design, fit, report), indent=2))
    else:
        render = _effect_text if command == "effect" else _fit_text
        print(render(config, rows, design, fit, report))
    return EXIT_OK


def cmd_hist(config: AnalysisConfig, edges=None) -> int:
    edges, counts, used, dropped = stream_histogram(
        config.input_path, config.response_col, edges, delimiter=config.delimiter
    )
    if config.output_format == "json":
        doc = {
            "config": _config_dict(config),
            "data_summary": {
                "source": config.input_path,
                "rows_used": used,
                "dropped_rows": dropped,
            },
            "histogram": {"edges": edges, "counts": counts},
        }
        print(json.dumps(doc, indent=2))
    else:
        p = config.precision
        lines = [
            f"{_fmt_edge(lo, p)},{_fmt_edge(hi, p)},{count}"
            for lo, hi, count in zip(edges[:-1], edges[1:], counts)
        ]
        print("\n".join(lines))
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_join_negative_edges(argv))
    config = _config_from_args(args)
    try:
        if args.command in ("effect", "fit"):
            return cmd_model(config, args.command)
        return cmd_hist(config, edges=args.edges)
    except BrokenPipeError:  # stdout's reader has gone (`... | head -1`)
        return EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ValueError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
