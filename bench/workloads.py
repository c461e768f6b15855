"""Seeded inputs, op mixes and output checks for the benchmark workloads.

Each ``make_<workload>`` function draws its inputs from ``seed`` alone,
writes any input file into ``workdir``, and returns a :class:`Workload`:
the ops of one pass of the mix, how many ops make one whole cycle (the
timed loop only stops at cycle boundaries, so per-op counts repeat exactly),
a record of the inputs, and cross-checks that run outside the timed loop.

Every op returns its output and every output is checked. Reference values
are never taken from the program under test: the student ops are compared
with the R values the acceptance tests freeze, the generated workloads with
the generator's own numbers, ``numpy.histogram`` and ``numpy.linalg.lstsq``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from groupeffect import cli, dataio, distributions, effects, regression

STUDENT_CSV = Path("tests") / "data" / "student_por_649.csv"

# R reference values for the student data, as frozen in tests/test_acceptance.py
# (n = 649, response G3, groups sex with F first, covariates Fedu, traveltime).
REF = {
    "n1": 383,
    "n2": 266,
    "mean_group1": 12.25326,
    "mean_group2": 11.40602,
    "t_classic": 3.310938,
    "p_classic": 0.0009815287,
    "d_classic": 0.264261,
    "table": {
        "(intercept)": (11.4138, 0.4306, 26.507),
        "group[M]": (-0.9406, 0.2503, -3.759),
        "Fedu": (0.6096, 0.1144, 5.329),
        "traveltime": (-0.3369, 0.1676, -2.010),
    },
    "p_table": {"group[M]": 0.000186, "Fedu": 1.37e-07, "traveltime": 0.044826},
    "r_squared": 0.07238847,
    "r0_squared": 0.05207054,
    "f_squared": 0.0219035,
    "gamma": 0.006438624,
    "sigma": 3.118756,
    "d_adjusted": 0.3016013,
}
REL = 1e-6  # acceptance tolerance for scalar reference values
REL_P = 5e-3  # acceptance tolerance for coefficient-table p-values
ABS_TABLE = (5e-5, 5e-5, 5e-4)  # estimate, std. error, t value
REL_IDENTITY = 1e-9  # |d| against |beta1| / sigma

Check = Callable[[object], "str | None"]


@dataclass
class Op:
    """One operation of a workload: ``run`` performs it and returns its
    output, ``check`` returns None when that output is correct and a reason
    otherwise."""

    label: str
    run: Callable[[], object]
    check: Check


@dataclass
class Workload:
    ops: list[Op]
    cycle: int  # ops per whole cycle of the mix
    inputs: dict
    peak_ops: list[Op]  # ops whose tracemalloc peak bounds the workload's peak
    cross_checks: list[Callable[[], "str | None"]] = field(default_factory=list)


# --- CLI ops -----------------------------------------------------------------

def cli_op(label: str, argv: list[str], check_stdout: Check) -> Op:
    """An in-process ``groupeffect`` invocation. Its output is (exit code,
    stdout, stderr); it is correct when the code is 0, stderr is empty and
    stdout passes ``check_stdout``. A stdout identical to one that already
    passed is correct without parsing it again."""
    passed: set[str] = set()

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up at call time, so tracing sees it
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != 0 or err:
            return f"exit code {code}, stderr {err.strip()[:200]!r}"
        if out in passed:
            return None
        try:
            reason = check_stdout(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"unparseable output: {type(exc).__name__}: {exc}"
        if reason is None:
            passed.add(out)
        return reason

    return Op(label, run, check)


def _printed_tolerance(text: str) -> float:
    """Half a unit in the last digit of a printed number."""
    mantissa = text.lower().split("e")[0].lstrip("+-")
    exponent = int(text.lower().split("e")[1]) if "e" in text.lower() else 0
    decimals = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return 0.5 * 10.0 ** (exponent - decimals)


def _close(label: str, got: float, want: float, rel: float = 0.0, abs_: float = 0.0,
           printed: str | None = None) -> str | None:
    tol = rel * abs(want) + abs_
    if printed is not None:
        tol += _printed_tolerance(printed)
    if not (math.isfinite(got) and abs(got - want) <= tol):
        return f"{label}: got {got!r}, want {want!r} (tolerance {tol:.3g})"
    return None


def _first_failure(*reasons):
    return next((r for r in reasons if r is not None), None)


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _grab(pattern: str, text: str) -> list[str]:
    match = re.search(pattern, text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no line matches {pattern!r}")
    return list(match.groups())


def _text_close(label, printed, want, rel):
    return _close(label, float(printed), want, rel=rel, printed=printed)


def _check_student_effect_text(adjusted: bool) -> Check:
    def check(out: str):
        n1, n2 = _grab(r"^groups: F \(n=(\d+)\) vs M \(n=(\d+)\)", out)
        m1, m2 = _grab(rf"^raw mean\s+({_NUM})\s+({_NUM})$", out)
        (d,) = _grab(rf"^d \((?:classic|covariate-adjusted)\): ({_NUM})", out)
        reasons = [
            None if (int(n1), int(n2)) == (REF["n1"], REF["n2"]) else f"n1, n2 = {n1}, {n2}",
            _text_close("mean group 1", m1, REF["mean_group1"], REL),
            _text_close("mean group 2", m2, REF["mean_group2"], REL),
        ]
        if adjusted:
            (f2,) = _grab(rf"^f\^2: ({_NUM})", out)
            gamma, sigma = _grab(rf"^gamma: ({_NUM})\s+sigma: ({_NUM})$", out)
            reasons += [
                _text_close("adjusted d", d, REF["d_adjusted"], REL),
                _text_close("f^2", f2, REF["f_squared"], REL),
                _text_close("gamma", gamma, REF["gamma"], REL),
                _text_close("sigma", sigma, REF["sigma"], REL),
            ]
        else:
            t, p = _grab(rf"^t: ({_NUM})\s+df: \d+\s+p: ({_NUM})$", out)
            reasons += [
                _text_close("classic d", d, REF["d_classic"], REL),
                _text_close("classic t", t, REF["t_classic"], REL),
                _text_close("classic p", p, REF["p_classic"], REL),
            ]
        return _first_failure(*reasons)

    return check


def _check_table(rows) -> str | None:
    """rows: (name, estimate, std error, t, p) as printed strings or floats."""
    reasons = []
    seen = set()
    for name, est, se, tv, pv in rows:
        seen.add(name)
        want = REF["table"].get(name)
        if want is None:
            return f"unexpected coefficient {name!r}"
        for what, got, ref, tol in zip(("estimate", "std. error", "t value"),
                                       (est, se, tv), want, ABS_TABLE):
            printed = got if isinstance(got, str) else None
            reasons.append(_close(f"{name} {what}", float(got), ref, abs_=tol,
                                  printed=printed))
        printed = pv if isinstance(pv, str) else None
        if name == "(intercept)":
            bound = 2e-16 + (_printed_tolerance(pv) if printed else 0.0)
            reasons.append(None if float(pv) < bound else f"intercept p = {pv}")
        else:
            reasons.append(_close(f"{name} p", float(pv), REF["p_table"][name],
                                  rel=REL_P, printed=printed))
    if seen != set(REF["table"]):
        return f"coefficients {sorted(seen)}"
    return _first_failure(*reasons)


def _check_student_fit_text(out: str):
    lines = out.splitlines()
    start = [line.startswith("coefficient") for line in lines].index(True)
    rows = [line.split() for line in lines[start + 1:start + 1 + len(REF["table"])]]
    r2, r02, sigma = _grab(rf"^R\^2: ({_NUM})\s+R0\^2: ({_NUM})\s+sigma: ({_NUM})", out)
    return _first_failure(
        _check_table(rows),
        _text_close("R^2", r2, REF["r_squared"], REL),
        _text_close("R0^2", r02, REF["r0_squared"], REL),
        _text_close("sigma", sigma, REF["sigma"], REL),
    )


def _check_student_json(out: str):
    doc = json.loads(out)
    summary, coefs, eff = doc["data_summary"], doc["coefficients"], doc["effect"]
    rows = [(r["name"], r["estimate"], r["std_error"], r["t_value"], r["p_value"])
            for r in coefs["table"]]
    return _first_failure(
        None if (summary["n1"], summary["n2"]) == (REF["n1"], REF["n2"])
        else f"n1, n2 = {summary['n1']}, {summary['n2']}",
        _check_table(rows),
        _close("R^2", coefs["r_squared"], REF["r_squared"], rel=REL),
        _close("R0^2", coefs["r0_squared"], REF["r0_squared"], rel=REL),
        _close("sigma", coefs["sigma_hat"], REF["sigma"], rel=REL),
        _close("f^2", eff["f_squared"], REF["f_squared"], rel=REL),
        _close("gamma", eff["gamma"], REF["gamma"], rel=REL),
        _close("adjusted d", eff["d"], REF["d_adjusted"], rel=REL),
    )


def _read_column(path: Path, column: str) -> np.ndarray:
    """The benchmark's own reader for a clean numeric column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter=";"))
    return np.array([float(r[column]) for r in rows])


def _default_edges(values: np.ndarray) -> list[float]:
    """Unit-width bins from floor(min) to past floor(max), as documented for
    ``hist`` without ``--edges``."""
    lo, hi = math.floor(values.min()), math.floor(values.max())
    return [float(e) for e in range(lo, hi + 2)]


def make_student(root: Path, seed: int, workdir: Path) -> Workload:
    """The paper's reproduction case as interactive CLI use: a fixed mix of
    seven invocations over the bundled 649-row file, in a seeded order."""
    path = root / STUDENT_CSV
    if not path.is_file():
        raise FileNotFoundError(f"student data not found at {path}")
    base = ["--data", str(path), "--response", "G3", "--group", "sex"]
    cov = base + ["--covariates", "Fedu,traveltime"]
    g3 = _read_column(path, "G3")

    def check_hist(edges: list[float]) -> Check:
        want_counts = [int(c) for c in np.histogram(g3, bins=edges)[0]]

        def check(out: str):
            got = [line.split(",") for line in out.splitlines()]
            if [float(lo) for lo, _, _ in got] != edges[:-1]:
                return f"histogram lower edges {[lo for lo, _, _ in got]}"
            counts = [int(c) for _, _, c in got]
            return None if counts == want_counts else f"histogram counts {counts}"

        return check

    hist = ["hist", "--data", str(path), "--response", "G3"]
    # Seven ops, so that the median and the 90th percentile fall inside one
    # op's latencies rather than in a gap between two ops.
    ops = [
        cli_op("effect-classic-text", ["effect", *base], _check_student_effect_text(False)),
        cli_op("effect-cov-text", ["effect", *cov], _check_student_effect_text(True)),
        cli_op("effect-cov-json", ["effect", *cov, "--format", "json"], _check_student_json),
        cli_op("fit-cov-text", ["fit", *cov], _check_student_fit_text),
        cli_op("fit-cov-json", ["fit", *cov, "--format", "json"], _check_student_json),
        cli_op("hist-text", hist, check_hist(_default_edges(g3))),
        cli_op("hist-edges-text", [*hist, "--edges=0,5,10,15,20"],
               check_hist([0.0, 5.0, 10.0, 15.0, 20.0])),
    ]
    order = np.random.default_rng(seed).permutation(len(ops))
    ops = [ops[i] for i in order]
    inputs = {"seed": seed, "file": str(STUDENT_CSV), "n": len(g3), "w": 2,
              "dropped_share": 0.0, "file_bytes": path.stat().st_size}
    return Workload(ops, len(ops), inputs, peak_ops=list(ops))


# --- sim: in-memory Monte Carlo ----------------------------------------------

SIM_POOL = 720  # datasets per run; a multiple of the w cycle
SIM_N = (20, 400)
SIM_W = 6  # w cycles through 0..5
SIM_CROSS_CHECKS = 24
SIM_PEAK_OPS = 12


def _covariate_block(rng, n: int, w: int) -> np.ndarray:
    """Covariates on survey-like scales: each column has its own location
    (0..100) and spread (0.5..20)."""
    loc = rng.uniform(0.0, 100.0, size=w)
    scale = rng.uniform(0.5, 20.0, size=w)
    return loc + scale * rng.standard_normal((n, w))


def _response(rng, dummy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Score-like response (mean 100, sd 15) with a group effect of up to one
    sd and covariate effects of up to one sd per covariate sd."""
    if x.shape[1]:
        z = (x - x.mean(axis=0)) / x.std(axis=0)
    else:
        z = x
    effect = rng.uniform(-1.0, 1.0)
    slopes = rng.uniform(-1.0, 1.0, size=x.shape[1])
    return 100.0 + 15.0 * (effect * dummy + z @ slopes + rng.standard_normal(len(dummy)))


def _sim_datasets(seed: int):
    """SIM_POOL datasets. n is stratified over [20, 400] so every seed covers
    the range evenly; w cycles 0..5; group sizes, label order and values are
    random."""
    rng = np.random.default_rng(seed)
    lo, hi = SIM_N
    strata = rng.permutation(SIM_POOL)
    out = []
    for i in range(SIM_POOL):
        n = lo + int((strata[i] + rng.uniform()) / SIM_POOL * (hi - lo + 1))
        w = i % SIM_W
        n2 = int(rng.integers(2, n - 1))
        dummy = np.zeros(n)
        dummy[rng.choice(n, size=n2, replace=False)] = 1.0
        x = _covariate_block(rng, n, w)
        y = _response(rng, dummy, x)
        ds = dataio.Dataset(
            response=y,
            group_labels=tuple("treated" if v else "control" for v in dummy),
            covariates=tuple((f"x{j + 1}", x[:, j]) for j in range(w)),
            source="sim",
        )
        out.append((ds, dummy, x))
    return out


def _sim_run(ds):
    """Returns (report, F tail probability, coefficients, sigma^2, R^2)."""
    # modules are looked up at call time, so tracing sees each call
    design = regression.build_design(ds)
    fit = regression.fit_fwl(design)
    report = effects.effect_report(design, fit)
    p_f = distributions.f_upper_p(report.f_stat, 1, report.df)
    coef = tuple(np.concatenate([fit.delta1_hat, fit.delta2_hat]).tolist())
    return report, p_f, coef, fit.sigma2_hat, fit.r_squared


def _check_sim(result):
    report, p_f, coef, sigma2, _ = result
    via_beta = abs(coef[1]) / math.sqrt(sigma2)
    return _first_failure(
        _close("|d| vs |beta1|/sigma", abs(report.d), via_beta, rel=REL_IDENTITY),
        # F = t^2 with df1 = 1, so both tails are the same probability
        _close("F tail vs t tail", p_f, report.p_value, rel=1e-8, abs_=1e-300),
    )


def _lstsq_check(label, x, y, coef, sigma, r_squared) -> str | None:
    """Coefficients, sigma and R^2 against numpy.linalg.lstsq on the same
    rows, in file order."""
    ref, rss, _, _ = np.linalg.lstsq(x, y, rcond=None)
    rss = float(rss[0]) if rss.size else float(np.sum((y - x @ ref) ** 2))
    df = x.shape[0] - x.shape[1]
    tss = float(np.sum((y - y.mean()) ** 2))
    scale = np.abs(ref).max()
    worst = np.abs(np.asarray(coef) - ref).max()
    if not worst <= 1e-8 * scale:
        return f"{label}: coefficients differ from lstsq by {worst:.3g} (scale {scale:.3g})"
    return _first_failure(
        _close(f"{label}: sigma vs lstsq", sigma, math.sqrt(rss / df), rel=1e-9),
        # R^2 = 1 - rss/tss carries absolute, not relative, rounding error
        _close(f"{label}: R^2 vs lstsq", r_squared, 1.0 - rss / tss, abs_=1e-9),
    )


def make_sim(root: Path, seed: int, workdir: Path) -> Workload:
    pool = _sim_datasets(seed)
    ops = [Op(f"sim-n{ds.n_rows}-w{ds.n_covariates}",
              (lambda ds=ds: _sim_run(ds)), _check_sim)
           for ds, _, _ in pool]

    def cross_check(ds, dummy, x):
        def check():
            _, _, coef, sigma2, r_squared = _sim_run(ds)
            design_x = np.column_stack([np.ones(len(dummy)), dummy, x])
            return _lstsq_check(f"sim n={ds.n_rows} w={ds.n_covariates}", design_x,
                                ds.response, coef, math.sqrt(sigma2), r_squared)
        return check

    # memory is dominated by the n x n projectors, so the largest-n ops bound it
    by_n = sorted(range(SIM_POOL), key=lambda i: pool[i][0].n_rows, reverse=True)
    ns = [ds.n_rows for ds, _, _ in pool]
    inputs = {"seed": seed, "datasets": SIM_POOL, "n_min": min(ns), "n_max": max(ns),
              "n_mean": float(np.mean(ns)), "w": "0..5 cycled", "dropped_share": 0.0,
              "file_bytes": 0}
    return Workload(ops, SIM_W, inputs,
                    peak_ops=[ops[i] for i in by_n[:SIM_PEAK_OPS]],
                    cross_checks=[cross_check(*pool[i]) for i in range(SIM_CROSS_CHECKS)])


# --- wide: one generated file, both fitters ----------------------------------

WIDE_ROWS = 2000
WIDE_BAD_ROWS = 20  # 1%: an empty or non-numeric cell
# name, location, spread, decimals: survey-like covariates
WIDE_COVARIATES = (
    ("age", 45.0, 14.0, 0),
    ("educ_years", 14.0, 3.0, 0),
    ("income_k", 55.0, 20.0, 1),
    ("hours_week", 38.0, 9.0, 1),
    ("bmi", 26.0, 4.5, 1),
    ("sleep_h", 7.0, 1.1, 2),
    ("commute_min", 28.0, 15.0, 0),
    ("household", 2.6, 1.3, 0),
    ("score_pre", 62.0, 11.0, 1),
    ("tenure_y", 8.0, 6.0, 1),
)


def _fmt(values: np.ndarray, decimals: int) -> list[str]:
    return [f"{v:.{decimals}f}" for v in values]


def make_wide(root: Path, seed: int, workdir: Path) -> Workload:
    """About 2000 rows, ten covariates, 1% incomplete rows; interleaves
    ``effect --format json`` (FWL route) and ``fit --format json``
    (monolithic route) two to one."""
    rng = np.random.default_rng(seed)
    n, w = WIDE_ROWS, len(WIDE_COVARIATES)
    dummy = (rng.uniform(size=n) < rng.uniform(0.3, 0.7)).astype(float)
    cols = [_fmt(loc + spread * rng.standard_normal(n), dec)
            for _, loc, spread, dec in WIDE_COVARIATES]
    x = np.array([[float(v) for v in col] for col in cols]).T
    y_text = _fmt(_response(rng, dummy, x), 2)
    y = np.array([float(v) for v in y_text])

    bad = rng.choice(n, size=WIDE_BAD_ROWS, replace=False)
    for k, row in enumerate(bad):
        column = int(rng.integers(0, w + 1))  # 0 is the response
        cell = "" if k % 2 == 0 else "n/a"
        if column == 0:
            y_text[row] = cell
        else:
            cols[column - 1][row] = cell
    keep = np.ones(n, dtype=bool)
    keep[bad] = False

    names = [name for name, *_ in WIDE_COVARIATES]
    path = workdir / "wide.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(";".join(["id", "arm", "outcome", *names]) + "\n")
        for i in range(n):
            arm = '"treatment"' if dummy[i] else '"control"'
            fh.write(";".join([f'"p{i:05d}"', arm, y_text[i], *(c[i] for c in cols)]) + "\n")

    design_x = np.column_stack([np.ones(n), dummy, x])[keep]
    y_kept = y[keep]
    rows_used = int(keep.sum())

    def check_json(out: str):
        doc = json.loads(out)
        summary, coefs, eff = doc["data_summary"], doc["coefficients"], doc["effect"]
        if (summary["rows_used"], summary["dropped_rows"]) != (rows_used, WIDE_BAD_ROWS):
            return f"rows used/dropped {summary['rows_used']}/{summary['dropped_rows']}"
        beta1 = coefs["table"][1]["estimate"]
        return _close("|d| vs |beta1|/sigma", abs(eff["d"]),
                      abs(beta1) / coefs["sigma_hat"], rel=REL_IDENTITY)

    base = ["--data", str(path), "--response", "outcome", "--group", "arm",
            "--covariates", ",".join(names), "--format", "json"]
    effect = cli_op("effect-json", ["effect", *base], check_json)
    fit = cli_op("fit-json", ["fit", *base], check_json)
    # Two effect runs per fit run: with a 1:1 mix the median would fall in the
    # gap between the two routes' latencies and jump between runs.
    ops = [effect, fit, effect]

    def cross_check(op):
        def check():
            code, out, _ = op.run()
            if code != 0:
                return f"{op.label}: exit code {code}"
            coefs = json.loads(out)["coefficients"]
            coef = [r["estimate"] for r in coefs["table"]]
            return _lstsq_check(op.label, design_x, y_kept, coef, coefs["sigma_hat"],
                                coefs["r_squared"])
        return check

    inputs = {"seed": seed, "n": n, "rows_used": rows_used, "w": w,
              "dropped_share": WIDE_BAD_ROWS / n, "file_bytes": path.stat().st_size}
    return Workload(ops, len(ops), inputs, peak_ops=[effect, fit],
                    cross_checks=[cross_check(effect), cross_check(fit)])


# --- tall_hist: a large export through the histogram path --------------------

TALL_ROWS = 100_000
TALL_BAD_SHARE = 0.01
TALL_FIXED_EDGES = (-6.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0)


def make_tall_hist(root: Path, seed: int, workdir: Path) -> Workload:
    """A student-export-shaped file (quoted strings plus numeric columns) of
    100k rows; ``hist --format json`` with default edges on G3 and with
    fixed edges, negative ones included, on the G3 - G1 change."""
    rng = np.random.default_rng(seed)
    n = TALL_ROWS
    school = np.where(rng.uniform(size=n) < 0.65, '"GP"', '"MS"')
    sex = np.where(rng.uniform(size=n) < 0.59, '"F"', '"M"')
    age = rng.integers(15, 23, size=n)
    fedu = rng.integers(0, 5, size=n)
    travel = rng.integers(1, 5, size=n)
    g1 = np.clip(np.rint(11.4 + 2.7 * rng.standard_normal(n)), 0, 20).astype(int)
    g2 = np.clip(g1 + rng.integers(-2, 3, size=n), 0, 20)
    g3 = np.clip(g2 + rng.integers(-3, 4, size=n), 0, 20)
    change = g3 - g1

    g3_text = g3.astype(str).astype(object)
    change_text = change.astype(str).astype(object)
    n_bad = int(round(TALL_BAD_SHARE * n))
    kept = {}
    for name, text, values in (("G3", g3_text, g3), ("change", change_text, change)):
        bad = rng.choice(n, size=n_bad, replace=False)
        text[bad[: n_bad // 2]] = ""
        text[bad[n_bad // 2:]] = "NA"
        keep = np.ones(n, dtype=bool)
        keep[bad] = False
        kept[name] = values[keep].astype(float)

    header = "school;sex;age;Fedu;traveltime;G1;G2;G3;change\n"
    columns = [col.tolist() for col in (
        school, sex, age.astype(str), fedu.astype(str), travel.astype(str),
        g1.astype(str), g2.astype(str), g3_text, change_text)]
    path = workdir / "tall.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.write("\n".join(";".join(row) for row in zip(*columns)))
        fh.write("\n")

    def check_hist(column: str, edges: list[float]) -> Check:
        values = kept[column]
        want = [int(c) for c in np.histogram(values, bins=edges)[0]]

        def check(out: str):
            doc = json.loads(out)
            summary, hist = doc["data_summary"], doc["histogram"]
            if (summary["rows_used"], summary["dropped_rows"]) != (len(values), n_bad):
                return f"rows used/dropped {summary['rows_used']}/{summary['dropped_rows']}"
            if [float(e) for e in hist["edges"]] != edges:
                return f"{column} edges {hist['edges'][:4]}..."
            return None if hist["counts"] == want else f"{column} counts {hist['counts']}"

        return check

    edges_arg = "--edges=" + ",".join(f"{e:g}" for e in TALL_FIXED_EDGES)
    ops = [
        cli_op("hist-default-json",
               ["hist", "--data", str(path), "--response", "G3", "--format", "json"],
               check_hist("G3", _default_edges(kept["G3"]))),
        cli_op("hist-edges-json",
               ["hist", "--data", str(path), "--response", "change", "--format", "json",
                edges_arg],
               check_hist("change", list(TALL_FIXED_EDGES))),
    ]
    inputs = {"seed": seed, "n": n, "w": 0, "dropped_share": n_bad / n,
              "file_bytes": path.stat().st_size}
    return Workload(ops, len(ops), inputs, peak_ops=list(ops))


FACTORIES = {
    "student": make_student,
    "sim": make_sim,
    "wide": make_wide,
    "tall_hist": make_tall_hist,
}
