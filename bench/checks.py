"""Checks of a study report against properties the method must have.

Nothing here compares with a stored copy of earlier output. Each check takes
the parsed ``report.json`` together with the model and study files the
program was given, and returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from exact import filtering_moments, gaussian_norm_moments, moment_target
from inputs import expand_steps

# Statistical checks allow this many standard errors. The error is the larger
# of the reported one and the exact one, because a standard error estimated
# from a handful of replicates can be far too small; with six, a simulated
# false alarm rate stays below 1e-6 per check at 4 replicates.
SIGMAS = 6.0
SLOPE_BAND = (-0.65, -0.35)
SLOPE_METRICS = ("member_lp_p2", "mean_err", "cov_err", "gain_err")


def _label(metric: str, p) -> str:
    return f"{metric}_p{int(p)}" if float(p).is_integer() else f"{metric}_p{p}"


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class Case:
    """One report with the inputs that produced it."""

    report: dict
    model: dict
    study: dict

    @cached_property
    def steps(self) -> int:
        return len(expand_steps(self.model))

    @property
    def n_grid(self) -> list[int]:
        return list(self.study["n_grid"])

    @property
    def replicates(self) -> int:
        return int(self.study["replicates"])

    @cached_property
    def estimates(self) -> dict:
        return {(r["metric"], r["k"], r["n"]): r for r in self.report.get("estimates", [])}

    @cached_property
    def rates(self) -> dict:
        return {(r["metric"], r["k"]): r for r in self.report.get("rates", [])}

    @cached_property
    def exact(self):
        return filtering_moments(self.model)

    def value(self, metric: str, k: int, n: int):
        row = self.estimates.get((metric, k, n))
        return None if row is None else row.get("estimate")

    def stderr(self, metric: str, k: int, n: int):
        row = self.estimates.get((metric, k, n))
        return None if row is None else row.get("stderr")

    def expected_estimates(self) -> set[tuple[str, int, int]]:
        p_list = self.study.get("p_list", [2, 4])
        keys = set()
        for k in range(self.steps + 1):
            labels = [_label("member_lp", p) for p in p_list]
            labels += [_label("moment", p) for p in p_list]
            labels += ["mean_err", "cov_err"] + (["gain_err"] if k >= 1 else [])
            keys.update((label, k, n) for label in labels for n in self.n_grid)
        return keys

    def expected_fits(self) -> set[tuple[str, int]]:
        # member_lp is exactly 0 at k = 0 (one shared draw), so it has no fit.
        p_list = self.study.get("p_list", [2, 4])
        fits = set()
        for k in range(self.steps + 1):
            labels = ["mean_err", "cov_err"]
            if k >= 1:
                labels += [_label("member_lp", p) for p in p_list] + ["gain_err"]
            fits.update((label, k) for label in labels)
        return fits


def check_rows(case: Case) -> list[str]:
    """Every expected (metric, k, N) row and fit is present once and finite,
    and no moment flag is raised."""
    problems = []
    seen: dict = {}
    for row in case.report.get("estimates", []):
        key = (row.get("metric"), row.get("k"), row.get("n"))
        seen[key] = seen.get(key, 0) + 1
        if not (_finite(row.get("estimate")) and _finite(row.get("stderr"))):
            problems.append(f"non-finite estimate row {key}")
    expected = case.expected_estimates()
    problems += [f"missing estimate row {key}" for key in sorted(expected - set(seen))]
    problems += [f"unexpected estimate row {key}" for key in sorted(set(seen) - expected, key=str)]
    problems += [f"duplicate estimate row {key}" for key, c in seen.items() if c > 1]
    for key in sorted(case.expected_fits()):
        row = case.rates.get(key)
        if row is None:
            problems.append(f"missing rate fit {key}")
        elif not all(_finite(row.get(f)) for f in ("slope", "intercept", "max_residual")):
            problems.append(f"non-finite rate fit {key}")
    flags = {(r["metric"], r["k"]): r for r in case.report.get("moment_flags", [])}
    for p in case.study.get("p_list", [2, 4]):
        for k in range(case.steps + 1):
            row = flags.get((_label("moment", p), k))
            if row is None:
                problems.append(f"missing moment flag {(_label('moment', p), k)}")
            elif row.get("flagged") is not False:
                problems.append(f"moment flag raised {(_label('moment', p), k)}")
    return problems


def check_k0_member_lp(case: Case) -> list[str]:
    """member_lp at k = 0 is exactly 0: both ensembles start from one draw."""
    problems = []
    for p in case.study.get("p_list", [2, 4]):
        for n in case.n_grid:
            value = case.value(_label("member_lp", p), 0, n)
            if value != 0.0:
                problems.append(f"{_label('member_lp', p)} at k=0, N={n} is {value}, not 0")
    return problems


def _within(what: str, value, se_reported, target, se_exact, slack=0.0):
    if not (_finite(value) and _finite(se_reported)):
        return [f"{what}: no finite estimate"]
    tol = SIGMAS * max(se_reported, se_exact) + slack
    if abs(value - target) > tol:
        return [f"{what}: {value:.6g} is {abs(value - target):.3g} from {target:.6g} (tolerance {tol:.3g})"]
    return []


def check_k0_moment(case: Case) -> list[str]:
    """At k = 0, moment_p2 estimates sqrt(||u0||^2 + tr Q0)."""
    u0, q0 = case.exact[0]
    target, se_exact = moment_target(u0, q0, case.replicates)
    problems = []
    for n in case.n_grid:
        problems += _within(
            f"moment_p2 at k=0, N={n}", case.value("moment_p2", 0, n),
            case.stderr("moment_p2", 0, n), target, se_exact,
        )
    return problems


def check_k0_mean_err(case: Case) -> list[str]:
    """At k = 0, mean_err estimates E||N(0, Q0/N)||."""
    _, q0 = case.exact[0]
    norm_mean, norm_sd = gaussian_norm_moments(q0)
    problems = []
    for n in case.n_grid:
        scale = 1.0 / math.sqrt(n)
        problems += _within(
            f"mean_err at k=0, N={n}", case.value("mean_err", 0, n),
            case.stderr("mean_err", 0, n), norm_mean * scale,
            norm_sd * scale / math.sqrt(case.replicates),
        )
    return problems


def check_large_n_moment(case: Case) -> list[str]:
    """At the largest N, member 1 has the filtering law: moment_p2 at every k
    estimates sqrt(||u_k||^2 + tr Q_k).

    Member 1 of the exact-gain ensemble has exactly that law, and by
    Minkowski's inequality the EnKF member's estimate differs from it by at
    most the reported member_lp_p2, which the tolerance adds.
    """
    n = max(case.n_grid)
    problems = []
    for k, (u, q) in enumerate(case.exact):
        target, se_exact = moment_target(u, q, case.replicates)
        gap = case.value("member_lp_p2", k, n)
        if not _finite(gap):
            problems.append(f"member_lp_p2 at k={k}, N={n}: no finite estimate")
            continue
        problems += _within(
            f"moment_p2 at k={k}, N={n}", case.value("moment_p2", k, n),
            case.stderr("moment_p2", k, n), target, se_exact, slack=gap,
        )
    return problems


def check_decreasing(case: Case) -> list[str]:
    """Every fitted metric is smaller at the largest N than at the smallest."""
    lo, hi = min(case.n_grid), max(case.n_grid)
    problems = []
    for metric, k in sorted(case.expected_fits()):
        first, last = case.value(metric, k, lo), case.value(metric, k, hi)
        if not (_finite(first) and _finite(last) and last < first):
            problems.append(f"{metric} at k={k} does not decrease: N={lo} {first}, N={hi} {last}")
    return problems


def check_slopes(case: Case) -> list[str]:
    """The last-step log-log slopes lie in the N^-1/2 acceptance band."""
    problems = []
    for metric in SLOPE_METRICS:
        row = case.rates.get((metric, case.steps))
        slope = None if row is None else row.get("slope")
        if not (_finite(slope) and SLOPE_BAND[0] < slope < SLOPE_BAND[1]):
            problems.append(f"{metric} slope at k={case.steps} is {slope}, outside {SLOPE_BAND}")
    return problems


CHECKS = (
    check_rows,
    check_k0_member_lp,
    check_k0_moment,
    check_k0_mean_err,
    check_large_n_moment,
    check_decreasing,
)


def check_report(report: dict, model: dict, study: dict, slope_band: bool) -> list[str]:
    case = Case(report, model, study)
    checks = CHECKS + ((check_slopes,) if slope_band else ())
    return [problem for check in checks for problem in check(case)]
