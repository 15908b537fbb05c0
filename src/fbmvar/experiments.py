"""Seeded Monte Carlo experiments verifying the limit theorems at desk scale.

Each experiment is a pure function of its configuration: replicate i
draws from the Philox stream (master_seed, i), workers return
per-replicate statistics in replicate order, and every reduction runs
single-threaded over the concatenated arrays, so reports are
byte-identical for any worker count.  Coupled (same-path) L2 checks are
used where the underlying convergence is in L2; distributional checks
(variance, KS, conditional-variance regression) where it is in law.

One engine (``_collect``) owns sampling, coarsening, blocking and the
worker pool; runners only reduce.  Each replicate draws one path, at the
finest level the run needs: max(levels), plus fine_offset for a ``fine``
kernel.  A runner passes a kernel, a module-level (picklable) function
mapping (cfg, f, v, m, n) to named per-replicate arrays for level n,
where v is one block of that path restricted to level m = n (m = n +
fine_offset for a fine kernel).  The restriction of an exact fBm path to
a coarser dyadic grid is exact fBm, so each level has the right law; the
levels of one replicate are coupled through the shared path.

Verdict policy (fixed, ``THRESHOLDS``, echoed in every report):
decreasing-sequence checks allow at most max_inversions = 1 adjacent
inversion and require final < final_ratio * initial (final_ratio = 1/4)
in small_h and the trapezoid convergence arm, a final relative L2
distance below an absolute 0.15 in noncentral (at f = 1 only the exact
identity, max squared distance <= 1e-24) and corollary item 6, and
final < initial in corollary items 1 and 2 (the trapezoid counterexample
arm needs final >= initial / 2).  Variance comparisons use a relative
tolerance variance_rtol = 5%, regression slopes and the printed/corrected
arbitration slope_rtol = 10%, and KS tests reject below ks_alpha = 0.01.
Series constants are evaluated at the library's default tolerance.  A
configuration sets only what a run varies; no threshold is configurable.
Every per-level statistic carries a Monte Carlo standard error.

The report's wall-clock time, taken once in ``run_experiment``, is
deliberately not part of the canonical JSON (reports must be
byte-reproducible); it is exposed separately on the report object.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import fbm
from .constants import (
    RegimeCase,
    classify_regime,
    renorm_factor,
    sigma_clt,
    sigma_critical_high,
    sigma_critical_high_corrected,
    sigma_tilde,
    sigma_tilde_critical,
    sigma_tilde_critical_corrected,
)
from .errors import ConfigError, RegimeError, SizeLimitError
from .hermite import gaussian_moment
from .hermite_process import hermite_partial_sums, young_integral_rows
from .stats import (
    count_inversions,
    ks_1samp_normal,
    least_squares_slope,
    mean_and_se,
    median_and_se,
    through_origin_slope,
    variance_and_se,
)
from .variations import (
    hermite_variation_rows,
    power_variation_rows,
    riemann_sum_rows,
    unweighted_second_moment,
    centered_power_second_moment,
)
from .weights import parse_weight

REPORT_SCHEMA = "fbmvar-report/1"

EXPERIMENT_IDS = (
    "small_h",
    "clt",
    "critical_high",
    "noncentral",
    "corollary",
    "trapezoid",
    "conjecture_quarter",
)

# read-only, so no caller can loosen a verdict in place
THRESHOLDS = MappingProxyType({
    "final_ratio": 0.25,
    "max_inversions": 1,
    "variance_rtol": 0.05,
    "slope_rtol": 0.10,
    "ks_alpha": 0.01,
})

_DEFAULT_LEVELS = {
    "small_h": (6, 7, 8, 9, 10, 11, 12),
    "clt": (10, 12, 14),
    "critical_high": (12, 14, 16),
    "noncentral": (6, 7, 8, 9, 10),
    "corollary": (8, 10, 12),
    "trapezoid": (6, 8, 10, 12, 14),
    "conjecture_quarter": (10, 12, 14),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs that fully determine an experiment's report."""

    experiment_id: str
    hurst: float
    order: int
    weight: str = "one"
    levels: tuple[int, ...] = ()
    replicates: int = 1000
    master_seed: int = 0
    fine_offset: int = 6
    threads: int = 1

    def __post_init__(self) -> None:
        if self.experiment_id not in EXPERIMENT_IDS:
            raise ConfigError(
                f"unknown experiment {self.experiment_id!r}; "
                f"choose from {EXPERIMENT_IDS}"
            )
        levels = tuple(self.levels) or _DEFAULT_LEVELS[self.experiment_id]
        object.__setattr__(self, "levels", levels)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"levels must be strictly increasing, got {levels}")
        if levels[0] < 1:
            raise ConfigError(f"levels must be >= 1, got {levels}")
        for name, low in (("replicates", 100), ("fine_offset", 0), ("threads", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        parse_weight(self.weight)

    def canonical_dict(self) -> dict:
        # threads is an execution detail, not part of the result's identity
        d = asdict(self)
        d.pop("threads")
        d["levels"] = list(self.levels)
        return d


@dataclass
class ExperimentReport:
    experiment_id: str
    config: dict
    levels: list[dict]
    summary: dict
    thresholds: dict
    flags: list[str]
    verdict: str
    wall_clock_seconds: float | None = field(default=None, compare=False)

    def to_json(self) -> str:
        """Canonical, byte-reproducible JSON (wall clock excluded)."""
        payload = {
            "schema": REPORT_SCHEMA,
            "experiment": self.experiment_id,
            "config": self.config,
            "levels": self.levels,
            "summary": self.summary,
            "thresholds": self.thresholds,
            "flags": self.flags,
            "verdict": self.verdict,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=_plain) + "\n"

    def per_level_csv(self) -> str:
        # every key in order of first appearance
        keys = list(dict.fromkeys(k for entry in self.levels for k in entry))
        lines = [",".join(keys)]
        for entry in self.levels:
            lines.append(",".join(_csv_cell(entry.get(k)) for k in keys))
        return "\n".join(lines) + "\n"

    def plot_tsv(self) -> str:
        lines = ["n\tstat\tyerr"]
        for entry in self.levels:
            lines.append(f"{entry['level']}\t{entry['stat']!r}\t{entry['stat_se']!r}")
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _plain(obj):
    # json.dumps hook for the numpy values json cannot encode itself
    # (np.float64 subclasses float and is encoded as one)
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the experiment named in the config."""
    runner: Callable[[ExperimentConfig], ExperimentReport] = {
        "small_h": run_small_h,
        "clt": run_clt,
        "critical_high": run_critical_high,
        "noncentral": run_noncentral,
        "corollary": run_corollary,
        "trapezoid": run_trapezoid,
        "conjecture_quarter": run_conjecture_quarter,
    }[config.experiment_id]
    t0 = time.perf_counter()
    report = runner(config)
    report.wall_clock_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# replicate engine


def _values_block(
    hurst: float, level: int, seed: int, start: int, count: int
) -> np.ndarray:
    inc = fbm.sample_increments_circulant(hurst, level, seed, start, count)
    vals = np.zeros((count, inc.shape[1] + 1))
    np.cumsum(inc, axis=1, out=vals[:, 1:])
    return vals


def _replicate_block(
    cfg: ExperimentConfig, kernel: Callable, fine: bool, start: int, count: int
) -> dict[str, np.ndarray]:
    """Kernel outputs for replicates start .. start+count-1, every level."""
    f = parse_weight(cfg.weight)
    offset = cfg.fine_offset if fine else 0
    top = max(cfg.levels) + offset
    vals = _values_block(cfg.hurst, top, cfg.master_seed, start, count)
    out: dict[str, np.ndarray] = {}
    for n in cfg.levels:
        m = n + offset
        out.update(kernel(cfg, f, vals[:, :: 2 ** (top - m)], m, n))
    return out


def _collect(
    cfg: ExperimentConfig, kernel: Callable, fine: bool = False
) -> dict[str, np.ndarray]:
    """Run the kernel over all replicates, in order, and concatenate."""
    fine_level = max(cfg.levels) + (cfg.fine_offset if fine else 0)
    if fine_level > fbm.CIRCULANT_MAX_LEVEL:
        raise SizeLimitError(
            f"finest sampled level {fine_level} exceeds the circulant "
            f"sampler's ceiling {fbm.CIRCULANT_MAX_LEVEL}"
        )
    # keep one block's normals around 2^22 floats (~32 MB)
    size = max(1, (1 << 22) >> (fine_level + 1))
    blocks = [
        (start, min(size, cfg.replicates - start))
        for start in range(0, cfg.replicates, size)
    ]
    if cfg.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        args = zip(*((cfg, kernel, fine, s, c) for s, c in blocks))
        with ProcessPoolExecutor(max_workers=min(cfg.threads, len(blocks))) as ex:
            parts = list(ex.map(_replicate_block, *args))
    else:
        parts = [_replicate_block(cfg, kernel, fine, s, c) for s, c in blocks]
    return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}


# ---------------------------------------------------------------------------
# kernels: (cfg, f, v, m, n) -> named per-replicate arrays for level n


def _hermite_drift(f, v: np.ndarray, q: int) -> np.ndarray:
    """((-1)^q / (2^q q!)) * Riemann sum of f^(q)(B): the small-H limit."""
    const = (-1.0) ** q / (2.0**q * math.factorial(q))
    return const * riemann_sum_rows(v, f, order=q)


def _power_drift(f, v: np.ndarray, q: int) -> np.ndarray:
    """(1/4) C(q,2) mu_{q-2} * Riemann sum of f''(B): the even-q power drift."""
    return 0.25 * math.comb(q, 2) * gaussian_moment(q - 2) * riemann_sum_rows(
        v, f, order=2
    )


def _pathwise_kernel(cfg, f, v, m, n, item=None):
    """Squared distance of the renormalised variation to its pathwise limit
    on the same path: small_h, or corollary item 1 or 2."""
    q, hurst = cfg.order, cfg.hurst
    if item == 1:
        pv = power_variation_rows(v, hurst, n, f, q, centered=False)
        stat = 2.0 ** (-n * hurst) * pv
        mu = gaussian_moment(q - 1)
        limit = q * mu * (f.antiderivative(v[:, -1]) - f.antiderivative(0.0))
    elif item == 2:
        pv = power_variation_rows(v, hurst, n, f, q, centered=True)
        stat = 2.0 ** (2 * n * hurst - n) * pv
        limit = _power_drift(f, v, q)
    else:
        stat = renorm_factor(hurst, q, n) * hermite_variation_rows(v, hurst, n, f, q)
        limit = _hermite_drift(f, v, q)
    return {f"diff_sq_{n}": (stat - limit) ** 2}


def _normalised_kernel(cfg, f, v, m, n, power=False, drift=False):
    """y = 2^(-n/2) V_n (Hermite, or centred power when `power`), further
    divided by sqrt(n) at a critical point H = 1 - 1/(2q) (q = 2 for the
    power variation), with the Riemann sum of f(B)^2 and, when `drift`,
    the drift part of the mixed limit at H = 1/(2q)."""
    q, hurst = cfg.order, cfg.hurst
    norm = renorm_factor(hurst, 2 if power else q, n)
    if power:
        raw = power_variation_rows(v, hurst, n, f, q, centered=True)
    else:
        raw = hermite_variation_rows(v, hurst, n, f, q)
    # fsq: Riemann sum of f(B)^2, the conditional-variance weight
    out = {f"y_{n}": norm * raw, f"fsq_{n}": np.sum(f(v[:, :-1]) ** 2, axis=1) / 2**n}
    if drift:
        out[f"drift_{n}"] = _power_drift(f, v, q) if power else _hermite_drift(f, v, q)
    return out


def _young_kernel(cfg, f, v, m, n, power=False):
    """Renormalised fine-level variation against the Young sum of f(B)
    against the Hermite process built from the same path: of order q for
    V_n^(q) (noncentral), of order 2 and scaled by 2 mu_{q-2} C(q,2) for
    the centred power variation (corollary item 6)."""
    q, hurst = cfg.order, cfg.hurst
    if power:
        pv = power_variation_rows(v, hurst, m, f, q, centered=True)
        stat = 2.0 ** (m - 2.0 * hurst * m) * pv
        const, order = 2.0 * gaussian_moment(q - 2) * math.comb(q, 2), 2
    else:
        stat = renorm_factor(hurst, q, m) * hermite_variation_rows(v, hurst, m, f, q)
        const, order = 1.0, q
    z_vals = hermite_partial_sums(np.diff(v, axis=1), hurst, m, order, n)
    limit = const * young_integral_rows(f, v[:, :: 2 ** (m - n)], z_vals)
    return {f"diff_sq_{n}": (stat - limit) ** 2, f"v_sq_{n}": stat**2}


def _trapezoid_kernel(cfg, f, v, m, n):
    f0 = float(f.derivative(0, np.zeros(1))[0])
    fprime = f.derivative(1, v)
    t_sum = 0.5 * np.sum((fprime[:, 1:] + fprime[:, :-1]) * np.diff(v, axis=1), axis=1)
    target = f.derivative(0, v[:, -1]) - f0
    return {f"err_{n}": np.abs(t_sum - target)}


def _audit_kernel(cfg, f, v, m, n):
    return {f"vsq_{n}": hermite_variation_rows(v, cfg.hurst, n, f, cfg.order) ** 2}


# ---------------------------------------------------------------------------
# shared reducers and verdicts


# the regime each runner requires, and what its error says it needs
_REGIMES = {
    "small_h": (RegimeCase.SMALL_H, "H < 1/(2q) = {low}, got H={h}"),
    "clt": (RegimeCase.CLT, "1/(2q) < H < 1-1/(2q), got H={h}, q={q}"),
    "critical_high": (RegimeCase.CRITICAL_HIGH, "H = 1 - 1/(2q) = {high}, got {h}"),
    "noncentral": (RegimeCase.NONCENTRAL, "H > 1 - 1/(2q) = {high}, got {h}"),
    "conjecture_quarter": (RegimeCase.CRITICAL_LOW, "H = 1/(2q) = {low}, got {h}"),
}


def _require_regime(cfg: ExperimentConfig, runner: str) -> None:
    case, needs = _REGIMES[runner]
    if classify_regime(cfg.hurst, cfg.order).case_id is not case:
        low = 1.0 / (2 * cfg.order)
        needs = needs.format(h=cfg.hurst, q=cfg.order, low=low, high=1.0 - low)
        raise RegimeError(f"{runner} needs {needs}")


def _level_entries(
    cfg: ExperimentConfig, data: dict, key: str, estimator: Callable, name: str
) -> list[dict]:
    """One {level, stat, stat_se, statistic} entry per level."""
    entries = []
    for n in cfg.levels:
        stat, se = estimator(data[f"{key}_{n}"])
        entries.append({"level": n, "stat": stat, "stat_se": se, "statistic": name})
    return entries


def _variance(cfg: ExperimentConfig) -> Callable:
    # an unweighted variation is exactly centred, so its mean is known
    return partial(variance_and_se, known_mean=0.0 if cfg.weight == "one" else None)


def _decreasing(values: list[float]) -> tuple[bool, dict]:
    """Inversion count and final/initial ratio of a per-level sequence;
    ok when the inversions are within max_inversions."""
    inversions = count_inversions(values)
    ratio = values[-1] / values[0] if values[0] != 0 else 0.0
    return inversions <= THRESHOLDS["max_inversions"], {
        "initial": values[0],
        "final": values[-1],
        "final_over_initial": ratio,
        "inversions": inversions,
    }


def _relative_l2(
    cfg: ExperimentConfig, data: dict, detailed: bool
) -> tuple[list[dict], bool, dict]:
    """Relative L2 distance sqrt(E diff^2 / E stat^2) per level; passes when
    it decreases and ends below the absolute threshold 0.15."""
    levels = []
    for n in cfg.levels:
        d_sq, d_se = mean_and_se(data[f"diff_sq_{n}"])
        v_sq, _ = mean_and_se(data[f"v_sq_{n}"])
        rel = math.sqrt(d_sq / v_sq) if v_sq > 0 else 0.0
        entry: dict = {"level": n}
        if detailed:
            entry["fine_level"] = n + cfg.fine_offset
        entry.update(
            stat=rel,
            stat_se=0.5 * rel * (d_se / d_sq) if d_sq > 0 else 0.0,
            statistic="relative_l2_distance",
        )
        if detailed:
            entry.update(mean_sq_distance=d_sq, mean_sq_value=v_sq)
        levels.append(entry)
    rels = [e["stat"] for e in levels]
    inversions = count_inversions(rels)
    ok = inversions <= THRESHOLDS["max_inversions"] and rels[-1] < 0.15
    summary = {
        "initial": rels[0],
        "final": rels[-1],
        "inversions": inversions,
        "final_threshold": 0.15,
    }
    return levels, ok, summary


def _drift_excess(
    cfg: ExperimentConfig, data: dict, sigma_value: float
) -> tuple[list[dict], bool, dict]:
    """Per-level means of y; at the top level, mean(y) against the mean
    drift (within 3 combined SE) and Var(y) - Var(drift) against
    sigma^2 E int f^2 (relative tolerance 2 * variance_rtol)."""
    levels = _level_entries(cfg, data, "y", mean_and_se, "mean")
    n_top = max(cfg.levels)
    y = data[f"y_{n_top}"]
    drift = data[f"drift_{n_top}"]
    mean, mean_se = mean_and_se(y)
    drift_mean, drift_se = mean_and_se(drift)
    excess = float(np.var(y, ddof=1) - np.var(drift, ddof=1))
    target_var = sigma_value**2 * float(np.mean(data[f"fsq_{n_top}"]))
    mean_ok = abs(mean - drift_mean) <= 3.0 * math.hypot(mean_se, drift_se)
    var_ok = abs(excess / target_var - 1.0) <= 2 * THRESHOLDS["variance_rtol"]
    summary = {
        "mean": mean,
        "mean_se": mean_se,
        "drift_target": drift_mean,
        "drift_target_se": drift_se,
        "excess_variance": excess,
        "target_excess_variance": target_var,
        "variance_tolerance": 2 * THRESHOLDS["variance_rtol"],
        "mean_ok": mean_ok,
        "variance_ok": var_ok,
    }
    return levels, mean_ok and var_ok, summary


def _arbitrate(
    cfg: ExperimentConfig, data: dict, second_moment: Callable, readings: dict
) -> tuple[list[dict], float, dict]:
    """Printed-vs-corrected arbitration of a critical constant: each
    reading predicts the top-level variance as the exact f == 1 variance
    second_moment / (2^n n), times E int f^2 if weighted, times its
    (reading/corrected)^2 in `readings`, and matches within slope_rtol."""
    levels = _level_entries(cfg, data, "y", _variance(cfg), "variance")
    for e in levels:
        n = e["level"]
        e["exact_f1_variance"] = second_moment(cfg.hurst, cfg.order, n) / (2.0**n * n)
    n_top = max(cfg.levels)
    f2 = float(np.mean(data[f"fsq_{n_top}"])) if cfg.weight != "one" else 1.0
    shape_top = levels[-1]["exact_f1_variance"] * f2
    predictions = {k: shape_top * ratio for k, ratio in readings.items()}
    matches = {
        k: abs(levels[-1]["stat"] / p - 1.0) <= THRESHOLDS["slope_rtol"]
        for k, p in predictions.items()
    }
    matched = [k for k, v in matches.items() if v]
    return levels, shape_top, {
        "predicted_finite_level_variance": predictions,
        "matches": matches,
        "matched_variant": matched[0] if len(matched) == 1 else None,
    }


def _report(cfg, levels, summary, flags, ok: bool) -> ExperimentReport:
    return ExperimentReport(
        experiment_id=cfg.experiment_id,
        config=cfg.canonical_dict(),
        levels=levels,
        summary=summary,
        thresholds=dict(THRESHOLDS),
        flags=flags,
        verdict="PASS" if ok else "FAIL",
    )


# ---------------------------------------------------------------------------
# runners, one per experiment id


def run_small_h(cfg: ExperimentConfig) -> ExperimentReport:
    """L2 distance of 2^(n(qH-1)) V_n^(q)(f) to its derivative-integral
    limit, estimated on the same path, per level (H < 1/(2q)).

    The mean squared distance is floored by the chaos-2q fluctuation of
    the variation and decays as 2^(n(2qH-1)).  The final_ratio verdict
    can therefore only pass when final_ratio > 2^((2qH-1)(n_last-n_first)),
    up to Monte Carlo noise: a correct run at H=0.2, q=2 over the default
    levels 6..12 reaches about 2^(-1.2) ~ 0.435 at best and reports FAIL
    against the fixed 1/4.
    """
    _require_regime(cfg, "small_h")
    data = _collect(cfg, _pathwise_kernel)
    levels = _level_entries(cfg, data, "diff_sq", mean_and_se, "mean_sq_distance")
    ok, summary = _decreasing([e["stat"] for e in levels])
    ok = ok and summary["final_over_initial"] < THRESHOLDS["final_ratio"]
    summary["limit"] = "((-1)^q / (2^q q!)) * integral of f^(q)(B_s) ds"
    return _report(cfg, levels, summary, [], ok)


def run_clt(cfg: ExperimentConfig) -> ExperimentReport:
    """Breuer-Major window 1/(2q) < H < 1-1/(2q).

    f == 1: empirical Var(2^(-n/2) V_n) against sigma_{H,q}^2 plus a KS
    normality check at the top level.  f != 1: through-origin regression
    of (2^(-n/2) V_n)^2 on the Riemann sum of f(B)^2; the slope estimates
    sigma_{H,q}^2 (the mixed-Gaussian conditional variance).
    """
    _require_regime(cfg, "clt")
    sigma = sigma_clt(cfg.hurst, cfg.order)
    sigma2 = sigma.value**2
    unweighted = cfg.weight == "one"
    data = _collect(cfg, _normalised_kernel)
    levels = []
    for n in cfg.levels:
        y = data[f"y_{n}"]
        var, var_se = _variance(cfg)(y)
        entry = {"level": n, "variance": var, "variance_se": var_se}
        if unweighted:
            entry.update(stat=var, stat_se=var_se, statistic="variance")
        else:
            slope, slope_se = through_origin_slope(data[f"fsq_{n}"], y**2)
            entry.update(
                stat=slope,
                stat_se=slope_se,
                statistic="conditional_variance_slope",
            )
        levels.append(entry)
    top = levels[-1]
    summary: dict = {
        "sigma2": sigma2,
        "sigma": sigma.value,
        "truncation_radius": sigma.radius,
    }
    flags = ["pair-convergence tested via marginal law + conditional variance only"]
    if unweighted:
        y_top = data[f"y_{max(cfg.levels)}"]
        ks_d, ks_p = ks_1samp_normal(y_top / sigma.value)
        summary.update(
            variance_rel_err=abs(top["variance"] / sigma2 - 1.0),
            ks_stat=ks_d,
            ks_p=ks_p,
        )
        ok = summary["variance_rel_err"] <= THRESHOLDS["variance_rtol"]
        ok = ok and ks_p > THRESHOLDS["ks_alpha"]
    else:
        f2 = float(np.mean(data[f"fsq_{max(cfg.levels)}"]))
        summary["slope_rel_err"] = abs(top["stat"] / sigma2 - 1.0)
        summary["mean_f_sq"] = f2
        summary["variance_rel_err"] = abs(top["variance"] / (sigma2 * f2) - 1.0)
        ok = (
            summary["slope_rel_err"] <= THRESHOLDS["slope_rtol"]
            and summary["variance_rel_err"] <= THRESHOLDS["slope_rtol"]
        )
    return _report(cfg, levels, summary, flags, ok)


def run_critical_high(cfg: ExperimentConfig) -> ExperimentReport:
    """Variance of n^(-1/2) 2^(-n/2) V_n at H = 1 - 1/(2q), matched against
    both readings of the printed critical constant.

    The sum converges only logarithmically here (the exact f==1 variance
    at n=16, q=2 is ~1.30x the limit), so each variant is compared
    through its *predicted finite-level variance*: the exact second
    moment of V_n^(q)(1) (same rho-series under both readings) scaled by
    the variant's claimed limit.  This preserves the 10x separation
    between the variants while removing the shared finite-size factor.
    """
    q = cfg.order
    _require_regime(cfg, "critical_high")
    printed = sigma_critical_high(q)
    corrected_var = sigma_critical_high_corrected(q) ** 2  # == printed
    printed_var = printed**2
    data = _collect(cfg, _normalised_kernel)
    readings = {"printed_as_sigma": printed_var / corrected_var, "sqrt_corrected": 1.0}
    levels, shape_top, arbitration = _arbitrate(
        cfg, data, unweighted_second_moment, readings
    )
    for e in levels:
        e["variance_over_n_asymptote"] = e["stat"] / corrected_var
    summary: dict = {
        "printed_constant": printed,
        "printed_as_sigma_variance": printed_var,
        "sqrt_corrected_variance": corrected_var,
        **arbitration,
    }
    flags = ["arbitrates the printed/corrected critical-constant ambiguity"]
    if cfg.weight == "one":
        # informational: convergence to normality is only logarithmic at the
        # critical point, so a large-sample KS still rejects at desk scale
        y_top = data[f"y_{max(cfg.levels)}"]
        ks_d, ks_p = ks_1samp_normal(y_top / math.sqrt(shape_top))
        summary.update(ks_stat=ks_d, ks_p=ks_p)
        flags.append("ks check reported, not gated (critical-case slow normality)")
    ok = arbitration["matched_variant"] is not None
    return _report(cfg, levels, summary, flags, ok)


def run_noncentral(cfg: ExperimentConfig) -> ExperimentReport:
    """Coupled check of 2^(n q(1-H) - n) V_n^(q)(f) against the Young sum
    of f(B) against the Hermite process built from the same fine path
    (m = n + fine_offset).  At f = 1 the two sides agree identically, so
    the relative L2 values are rounding noise in any order and the verdict
    rests on the identity check alone."""
    _require_regime(cfg, "noncentral")
    data = _collect(cfg, _young_kernel, fine=True)
    levels, ok, summary = _relative_l2(cfg, data, detailed=True)
    if cfg.weight == "one":
        summary["identity_max_sq"] = float(
            max(np.max(data[f"diff_sq_{n}"]) for n in cfg.levels)
        )
        ok = summary["identity_max_sq"] <= 1e-24
    return _report(cfg, levels, summary, [], ok)


def _corollary_item(cfg: ExperimentConfig) -> int:
    """The item (parity of q, range of H) selects; RegimeError for odd q
    at H <= 1/2, which no item covers."""
    if cfg.order % 2 == 1:
        if cfg.hurst <= 0.5:
            raise RegimeError("corollary item 1 (odd q) requires H > 1/2")
        return 1
    # an even-q centred power variation is led by its second chaos, so
    # items 2-6 follow the q = 2 regime of H (boundaries 1/4 and 3/4)
    return {
        RegimeCase.SMALL_H: 2, RegimeCase.CRITICAL_LOW: 3, RegimeCase.CLT: 4,
        RegimeCase.CRITICAL_HIGH: 5, RegimeCase.NONCENTRAL: 6,
    }[classify_regime(cfg.hurst, 2).case_id]


def run_corollary(cfg: ExperimentConfig) -> ExperimentReport:
    """Weighted power variations, dispatched on (parity of q, range of H):

    1. odd q, H > 1/2: coupled L2 to q mu_{q-1} int_0^{B_1} f(x) dx
    2. even q, H < 1/4: coupled L2 to (1/4) C(q,2) mu_{q-2} int f''(B) ds
    3. even q, H = 1/4: drift + excess-variance check (exploratory)
    4. even q, 1/4 < H < 3/4: variance -> sigma~^2 E int f^2
    5. even q, H = 3/4: printed/corrected arbitration for sigma~
    6. even q, H > 3/4: coupled L2 to 2 mu_{q-2} C(q,2) int f(B) dZ^(2)
    """
    q = cfg.order
    item = _corollary_item(cfg)
    kernel = {
        1: partial(_pathwise_kernel, item=1),
        2: partial(_pathwise_kernel, item=2),
        3: partial(_normalised_kernel, power=True, drift=True),
        4: partial(_normalised_kernel, power=True),
        5: partial(_normalised_kernel, power=True),
        6: partial(_young_kernel, power=True),
    }[item]
    data = _collect(cfg, kernel, fine=item == 6)
    flags: list[str] = []

    if item in (1, 2):
        levels = _level_entries(cfg, data, "diff_sq", mean_and_se, "mean_sq_distance")
        # the stated contract for these items is a decreasing coupled
        # distance; the chaos-q fluctuation floor decays too slowly for a
        # fixed final-ratio gate at desk-scale level windows
        ok, summary = _decreasing([e["stat"] for e in levels])
        ok = ok and summary["final"] < summary["initial"]
    elif item == 6:
        levels, ok, summary = _relative_l2(cfg, data, detailed=False)
    elif item == 4:
        st = sigma_tilde(cfg.hurst, q)
        target_base = st.value**2
        levels = _level_entries(cfg, data, "y", _variance(cfg), "variance")
        f2 = float(np.mean(data[f"fsq_{max(cfg.levels)}"]))
        target = target_base * (1.0 if cfg.weight == "one" else f2)
        rel_err = abs(levels[-1]["stat"] / target - 1.0)
        ok = rel_err <= THRESHOLDS["variance_rtol"]
        summary = {
            "sigma_tilde2": target_base,
            "target_variance": target,
            "variance_rel_err": rel_err,
            "truncation_radius": st.radius,
        }
    elif item == 5:
        printed = sigma_tilde_critical(q)
        corrected = sigma_tilde_critical_corrected(q)
        readings = {"printed": printed**2 / corrected**2, "corrected": 1.0}
        levels, _, summary = _arbitrate(
            cfg, data, centered_power_second_moment, readings
        )
        coincide = abs(printed / corrected - 1.0) <= 1e-12
        if coincide:
            # at q = 2 the printed formula equals the pattern-consistent
            # value, so there is nothing to arbitrate
            ok = bool(summary["matches"]["corrected"])
            summary["matched_variant"] = "coincide" if ok else None
        else:
            ok = summary["matched_variant"] is not None
        summary.update(
            printed_sigma_tilde=printed,
            corrected_sigma_tilde=corrected,
            variants_coincide=coincide,
        )
        flags.append("arbitrates the printed/corrected critical-constant ambiguity")
    else:  # item 3
        flags.append("EXPLORATORY")
        st = sigma_tilde(cfg.hurst, q)
        levels, ok, summary = _drift_excess(cfg, data, st.value)
    summary["item"] = item
    return _report(cfg, levels, summary, flags, ok)


def run_trapezoid(cfg: ExperimentConfig) -> ExperimentReport:
    """Median error of the symmetric Riemann sums toward f(B_1) - f(0).

    H > 1/6 is the convergence arm (error must shrink); H <= 1/6 is the
    counterexample arm, which passes when the statistic does NOT decay
    (final >= half of initial), as for f(x) = x^3.

    For 1/6 < H < 1/2 the median error decays as 2^(n(1/2-3H)), so the
    convergence arm's final_ratio verdict can only pass when
    final_ratio > 2^((1/2-3H)(n_last-n_first)), up to Monte Carlo noise:
    at H=0.3 over levels 6..14 that bound is 2^(-3.2) ~ 0.109.
    """
    arm = "convergence" if cfg.hurst > 1.0 / 6.0 else "counterexample"
    data = _collect(cfg, _trapezoid_kernel)
    levels = _level_entries(cfg, data, "err", median_and_se, "median_abs_error")
    monotone, summary = _decreasing([e["stat"] for e in levels])
    summary["arm"] = arm
    if arm == "convergence":
        ok = monotone and summary["final_over_initial"] < THRESHOLDS["final_ratio"]
        # a sum that telescopes exactly (e.g. f = x^2 at H = 1/2) leaves only
        # rounding noise; treat anything at the float floor as converged
        ok = ok or summary["final"] < 1e-12
    else:
        ok = summary["final_over_initial"] >= 0.5
    return _report(cfg, levels, summary, [], ok)


def run_conjecture_quarter(cfg: ExperimentConfig) -> ExperimentReport:
    """Exploratory check of the conjectured mixed limit at H = 1/(2q):
    mean of 2^(-n/2) V_n -> ((-1)^q/(2^q q!)) E int f^(q)(B) ds and the
    variance in excess of the drift part -> sigma_{1/(2q),q}^2 E int f^2.
    Proven only for q = 2 (H = 1/4); flagged UNPROVEN for q >= 3."""
    q = cfg.order
    _require_regime(cfg, "conjecture_quarter")
    flags = ["EXPLORATORY"]
    if q >= 3:
        flags.append("UNPROVEN")
    sigma = sigma_clt(cfg.hurst, q)
    data = _collect(cfg, partial(_normalised_kernel, drift=True))
    levels, ok, summary = _drift_excess(cfg, data, sigma.value)
    summary["sigma2"] = sigma.value**2
    return _report(cfg, levels, summary, flags, ok)


# ---------------------------------------------------------------------------
# Proposition p1 variance-order audit (used by the acceptance suite)


def variance_order_audit(
    hurst: float,
    q: int,
    weight: str,
    levels: tuple[int, ...],
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> dict:
    """Slope diagnostics of log2 E[V_n^(q)(f)^2] against n.

    Returns the least-squares slope plus the 'excess slope': the slope of
    log2 E[V_n^2] - n regressed on log2(n), which is ~1 when the variance
    carries the critical n 2^n factor and ~0 when it is a clean power."""
    # ExperimentConfig validates the inputs and carries them to the engine,
    # which reads only the sampling fields; the audit has no regime, so the
    # experiment id is a placeholder that nothing reads
    cfg = ExperimentConfig(
        experiment_id="clt",
        hurst=hurst,
        order=q,
        weight=weight,
        levels=levels,
        replicates=replicates,
        master_seed=master_seed,
        threads=threads,
    )
    data = _collect(cfg, _audit_kernel)
    means = _level_entries(cfg, data, "vsq", mean_and_se, "mean_sq")
    log_means = [math.log2(e["stat"]) for e in means]
    ses = [e["stat_se"] / (e["stat"] * math.log(2.0)) for e in means]
    slope, _ = least_squares_slope(levels, log_means)
    excess = [lm - n for lm, n in zip(log_means, levels)]
    excess_slope, _ = least_squares_slope([math.log2(n) for n in levels], excess)
    return {
        "levels": list(levels),
        "log2_mean_sq": log_means,
        "log2_se": ses,
        "slope": slope,
        "excess_slope": excess_slope,
    }
