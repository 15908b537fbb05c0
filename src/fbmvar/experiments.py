"""Seeded Monte Carlo experiments verifying the limit theorems at desk scale.

Each experiment is a pure function of its configuration: replicate i
draws from the Philox stream (master_seed, i), workers return
per-replicate statistics in replicate order, and every reduction runs
single-threaded over the concatenated arrays, so reports are
byte-identical for any worker count.  Coupled (same-path) L2 checks are
used where the underlying convergence is in L2; distributional checks
(variance, KS, conditional-variance regression) where it is in law.

One engine (``_collect``) owns sampling, coarsening, blocking and the
worker threads; runners only reduce.  Each replicate draws one path, at
the finest level the run needs: max(levels), plus fine_offset for a
``fine`` kernel.  A runner passes a kernel, any callable mapping
(cfg, paths, m, n) to named per-replicate arrays for level n, where paths
is one block of that path restricted to level m = n (m = n + fine_offset
for a fine kernel): its increments, and only when the kernel reads them
its values and f^(order) at every point, evaluated once per block on the
finest grid.  The restriction of an exact fBm path to a coarser dyadic
grid is exact fBm, so each level has the right law; the levels of one
replicate are coupled through the shared path.

Verdict policy (fixed, ``THRESHOLDS``, echoed in every report):
decreasing-sequence checks allow at most max_inversions = 1 adjacent
inversion and require final < final_ratio * initial (final_ratio = 1/4)
in small_h and the trapezoid convergence arm, a final relative L2
distance below an absolute 0.15 in noncentral and corollary item 6, and
final < initial in corollary items 1 and 2 (the trapezoid counterexample
arm needs final >= initial / 2; a polynomial weight of degree <= 2, whose
symmetric sums are exact, passes the convergence arm and fails this one).
Where the two sides agree by construction, at a constant weight c in
noncentral, in corollary item 6 at q = 2 and in item 1 at q = 1, only the
exact identity counts: max squared distance <= 1e-24 c^2.  Variance
comparisons use a relative tolerance variance_rtol = 5%, regression
slopes and the printed/corrected arbitration slope_rtol = 10%, and KS
tests reject below ks_alpha = 0.01.  Series constants are judged by the
library's one tolerance, ``constants.REL_TOL``.  A configuration sets
only what a run varies; no threshold is configurable.
Every per-level statistic carries a Monte Carlo standard error.

The report's wall-clock time, taken once in ``run_experiment``, is
deliberately not part of the canonical JSON (reports must be
byte-reproducible); it is exposed separately on the report object.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import fbm
from .constants import (
    RegimeCase,
    TruncatedSeries,
    _check_order,
    classify_regime,
    renorm_factor,
    require_regime,
    sigma_clt,
    sigma_critical_high,
    sigma_critical_high_corrected,
    sigma_tilde,
    sigma_tilde_critical,
    sigma_tilde_critical_corrected,
)
from .errors import ConfigError, DomainError, RegimeError, SizeLimitError, check_int
from .hermite import monomial_in_hermite
from .hermite_process import hermite_partial_sums, young_integral_rows
from .rng import check_key
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
    power_variation_rows,
    riemann_sum_rows,
    scaled_hermite,
    unweighted_second_moment,
    centered_power_second_moment,
    weighted_rows,
)
from .weights import ZERO, ConstantOne, Polynomial, WeightFunction, parse_weight

REPORT_SCHEMA = "fbmvar-report/1"

# read-only, so no caller can loosen a verdict in place
THRESHOLDS = MappingProxyType({
    "final_ratio": 0.25,
    "max_inversions": 1,
    "variance_rtol": 0.05,
    "slope_rtol": 0.10,
    "ks_alpha": 0.01,
})

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
        _check_order(self.order, minimum=1)  # corollary item 1 runs at q = 1
        levels = tuple(self.levels) or _EXPERIMENTS[self.experiment_id][1]
        object.__setattr__(self, "levels", levels)
        # the ceiling applies to the finest sampled level, which _collect checks
        for level in levels:
            fbm.check_level(level, None, "levels", ConfigError)
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"levels must be strictly increasing, got {levels}")
        for name, low in (("replicates", 100), ("fine_offset", 0), ("threads", 1)):
            check_int(getattr(self, name), name, low, error=ConfigError)
        check_key(self.master_seed, "master_seed")
        if parse_weight(self.weight) == ZERO:
            raise ConfigError(
                f"weight {self.weight!r} is identically zero: every statistic is 0"
            )

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
        payload = {"schema": REPORT_SCHEMA, "experiment": self.experiment_id}
        for key in ("config", "levels", "summary", "thresholds", "flags", "verdict"):
            payload[key] = getattr(self, key)
        return json_text(payload)

    def per_level_csv(self) -> str:
        # every key in order of first appearance
        keys = list(dict.fromkeys(k for entry in self.levels for k in entry))
        rows = [[_csv_cell(entry.get(k)) for k in keys] for entry in self.levels]
        return "".join(",".join(row) + "\n" for row in [keys, *rows])

    def plot_tsv(self) -> str:
        rows = [f"{e['level']}\t{e['stat']!r}\t{e['stat_se']!r}\n" for e in self.levels]
        return "".join(["n\tstat\tyerr\n", *rows])


def _csv_cell(v) -> str:
    return "" if v is None else repr(v) if isinstance(v, float) else str(v)


def _plain(obj):
    # json.dumps hook for the numpy values json cannot encode itself
    # (np.float64 subclasses float and is encoded as one)
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def json_text(payload) -> str:
    """Canonical JSON text: sorted keys, indent 2, each float its shortest repr.
    A number that is not finite has no JSON spelling and raises DomainError."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, default=_plain,
                          allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"an output value is not finite ({exc})") from None


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch to the experiment named in the config."""
    runner = _EXPERIMENTS[config.experiment_id][0]
    t0 = time.perf_counter()
    # a reduction that overflows leaves a value json_text refuses, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        report = runner(config)
    report.wall_clock_seconds = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# replicate engine


def _values_block(
    hurst: float, level: int, seed: int, start: int, count: int
) -> np.ndarray:
    """The block's increment rows at `level` (perfbench counts rows by this
    name); ``_LevelPaths`` builds the path values only when a kernel reads them."""
    return fbm.sample_increments_circulant(hurst, level, seed, start, count)


class _LevelPaths:
    """One block's paths restricted to one level, with the weight f.

    `inc` holds the level's increments: at the finest level (stride 1) the
    rows the synthesis returned, at a coarser one the differences of the
    strided path values.  The block builds its path values and each
    derivative order of f at every point of its finest grid at most once,
    on first use (`shared`), and a level reads the strided view its
    restriction sees: an elementwise function of the same doubles gives the
    same bits on any grid.  At f = 1 ``left()`` is None and weights nothing,
    so an unweighted statistic at the finest level reads the increments alone.
    """

    def __init__(self, f: WeightFunction, fine_inc: np.ndarray, shared: dict, stride: int):
        self.f = f
        self._fine_inc = fine_inc
        self._shared = shared
        self._stride = stride

    def _finest(self, key) -> np.ndarray:
        """The path values (key "values") or f^(key) on the finest grid."""
        if key not in self._shared:
            self._shared[key] = (
                fbm.values_from_increments(self._fine_inc) if key == "values"
                else self.f.derivative(key, self._finest("values"))
            )
        return self._shared[key]

    @property
    def values(self) -> np.ndarray:
        return self._finest("values")[:, :: self._stride]

    @cached_property
    def inc(self) -> np.ndarray:
        return self._fine_inc if self._stride == 1 else np.diff(self.values, axis=1)

    def __call__(self, order: int = 0) -> np.ndarray:
        """f^(order) at every point of the level's grid."""
        return self._finest(order)[:, :: self._stride]

    def left(self, order: int = 0, coarse: int = 1) -> np.ndarray | None:
        """f^(order) at the left endpoint of each increment of the level's
        grid, or of its every `coarse`-th point; None for f itself at f = 1."""
        if order == 0 and isinstance(self.f, ConstantOne):
            return None
        return self(order)[:, ::coarse][:, :-1]


def _replicate_block(
    cfg: ExperimentConfig, kernel: Callable, fine_level: int, start: int, count: int
) -> dict[str, np.ndarray]:
    """Kernel outputs for replicates start .. start+count-1, every level."""
    f = parse_weight(cfg.weight)
    offset = fine_level - max(cfg.levels)
    inc = _values_block(cfg.hurst, fine_level, cfg.master_seed, start, count)
    shared: dict = {}
    out: dict[str, np.ndarray] = {}
    # an overflow shows as an output that is not finite, which _collect reports
    with np.errstate(over="ignore", invalid="ignore"):
        for n in cfg.levels:
            m = n + offset
            paths = _LevelPaths(f, inc, shared, 2 ** (fine_level - m))
            out.update(kernel(cfg, paths, m, n))
    return out


# Normals per block.  A row at level n draws 2^(n+1) normals, which the
# synthesis turns into its increments in place, so a block of 2^18 (2 MiB)
# keeps its normals, paths and kernel arrays near a 2 MiB L2 through every
# elementwise pass while it holds two rows or more (fine level 16 or
# below).  Above that no block stays in cache, and a block takes up to 2^22
# normals (32 MiB): several rows per inverse FFT sample faster than one.
# Rows are independent, so the split does not change any replicate's values.
_BLOCK_NORMALS = 1 << 18
_LARGE_BLOCK_NORMALS = 1 << 22


def _block_rows(fine_level: int) -> int:
    """Replicates per block for paths sampled at `fine_level`."""
    rows = _BLOCK_NORMALS >> (fine_level + 1)
    if rows < 2:
        rows = max(1, _LARGE_BLOCK_NORMALS >> (fine_level + 1))
    return rows


def _collect(
    cfg: ExperimentConfig, kernel: Callable, fine: bool = False
) -> dict[str, np.ndarray]:
    """Run the kernel over all replicates, in order, and concatenate;
    DomainError names the first output that is not finite."""
    if fine:
        # at offset 0, Z is built on the variation's own grid, where the two
        # sides agree to rounding for every weight
        check_int(cfg.fine_offset, "fine_offset", 1, error=ConfigError)
    fine_level = fbm.check_level(
        max(cfg.levels) + (cfg.fine_offset if fine else 0), name="finest sampled level")
    # the outputs alone hold a double per replicate and level; a count whose
    # outputs cannot fit in memory is refused before its blocks are listed
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * cfg.replicates * len(cfg.levels) > memory:
        raise SizeLimitError(
            f"{cfg.replicates} replicates at {len(cfg.levels)} levels need more than "
            f"the {memory} bytes of physical memory"
        )
    size = _block_rows(fine_level)
    blocks = [
        (start, min(size, cfg.replicates - start))
        for start in range(0, cfg.replicates, size)
    ]
    workers = min(cfg.threads, len(blocks), os.cpu_count() or 1)
    block = partial(_replicate_block, cfg, kernel, fine_level)
    if workers == 1:
        # not a pool thread, which allocates from its own glibc arena (+7-8% peak RSS)
        parts = [block(s, c) for s, c in blocks]
    else:
        # lru_cache does not lock a miss, so build the spectrum once up front
        fbm._circulant_sqrt_eigs(cfg.hurst, fine_level)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(lambda sc: block(*sc), blocks))
    data = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    for key, values in data.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise DomainError(
                f"per-replicate output {key} is {float(values[bad[0]])!r} at replicate "
                f"{bad[0]}: the weight or the variation overflows a double"
            )
    return data


# ---------------------------------------------------------------------------
# kernels: (cfg, paths, m, n) -> named per-replicate arrays for level n, where
# paths (a _LevelPaths) holds the level's increments and, built on first use,
# its path values and f^(order) at every point of them


def _variation(cfg, paths, level, power=False) -> np.ndarray:
    """V_level^(q)(f) per row of the level's increments, or with `power` the
    centred weighted power variation (at odd q, mu_q = 0: the plain one)."""
    if power:
        return power_variation_rows(paths.inc, cfg.hurst, level, paths.left(), cfg.order)
    return weighted_rows(scaled_hermite(paths.inc, cfg.hurst, level, cfg.order), paths.left())


def _drift(paths: _LevelPaths, q: int, power=False) -> np.ndarray:
    """((-1)^q / (2^q q!)) * Riemann sum of f^(q)(B), the small-H limit; with
    `power`, c_2/8 * Riemann sum of f''(B), c_2 = 2 C(q,2) mu_{q-2}, the
    even-q drift of the centred power variation."""
    if power:
        return 0.125 * monomial_in_hermite(q).coeffs[2] * riemann_sum_rows(paths.left(2))
    const = (-1.0) ** q / (2.0**q * math.factorial(q))
    return const * riemann_sum_rows(paths.left(q))


def _pathwise_kernel(cfg, paths, m, n, item=None):
    """Squared distance of the renormalised variation to its pathwise limit
    on the same path: small_h, or corollary item 1 or 2."""
    q, hurst = cfg.order, cfg.hurst
    if item == 1:
        stat = 2.0 ** (-n * hurst) * _variation(cfg, paths, n, power=True)
        c_1 = monomial_in_hermite(q).coeffs[1]  # q mu_{q-1}
        f = paths.f
        limit = c_1 * (f.antiderivative(paths.values[:, -1]) - f.antiderivative(0.0))
    else:
        # item 2 renormalises the centred power variation, small_h V_n^(q)(f)
        power = item == 2
        norm = 2.0 ** (2 * n * hurst - n) if power else renorm_factor(hurst, q, n)
        stat = norm * _variation(cfg, paths, n, power)
        limit = _drift(paths, q, power)
    return {f"diff_sq_{n}": (stat - limit) ** 2}


def _normalised_kernel(cfg, paths, m, n, power=False, drift=False):
    """y = 2^(-n/2) V_n (Hermite, or centred power when `power`), further
    divided by sqrt(n) at a critical point H = 1 - 1/(2q) (q = 2 for the
    power variation), with the Riemann sum of f(B)^2 and, when `drift`,
    the drift part of the mixed limit at H = 1/(2q)."""
    norm = renorm_factor(cfg.hurst, 2 if power else cfg.order, n)
    raw = _variation(cfg, paths, n, power)
    # fsq: Riemann sum of f(B)^2, the conditional-variance weight (1 at f = 1)
    left = paths.left()
    fsq = np.ones(len(raw)) if left is None else riemann_sum_rows(left**2)
    out = {f"y_{n}": norm * raw, f"fsq_{n}": fsq}
    if drift:
        out[f"drift_{n}"] = _drift(paths, cfg.order, power)
    return out


def _young_kernel(cfg, paths, m, n, power=False):
    """Renormalised fine-level variation against the Young sum of f(B)
    against the Hermite process built from the same path: of order q for
    V_n^(q) (noncentral), of order 2 and scaled by 2 mu_{q-2} C(q,2) for
    the centred power variation (corollary item 6)."""
    q, hurst = cfg.order, cfg.hurst
    order = 2 if power else q
    terms = scaled_hermite(paths.inc, hurst, m, order)
    z_vals = hermite_partial_sums(terms, hurst, m, order, n)
    if power:
        stat = 2.0 ** (m - 2.0 * hurst * m) * _variation(cfg, paths, m, power=True)
        const = monomial_in_hermite(q).coeffs[2]
    else:
        # the one H_q pass of the level feeds both Z and, weighted in place
        # once Z is built, V_m^(q)(f)
        stat = renorm_factor(hurst, q, m) * weighted_rows(terms, paths.left())
        const = 1.0
    limit = const * young_integral_rows(paths.left(coarse=2 ** (m - n)), z_vals)
    return {f"diff_sq_{n}": (stat - limit) ** 2, f"v_sq_{n}": stat**2}


def _trapezoid_kernel(cfg, paths, m, n):
    f0 = float(paths.f.derivative(0, np.zeros(1))[0])
    fprime = paths(1)
    t_sum = 0.5 * np.sum((fprime[:, 1:] + fprime[:, :-1]) * paths.inc, axis=1)
    target = paths.f.derivative(0, paths.values[:, -1]) - f0
    return {f"err_{n}": np.abs(t_sum - target)}


def _audit_kernel(cfg, paths, m, n):
    return {f"vsq_{n}": _variation(cfg, paths, n) ** 2}


# ---------------------------------------------------------------------------
# shared reducers and verdicts


def _level_entries(
    cfg: ExperimentConfig, data: dict, key: str, estimator: Callable, name: str
) -> list[dict]:
    """One {level, stat, stat_se, statistic} entry per level."""
    entries = []
    for n in cfg.levels:
        stat, se = estimator(data[f"{key}_{n}"])
        entries.append({"level": n, "stat": stat, "stat_se": se, "statistic": name})
    return entries


def _unweighted(cfg: ExperimentConfig) -> bool:
    """f = 1, in any spelling of the weight grammar."""
    return isinstance(parse_weight(cfg.weight), ConstantOne)


def _degree(cfg: ExperimentConfig) -> float:
    """The degree of a polynomial weight (0 for a constant c, as in poly:2,0),
    inf for any other weight."""
    f = parse_weight(cfg.weight)
    if not isinstance(f, Polynomial):
        return math.inf
    return max((k for k, c in enumerate(f.coefficients) if c), default=0)


def _identity_ok(cfg: ExperimentConfig, data: dict, summary: dict) -> bool:
    """Where the two sides agree by construction at a constant weight c, the
    distances are rounding noise in any order, so the verdict rests on the
    largest diff^2 of any replicate and level (identity_max_sq) <= 1e-24 c^2."""
    c = parse_weight(cfg.weight).coefficients[0]
    summary["identity_max_sq"] = float(max(np.max(data[f"diff_sq_{n}"]) for n in cfg.levels))
    return summary["identity_max_sq"] <= 1e-24 * c * c


def _variance(cfg: ExperimentConfig) -> Callable:
    # an unweighted variation is exactly centred, so its mean is known
    return partial(variance_and_se, known_mean=0.0 if _unweighted(cfg) else None)


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
    cfg: ExperimentConfig, data: dict, identity: bool = False
) -> tuple[list[dict], bool, dict]:
    """Relative L2 distance sqrt(E diff^2 / E stat^2) per level, with the
    fine level it was coupled at and both mean squares; passes when it
    decreases and ends below the absolute threshold 0.15, or with `identity`
    by ``_identity_ok`` alone."""
    levels = []
    for n in cfg.levels:
        d_sq, d_se = mean_and_se(data[f"diff_sq_{n}"])
        v_sq, _ = mean_and_se(data[f"v_sq_{n}"])
        rel = math.sqrt(d_sq / v_sq) if v_sq > 0 else 0.0
        levels.append({
            "level": n,
            "fine_level": n + cfg.fine_offset,
            "stat": rel,
            "stat_se": 0.5 * rel * (d_se / d_sq) if d_sq > 0 else 0.0,
            "statistic": "relative_l2_distance",
            "mean_sq_distance": d_sq,
            "mean_sq_value": v_sq,
        })
    rels = [e["stat"] for e in levels]
    inversions = count_inversions(rels)
    ok = inversions <= THRESHOLDS["max_inversions"] and rels[-1] < 0.15
    summary = {
        "initial": rels[0],
        "final": rels[-1],
        "inversions": inversions,
        "final_threshold": 0.15,
    }
    if identity:
        ok = _identity_ok(cfg, data, summary)
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
    f2 = float(np.mean(data[f"fsq_{n_top}"]))  # exactly 1.0 at f = 1
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


def _unconverged(name: str, series: TruncatedSeries) -> list[str]:
    """A flag naming the series constant `name` when it did not converge."""
    flag = f"series {name} not converged at radius {series.radius}"
    return [] if series.converged else [flag]


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
    require_regime(cfg.hurst, cfg.order, RegimeCase.SMALL_H, "small_h")
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
    require_regime(cfg.hurst, cfg.order, RegimeCase.CLT, "clt")
    sigma = sigma_clt(cfg.hurst, cfg.order)
    sigma2 = sigma.value**2
    unweighted = _unweighted(cfg)
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
                stat=slope, stat_se=slope_se, statistic="conditional_variance_slope")
        levels.append(entry)
    top = levels[-1]
    f2 = float(np.mean(data[f"fsq_{max(cfg.levels)}"]))  # exactly 1.0 at f = 1
    summary: dict = {
        "sigma2": sigma2,
        "sigma": sigma.value,
        "truncation_radius": sigma.radius,
        "variance_rel_err": abs(top["variance"] / (sigma2 * f2) - 1.0),
    }
    flags = ["pair-convergence tested via marginal law + conditional variance only"]
    flags += _unconverged("sigma_clt", sigma)
    if unweighted:
        y_top = data[f"y_{max(cfg.levels)}"]
        ks_d, ks_p = ks_1samp_normal(y_top / sigma.value)
        summary.update(ks_stat=ks_d, ks_p=ks_p)
        ok = summary["variance_rel_err"] <= THRESHOLDS["variance_rtol"]
        ok = ok and ks_p > THRESHOLDS["ks_alpha"]
    else:
        summary["slope_rel_err"] = abs(top["stat"] / sigma2 - 1.0)
        summary["mean_f_sq"] = f2
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
    require_regime(cfg.hurst, cfg.order, RegimeCase.CRITICAL_HIGH, "critical_high")
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
    if _unweighted(cfg):
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
    (m = n + fine_offset).  At a constant weight the two sides agree
    identically, so the verdict rests on the identity check alone."""
    require_regime(cfg.hurst, cfg.order, RegimeCase.NONCENTRAL, "noncentral")
    data = _collect(cfg, _young_kernel, fine=True)
    levels, ok, summary = _relative_l2(cfg, data, identity=_degree(cfg) == 0)
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
        if q == 1 and _degree(cfg) == 0:
            # the sum of c dB is c B_1, exactly the limit
            ok = _identity_ok(cfg, data, summary)
    elif item == 6:
        # at q = 2 and f = c the power variation equals 2 mu_0 C(2,2) c Z(1) exactly
        identity = q == 2 and _degree(cfg) == 0
        levels, ok, summary = _relative_l2(cfg, data, identity)
    elif item == 4:
        st = sigma_tilde(cfg.hurst, q)
        target_base = st.value**2
        levels = _level_entries(cfg, data, "y", _variance(cfg), "variance")
        f2 = float(np.mean(data[f"fsq_{max(cfg.levels)}"]))
        target = target_base * f2  # f2 is exactly 1.0 at f = 1
        rel_err = abs(levels[-1]["stat"] / target - 1.0)
        ok = rel_err <= THRESHOLDS["variance_rtol"]
        flags += _unconverged("sigma_tilde", st)
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
        flags += _unconverged("sigma_tilde", st)
        levels, ok, summary = _drift_excess(cfg, data, st.value)
    summary["item"] = item
    return _report(cfg, levels, summary, flags, ok)


def run_trapezoid(cfg: ExperimentConfig) -> ExperimentReport:
    """Median error of the symmetric Riemann sums toward f(B_1) - f(0).

    H > 1/6 is the convergence arm (error must shrink); H <= 1/6 is the
    counterexample arm, which passes when the statistic does NOT decay
    (final >= half of initial), as for f(x) = x^3.  A polynomial of degree
    <= 2 has exact sums, judged by its weight alone and flagged: it passes
    the convergence arm and fails the counterexample arm.

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
    flags = []
    # f' is linear, so sum (f'(B_k) + f'(B_(k-1))) dB_k / 2 = f(B_1) - f(0)
    # on every path: the error is rounding noise, converged and no counterexample
    exact = _degree(cfg) <= 2
    if exact:
        flags.append("symmetric sums are exact for a polynomial weight of degree <= 2")
    if arm == "convergence":
        ok = exact or (monotone and summary["final_over_initial"] < THRESHOLDS["final_ratio"])
    else:
        ok = not exact and summary["final_over_initial"] >= 0.5
    return _report(cfg, levels, summary, flags, ok)


def run_conjecture_quarter(cfg: ExperimentConfig) -> ExperimentReport:
    """Exploratory check of the conjectured mixed limit at H = 1/(2q):
    mean of 2^(-n/2) V_n -> ((-1)^q/(2^q q!)) E int f^(q)(B) ds and the
    variance in excess of the drift part -> sigma_{1/(2q),q}^2 E int f^2.
    Proven only for q = 2 (H = 1/4); flagged UNPROVEN for q >= 3."""
    q = cfg.order
    require_regime(cfg.hurst, cfg.order, RegimeCase.CRITICAL_LOW, "conjecture_quarter")
    flags = ["EXPLORATORY"]
    if q >= 3:
        flags.append("UNPROVEN")
    sigma = sigma_clt(cfg.hurst, q)
    flags += _unconverged("sigma_clt", sigma)
    data = _collect(cfg, partial(_normalised_kernel, drift=True))
    levels, ok, summary = _drift_excess(cfg, data, sigma.value)
    summary["sigma2"] = sigma.value**2
    return _report(cfg, levels, summary, flags, ok)


# each experiment id with its runner and its default levels
_EXPERIMENTS = {
    "small_h": (run_small_h, (6, 7, 8, 9, 10, 11, 12)),
    "clt": (run_clt, (10, 12, 14)),
    "critical_high": (run_critical_high, (12, 14, 16)),
    "noncentral": (run_noncentral, (6, 7, 8, 9, 10)),
    "corollary": (run_corollary, (8, 10, 12)),
    "trapezoid": (run_trapezoid, (6, 8, 10, 12, 14)),
    "conjecture_quarter": (run_conjecture_quarter, (10, 12, 14)),
}
EXPERIMENT_IDS = tuple(_EXPERIMENTS)


# ---------------------------------------------------------------------------
# Proposition p1 variance-order audit (used by the acceptance suite)


def variance_order_audit(
    hurst: float,
    q: int,
    weight: str,
    levels: tuple[int, ...],
    replicates: int,
    master_seed: int,
) -> dict:
    """Slope diagnostics of log2 E[V_n^(q)(f)^2] against n.

    Returns the least-squares slope plus the 'excess slope': the slope of
    log2 E[V_n^2] - n regressed on log2(n), which is ~1 when the variance
    carries the critical n 2^n factor and ~0 when it is a clean power."""
    # ExperimentConfig validates the inputs and carries them to the engine,
    # which reads only the sampling fields; the audit has no regime, so the
    # experiment id is a placeholder that nothing reads
    cfg = ExperimentConfig("clt", hurst, q, weight, levels, replicates, master_seed)
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
