import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

from fbmvar import experiments, fbm, hermite_process, variations
from fbmvar.constants import (
    RegimeCase,
    classify_regime,
    hermite_process_variance_const,
    renorm_factor,
)
from fbmvar.errors import ConfigError, DomainError, RegimeError, SizeLimitError
from fbmvar.experiments import (
    ExperimentConfig,
    run_clt,
    run_conjecture_quarter,
    run_corollary,
    run_critical_high,
    run_experiment,
    run_noncentral,
    run_small_h,
    run_trapezoid,
    variance_order_audit,
)
from fbmvar.hermite import hermite_eval
from fbmvar.hermite_process import simulate_hermite, young_integral_rows
from fbmvar.stats import through_origin_slope
from fbmvar.variations import hermite_variation_rows, scaled_hermite, weighted_rows
from fbmvar.weights import ConstantOne, parse_weight


def small_cfg(**kw):
    base = dict(
        experiment_id="clt",
        hurst=0.5,
        order=3,
        weight="one",
        levels=(8, 10),
        replicates=400,
        master_seed=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self, monkeypatch):
        with pytest.raises(ConfigError):
            small_cfg(replicates=50)
        with pytest.raises(ConfigError):
            small_cfg(levels=(10, 8))
        with pytest.raises(ConfigError):
            small_cfg(experiment_id="bogus")
        with pytest.raises(ConfigError):
            small_cfg(experiment_id="noncentral", hurst=0.9, order=2, levels=(0, 1))
        for threads in (0, -3):  # rejected before any worker starts
            with pytest.raises(ConfigError):
                small_cfg(threads=threads)
        with pytest.raises(ConfigError):
            small_cfg(fine_offset=-2)
        # the config's own integer fields: an int, never a float or a bool
        for levels in ((8.5, 10), (True, 4)):
            with pytest.raises(ConfigError, match=r"^levels must be an integer >= 1, got "):
                small_cfg(levels=levels)
        for name, value, low in (("replicates", 150.5, 100), ("fine_offset", 2.5, 0),
                                 ("threads", 1.5, 1)):
            with pytest.raises(ConfigError,
                               match=rf"^{name} must be an integer >= {low}, got {value}$"):
                small_cfg(**{name: value})
        # every runner takes an integer order in [1, 150]; trapezoid reads no q
        for order in (-5, 0, 151, 2.5, True):
            with pytest.raises(DomainError, match=r"order q must be an integer in \[1, 150\]"):
                ExperimentConfig("trapezoid", 0.3, order)
        for seed in (-1, 2**64, True):  # a Philox key word, never reduced mod 2**64
            with pytest.raises(DomainError, match="master_seed"):
                small_cfg(master_seed=seed)
        assert small_cfg(master_seed=2**64 - 1).master_seed == 2**64 - 1

        # a finest sampled level above the circulant ceiling (19 + 6 = 25)
        # fails before any block is drawn
        def no_sampling(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(experiments, "_values_block", no_sampling)
        with pytest.raises(SizeLimitError):
            run_noncentral(small_cfg(experiment_id="noncentral", hurst=0.9, order=2,
                                     levels=(6, 19), fine_offset=6))
        with pytest.raises(SizeLimitError):
            run_clt(small_cfg(levels=(8, 25)))

    def test_default_levels(self):
        cfg = ExperimentConfig("trapezoid", hurst=0.5, order=2, replicates=100)
        assert cfg.levels == (6, 8, 10, 12, 14)

    def test_threads_not_in_canonical_config(self):
        assert "threads" not in small_cfg(threads=4).canonical_dict()

    def test_config_carries_only_what_a_run_varies(self):
        assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
            "experiment_id", "hurst", "order", "weight", "levels", "replicates",
            "master_seed", "fine_offset", "threads",
        ]
        rep = run_experiment(small_cfg())
        assert rep.thresholds == dict(experiments.THRESHOLDS)
        with pytest.raises(TypeError):  # the policy cannot be loosened in place
            experiments.THRESHOLDS["slope_rtol"] = 0.5


class TestRegimeContracts:
    def test_small_h_mismatch(self):
        with pytest.raises(RegimeError):
            run_small_h(small_cfg(experiment_id="small_h", hurst=0.3, order=2))

    def test_clt_mismatch_at_critical(self):
        with pytest.raises(RegimeError):
            run_clt(small_cfg(hurst=0.75, order=2))

    def test_critical_high_mismatch(self):
        with pytest.raises(RegimeError):
            run_critical_high(small_cfg(experiment_id="critical_high", hurst=0.74, order=2))

    def test_noncentral_mismatch(self):
        with pytest.raises(RegimeError):
            run_noncentral(small_cfg(experiment_id="noncentral", hurst=0.75, order=2))

    def test_conjecture_mismatch(self):
        with pytest.raises(RegimeError):
            run_conjecture_quarter(
                small_cfg(experiment_id="conjecture_quarter", hurst=0.3, order=2)
            )

    def test_corollary_parity(self):
        with pytest.raises(RegimeError):
            run_corollary(small_cfg(experiment_id="corollary", hurst=0.4, order=3))


class _GuardPassed(Exception):
    pass


def _stop(*args, **kwargs):
    raise _GuardPassed


_GUARDS = {
    "small_h": (run_small_h, RegimeCase.SMALL_H),
    "clt": (run_clt, RegimeCase.CLT),
    "critical_high": (run_critical_high, RegimeCase.CRITICAL_HIGH),
    "noncentral": (run_noncentral, RegimeCase.NONCENTRAL),
    "conjecture_quarter": (run_conjecture_quarter, RegimeCase.CRITICAL_LOW),
}


@pytest.mark.parametrize("q", range(2, 13))
def test_guards_match_classify_regime_at_boundaries(monkeypatch, q):
    # each guard raises exactly when classify_regime puts (H, q) elsewhere,
    # at both critical points as doubles and at the doubles either side
    monkeypatch.setattr(experiments, "_collect", _stop)
    monkeypatch.setattr(experiments, "sigma_clt", _stop)
    for edge in (1.0 / (2 * q), 1.0 - 1.0 / (2 * q)):
        for hurst in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
            case = classify_regime(hurst, q).case_id
            for experiment_id, (runner, wants) in _GUARDS.items():
                cfg = small_cfg(experiment_id=experiment_id, hurst=hurst, order=q)
                with pytest.raises(_GuardPassed if case is wants else RegimeError):
                    runner(cfg)
            path = fbm.sample_fbm_circulant(hurst, 2, seed=0)
            if case is RegimeCase.NONCENTRAL:
                simulate_hermite(path, q, 1)
                # finite also where 2Hq - 2q + 1 in doubles rounds to 0
                assert 0.0 < hermite_process_variance_const(q, hurst) < math.inf
            else:
                with pytest.raises(RegimeError):
                    simulate_hermite(path, q, 1)
                with pytest.raises(DomainError):
                    hermite_process_variance_const(q, hurst)


class TestDeterminism:
    def test_reports_byte_identical(self):
        cfg = small_cfg()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.to_json() == b.to_json()

    def test_thread_count_does_not_change_report(self):
        serial = run_experiment(small_cfg())
        parallel = run_experiment(small_cfg(threads=2))
        assert serial.to_json() == parallel.to_json()

    def test_wall_clock_excluded_from_json(self):
        rep = run_experiment(small_cfg())
        assert rep.wall_clock_seconds is not None
        assert "wall_clock" not in rep.to_json()
        payload = json.loads(rep.to_json())
        assert payload["schema"] == "fbmvar-report/1"

    def test_numpy_integers_give_the_same_report(self):
        # integer_in accepts numpy integers, which the JSON writer turns into
        # Python ints through its default hook
        plain = run_experiment(ExperimentConfig(
            "clt", hurst=0.6, order=2, levels=(8,), replicates=100, master_seed=3))
        numpy = run_experiment(ExperimentConfig(
            "clt", hurst=0.6, order=np.int64(2), levels=tuple(np.array([8])),
            replicates=np.int64(100), master_seed=np.uint64(3)))
        assert isinstance(numpy.config["master_seed"], np.uint64)
        assert numpy.to_json() == plain.to_json()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf")])
    def test_json_text_refuses_a_number_json_cannot_spell(self, value):
        with pytest.raises(DomainError, match="^an output value is not finite"):
            experiments.json_text({"levels": [{"stat": 1.0, "stat_se": value}]})


class TestEngine:
    def nc_cfg(self, **kw):
        base = dict(hurst=0.9, order=2, weight="cos:1.0", levels=(5, 6, 7),
                    replicates=300, master_seed=4, fine_offset=6)
        base.update(kw)
        return ExperimentConfig("noncentral", **base)

    def test_fine_run_draws_one_block_per_replicate_block(self, monkeypatch):
        drawn = []
        values_block = experiments._values_block

        def counting(hurst, level, seed, start, count):
            drawn.append((level, start, count))
            return values_block(hurst, level, seed, start, count)

        monkeypatch.setattr(experiments, "_values_block", counting)
        run_noncentral(self.nc_cfg())
        # finest level 7 + 6 = 13 draws 2^14 normals per replicate
        size = experiments._block_rows(13)
        assert 1 <= size < 300
        assert drawn == [(13, s, min(size, 300 - s)) for s in range(0, 300, size)]

    def test_fine_offset_zero_refused_before_any_block(self, monkeypatch):
        # at offset 0, Z is built on the variation's own grid, where the two
        # sides agree to rounding for every weight; other runners ignore it
        def refuse(*args, **kwargs):
            raise AssertionError("a block was drawn")

        values_block = experiments._values_block
        monkeypatch.setattr(experiments, "_values_block", refuse)
        for exp_id in ("noncentral", "corollary"):  # corollary item 6 at H = 0.9
            cfg = ExperimentConfig(exp_id, hurst=0.9, order=2, weight="cos:1.0",
                                   levels=(4, 5, 6, 7), replicates=100, fine_offset=0)
            with pytest.raises(ConfigError, match=r"^fine_offset must be an integer >= 1, got 0$"):
                run_experiment(cfg)
        monkeypatch.setattr(experiments, "_values_block", values_block)
        rep = run_experiment(ExperimentConfig("clt", hurst=0.6, order=2, levels=(6,),
                                              replicates=100, fine_offset=0))
        assert rep.config["fine_offset"] == 0

    def test_block_budget_does_not_change_reports(self, monkeypatch):
        # rows are independent, so every report is byte-identical whether a
        # block holds 2^22 normals, the default budget or a single replicate
        def cfg(experiment_id, hurst, order, weight, levels, **kw):
            return ExperimentConfig(experiment_id, hurst=hurst, order=order,
                                    weight=weight, levels=levels, replicates=300,
                                    master_seed=31, **kw)

        configs = [
            cfg("small_h", 0.1, 3, "cos:1.0", (8, 10, 11)),
            cfg("clt", 0.6, 2, "cos:1.0", (9, 11)),
            cfg("critical_high", 0.75, 2, "exp:0.5", (10, 11)),
            cfg("noncentral", 0.9, 2, "cos:1.0", (5, 6, 7), fine_offset=4),
            cfg("corollary", 0.2, 2, "cos:1.0", (8, 10)),  # item 2
            cfg("corollary", 0.5, 4, "sin:1.0", (9, 10)),  # item 4
            cfg("corollary", 0.9, 2, "exp:0.5", (5, 6), fine_offset=5),  # item 6
            cfg("trapezoid", 0.3, 2, "poly:0,0,0,1", (6, 8, 10)),
            cfg("conjecture_quarter", 0.25, 2, "cos:1.0", (9, 10)),
        ]
        drawn = []
        values_block = experiments._values_block

        def counting(*args):
            drawn.append(args)
            return values_block(*args)

        def run_all():
            reports, blocks = [], []
            for c in configs:
                before = len(drawn)
                reports.append(run_experiment(c).to_json())
                blocks.append(len(drawn) - before)
            return reports, blocks

        monkeypatch.setattr(experiments, "_values_block", counting)
        default, blocks = run_all()
        assert min(blocks) >= 2  # the default budget already splits every run
        for budget, per_run in ((1 << 22, 1), (1, 300)):
            monkeypatch.setattr(experiments, "_BLOCK_NORMALS", budget)
            monkeypatch.setattr(experiments, "_LARGE_BLOCK_NORMALS", budget)
            assert run_all() == (default, [per_run] * len(configs))

    def test_huge_replicate_count_refused_before_any_block(self, monkeypatch):
        # 10^20 replicates would take 8 * 10^20 bytes of outputs alone
        def no_block(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(experiments, "_replicate_block", no_block)
        cfg = small_cfg(levels=(10,), replicates=10**20)
        with pytest.raises(SizeLimitError, match="physical memory"):
            experiments._collect(cfg, experiments._normalised_kernel)

    def test_block_rows_by_fine_level(self):
        # 2^18 normals while a block holds two rows or more; from fine level
        # 17 on up to 2^22 normals, so the inverse FFT still batches rows
        rows = [experiments._block_rows(n) for n in range(10, 23)]
        assert rows == [128, 64, 32, 16, 8, 4, 2, 16, 8, 4, 2, 1, 1]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a serial stand-in records the pool size, so no large pool starts;
        # a run left with one worker builds no pool at all
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", SerialPool)
        serial = run_noncentral(self.nc_cfg()).to_json()
        assert sizes == []
        blocks = -(-300 // experiments._block_rows(13))
        for cpus, workers in ((2, [2]), (None, []), (1000, [blocks])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert run_noncentral(self.nc_cfg(threads=64)).to_json() == serial
            assert sizes == workers
            sizes.clear()

    def test_threads_run_any_callable_kernel(self):
        # a local lambda is no module-level function; worker threads take it
        cfg = self.nc_cfg(threads=2)
        assert -(-cfg.replicates // experiments._block_rows(13)) > 1

        def collect(threads):
            c = dataclasses.replace(cfg, threads=threads)
            return experiments._collect(c, lambda cfg, p, m, n: {f"x_{n}": p.values[:, -1]},
                                        fine=True)

        serial, threaded = collect(1), collect(2)
        assert serial.keys() == threaded.keys() == {"x_5", "x_6", "x_7"}
        for key in serial:
            assert np.array_equal(serial[key], threaded[key])

    def test_threads_build_the_spectrum_once(self, monkeypatch):
        # more threads than cores, switching often: a cold spectrum cache is
        # filled once, before the fan-out, and every block reads that entry
        serial = run_noncentral(self.nc_cfg()).to_json()
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        fbm._circulant_sqrt_eigs.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_noncentral(self.nc_cfg(threads=8)).to_json() == serial
        finally:
            sys.setswitchinterval(interval)
        info = fbm._circulant_sqrt_eigs.cache_info()
        assert (info.misses, info.hits) == (1, -(-300 // experiments._block_rows(13)))

    def test_fine_levels_are_restrictions_of_the_finest_path(self):
        cfg = self.nc_cfg(replicates=100, fine_offset=3)
        seen = {}

        def recording(cfg, paths, m, n):
            seen[n] = (m, paths.values.copy(), paths.inc.copy())
            return {f"x_{n}": paths.values[:, -1]}

        experiments._collect(cfg, recording, fine=True)
        for i in (0, 57, 99):
            finest = fbm.sample_fbm_circulant(cfg.hurst, 10, cfg.master_seed, i)
            drawn = fbm.sample_increments_circulant(cfg.hurst, 10, cfg.master_seed, i, 1)
            for n, (m, v, inc) in seen.items():
                assert m == n + 3
                assert np.array_equal(v[i], fbm.coarsen(finest, m).values)
                # the finest level reads the drawn increments, a coarser one
                # the differences of its path values
                want = drawn[0] if m == 10 else np.diff(v[i])
                assert np.array_equal(inc[i], want)

    def test_thread_count_does_not_change_noncentral_report(self):
        serial = run_noncentral(self.nc_cfg())
        parallel = run_noncentral(self.nc_cfg(threads=2))
        assert serial.to_json() == parallel.to_json()


class TestIncrementKernels:
    """Unweighted statistics read the drawn increments: no path values and
    no weight arrays at the finest level."""

    UNWEIGHTED = (("clt", 0.6, 14), ("critical_high", 0.75, 16))

    @pytest.mark.parametrize("exp_id, hurst, level", UNWEIGHTED)
    def test_unweighted_block_builds_no_values_and_no_weight(
        self, monkeypatch, exp_id, hurst, level
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an unweighted block built path values or a weight")

        monkeypatch.setattr(fbm, "values_from_increments", refuse)
        monkeypatch.setattr(ConstantOne, "derivative", refuse)
        cfg = ExperimentConfig(exp_id, hurst=hurst, order=2, levels=(level,),
                               replicates=100, master_seed=7)
        data = experiments._collect(cfg, experiments._normalised_kernel)
        # the Riemann sum of f^2 at f = 1 is the double 1.0, as a sum of ones gives
        assert data[f"fsq_{level}"].tobytes() == np.ones(100).tobytes()

    @pytest.mark.parametrize("exp_id, hurst, level", UNWEIGHTED)
    def test_unweighted_statistic_matches_the_path_value_rows(self, exp_id, hurst, level):
        cfg = ExperimentConfig(exp_id, hurst=hurst, order=2, levels=(level,),
                               replicates=100, master_seed=7)
        y = experiments._collect(cfg, experiments._normalised_kernel)[f"y_{level}"]
        vals = fbm.values_from_increments(
            fbm.sample_increments_circulant(hurst, level, 7, 0, 100))
        ref = renorm_factor(hurst, 2, level) * hermite_variation_rows(
            vals, hurst, level, ConstantOne(), 2)
        # the sum over the drawn increments against the sum over the
        # differences of their running sum: rounding only, on the scale of
        # the statistic (a row near 0 has no meaningful relative error)
        assert not np.array_equal(y, ref)
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("exp_id, hurst", [("clt", 0.6), ("critical_high", 0.75)])
    def test_every_spelling_of_one_gives_the_same_report(self, exp_id, hurst):
        reports = set()
        for weight in ("one", "cos:0", "poly:1"):
            for threads in (1, 2):
                rep = run_experiment(ExperimentConfig(
                    exp_id, hurst=hurst, order=2, weight=weight, levels=(8, 10),
                    replicates=300, master_seed=3, threads=threads))
                text = rep.to_json().replace(f'"weight": "{weight}"', '"weight": "one"')
                reports.add((text, rep.per_level_csv(), rep.plot_tsv()))
        assert len(reports) == 1


class TestUnconvergedSeries:
    """A series constant that did not converge is named in the flags."""

    def unconverged(self, series):
        def patched(*args, **kwargs):
            return dataclasses.replace(series(*args, **kwargs), converged=False)
        return patched

    @pytest.mark.parametrize("name, cfg", [
        ("sigma_clt", ExperimentConfig("clt", hurst=0.6, order=2, levels=(6, 8),
                                       replicates=100, master_seed=1)),
        ("sigma_clt", ExperimentConfig("conjecture_quarter", hurst=0.25, order=2,
                                       weight="cos:1.0", levels=(6, 8), replicates=100,
                                       master_seed=1)),
        ("sigma_tilde", ExperimentConfig("corollary", hurst=0.25, order=2, weight="cos:1.0",
                                         levels=(6, 8), replicates=100, master_seed=1)),
        ("sigma_tilde", ExperimentConfig("corollary", hurst=0.6, order=2, levels=(6, 8),
                                         replicates=100, master_seed=1)),
    ])
    def test_flag_names_the_series_and_its_radius(self, monkeypatch, name, cfg):
        clean = run_experiment(cfg)
        radius = getattr(experiments, name)(cfg.hurst, cfg.order).radius
        flag = f"series {name} not converged at radius {radius}"
        assert flag not in clean.flags
        monkeypatch.setattr(experiments, name, self.unconverged(getattr(experiments, name)))
        flagged = run_experiment(cfg)
        assert flagged.flags == clean.flags + [flag]
        assert dataclasses.replace(flagged, flags=clean.flags) == clean


class TestCltExperiment:
    def test_brownian_unweighted(self):
        # H = 1/2, f == 1: Var(2^(-n/2) V_n) = 1/q! exactly at every level
        rep = run_clt(small_cfg(replicates=3000))
        assert rep.verdict == "PASS"
        assert rep.summary["sigma2"] == pytest.approx(1 / 6, rel=1e-12)
        assert rep.summary["variance_rel_err"] < 0.05
        assert rep.summary["ks_p"] > 0.01
        assert all("variance_se" in e for e in rep.levels)

    def test_weighted_slope(self):
        rep = run_clt(
            small_cfg(hurst=0.6, order=2, weight="cos:1.0", levels=(11,),
                      replicates=3000, master_seed=3)
        )
        assert rep.verdict == "PASS"
        assert rep.levels[-1]["statistic"] == "conditional_variance_slope"


class TestSmallH:
    def test_decreasing_distance(self):
        rep = run_small_h(
            ExperimentConfig(
                "small_h", hurst=0.1, order=3, weight="cos:1.0",
                levels=(5, 6, 7, 8, 9, 10), replicates=800, master_seed=6,
            )
        )
        # (0.1, 3): squared distance decays like 2^(-0.4 n): 5 doublings = 4x
        assert rep.verdict == "PASS"
        stats = [e["stat"] for e in rep.levels]
        assert stats[-1] < stats[0]

    def test_variation_tracks_its_limit_per_replicate(self):
        # criterion 6's decay exponent is set by the chaos-2q floor and
        # cannot see the limit itself; regressing the renormalised variation
        # on its limit, replicate by replicate, can (slope 1 when they match)
        def pair(cfg, paths, m, n):
            q, hurst = cfg.order, cfg.hurst
            variation = hermite_variation_rows(paths.values, hurst, n, paths(), q)
            stat = renorm_factor(hurst, q, n) * variation
            return {"stat": stat, "limit": experiments._drift(paths, q)}

        cfg = ExperimentConfig("small_h", hurst=0.2, order=2, weight="cos:1.0",
                               levels=(12,), replicates=2000, master_seed=2024)
        data = experiments._collect(cfg, pair)
        slope, _ = through_origin_slope(data["limit"], data["stat"])
        assert abs(slope - 1.0) <= 0.25


class TestTrapezoid:
    def test_brownian_square(self):
        # H = 1/2, f = x^2: classical midpoint identity, fast convergence
        rep = run_trapezoid(
            ExperimentConfig(
                "trapezoid", hurst=0.5, order=2, weight="poly:0,0,1",
                levels=(6, 8, 10, 12), replicates=400, master_seed=8,
            )
        )
        assert rep.verdict == "PASS"
        assert rep.summary["arm"] == "convergence"

    def test_counterexample_arm_detected(self):
        rep = run_trapezoid(
            ExperimentConfig(
                "trapezoid", hurst=1 / 6, order=2, weight="poly:0,0,0,1",
                levels=(6, 8, 10), replicates=400, master_seed=9,
            )
        )
        assert rep.summary["arm"] == "counterexample"
        assert rep.verdict == "PASS"


    @pytest.mark.parametrize("weight", ["poly:0,0,1e6", "poly:3,-2,1e4", "poly:0,1e8",
                                        "poly:0,0,1"])
    def test_convergence_arm_passes_exact_sums(self, weight):
        # the errors are rounding noise that grows with n (up to 6e-8 at
        # poly:0,1e8), so the sequence need not decrease: the weight decides
        for seed in range(3):
            rep = run_trapezoid(
                ExperimentConfig(
                    "trapezoid", hurst=0.5, order=2, weight=weight,
                    levels=(6, 8, 10), replicates=200, master_seed=seed,
                )
            )
            assert rep.summary["arm"] == "convergence"
            assert rep.summary["inversions"] >= 1
            assert rep.flags == ["symmetric sums are exact for a polynomial weight of degree <= 2"]
            assert rep.verdict == "PASS"

    @pytest.mark.parametrize("weight", ["poly:0,0,1", "poly:0,1", "poly:1,2,3"])
    def test_counterexample_arm_fails_on_exact_sums(self, weight):
        # f' is linear, so sum (f'(B_k) + f'(B_(k-1))) dB_k / 2 = f(B_1) - f(0)
        # on every path: the errors are rounding noise, which grows with n
        rep = run_trapezoid(
            ExperimentConfig(
                "trapezoid", hurst=0.1, order=2, weight=weight,
                levels=(6, 8, 10), replicates=200, master_seed=0,
            )
        )
        assert rep.summary["arm"] == "counterexample"
        assert rep.summary["final"] < 1e-12
        assert rep.flags == ["symmetric sums are exact for a polynomial weight of degree <= 2"]
        assert rep.verdict == "FAIL"


class TestConstantWeights:
    """At a constant weight c the two sides of noncentral (any q), of
    corollary item 6 at q = 2 and of item 1 at q = 1 agree by construction,
    so only the identity check decides, with the bound 1e-24 c^2."""

    @staticmethod
    def cfg(exp_id, order, weight, seed=0):
        return ExperimentConfig(exp_id, hurst=0.9, order=order, weight=weight,
                                levels=(4, 5, 6, 7), replicates=100, master_seed=seed,
                                fine_offset=2)

    @pytest.mark.parametrize("exp_id, order, weight, item", [
        ("noncentral", 2, "poly:2", None),
        ("noncentral", 2, "poly:2,0", None),
        ("noncentral", 3, "poly:-0.5", None),
        ("noncentral", 2, "poly:1000", None),
        ("corollary", 2, "poly:3", 6),
        ("corollary", 1, "one", 1),
        ("corollary", 1, "poly:2,0", 1),
    ])
    def test_constant_weight_passes_by_identity(self, exp_id, order, weight, item):
        rep = run_experiment(self.cfg(exp_id, order, weight))
        c = parse_weight(weight).coefficients[0]
        assert rep.summary.get("item") == item
        assert rep.summary["identity_max_sq"] <= 1e-24 * c * c
        assert rep.verdict == "PASS"

    def test_identity_bound_scales_with_c_squared(self):
        # rounding noise scales with the weight: an absolute 1e-24 would fail it
        rep = run_noncentral(self.cfg("noncentral", 2, "poly:1000", seed=1))
        assert 1e-24 < rep.summary["identity_max_sq"] <= 1e-18
        assert rep.verdict == "PASS"

    def test_other_weights_keep_their_rules(self):
        for cfg in (self.cfg("corollary", 1, "poly:0,1"), self.cfg("corollary", 3, "one"),
                    self.cfg("noncentral", 2, "cos:1.0")):
            assert "identity_max_sq" not in run_experiment(cfg).summary


class TestNoncentral:
    def test_identity_weight(self):
        rep = run_noncentral(
            ExperimentConfig(
                "noncentral", hurst=0.9, order=2, weight="one",
                levels=(6, 7), replicates=150, master_seed=10,
            )
        )
        assert rep.verdict == "PASS"
        assert rep.summary["identity_max_sq"] <= 1e-24

    @pytest.mark.parametrize("weight", ["one", "poly:1", "poly:1,0", "cos:0", "exp:0"])
    def test_identity_weight_ignores_rounding_noise_order(self, weight):
        # relative L2 values near 1e-15 come in random order; two
        # inversions among them must not fail an exact identity, whichever
        # way f = 1 is spelt
        rep = run_noncentral(
            ExperimentConfig(
                "noncentral", hurst=0.8, order=2, weight=weight,
                levels=(5, 6, 7), replicates=200, master_seed=49,
            )
        )
        assert rep.summary["inversions"] == 2
        assert rep.summary["final"] < 1e-13
        assert rep.summary["identity_max_sq"] <= 1e-24
        assert rep.verdict == "PASS"

    def test_coupled_distance_decreases(self):
        rep = run_noncentral(
            ExperimentConfig(
                "noncentral", hurst=0.9, order=2, weight="cos:1.0",
                levels=(5, 6, 7, 8), replicates=300, master_seed=11,
            )
        )
        assert rep.verdict == "PASS"
        rels = [e["stat"] for e in rep.levels]
        assert rels[-1] < 0.15

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("weight", ["one", "cos:1.0", "exp:0.5", "poly:0.5,-1,0.25"])
    def test_young_kernel_equals_two_hq_passes(self, q, weight):
        # the kernel evaluates H_q once per level; its bits are those of the
        # variation rows and of partial sums that evaluate H_q a second time
        hurst = 0.9
        cfg = ExperimentConfig("noncentral", hurst=hurst, order=q, weight=weight)
        f = parse_weight(weight)
        for m, n in ((7, 4), (9, 9), (10, 1)):
            inc = experiments._values_block(hurst, m, 12, 0, 3)
            paths = experiments._LevelPaths(f, inc, {}, 1)
            got = experiments._young_kernel(cfg, paths, m, n)
            v = fbm.values_from_increments(inc)
            left = None if weight == "one" else f(v)[:, :-1]
            terms = scaled_hermite(inc, hurst, m, q)
            stat = renorm_factor(hurst, q, m) * weighted_rows(terms, left)
            hq = hermite_eval(q, 2.0 ** (m * hurst) * inc)
            stride = 2 ** (m - n)
            # Z by output interval: one sum per interval, then a running sum
            sums = np.sum(hq.reshape(3, 2**n, stride), axis=2)
            z = np.zeros((3, 2**n + 1))
            z[:, 1:] = np.cumsum(sums, axis=1) * 2.0 ** (m * (q * (1.0 - hurst) - 1.0))
            z_left = None if weight == "one" else f(v[:, ::stride])[:, :-1]
            limit = young_integral_rows(z_left, z)
            assert got[f"diff_sq_{n}"].tobytes() == ((stat - limit) ** 2).tobytes()
            assert got[f"v_sq_{n}"].tobytes() == (stat**2).tobytes()

    def test_one_hq_pass_per_level_per_block(self, monkeypatch):
        calls = []

        def counting(q, x):
            calls.append(q)
            return hermite_eval(q, x)

        for module in (variations, hermite_process):
            monkeypatch.setattr(module, "hermite_eval", counting, raising=False)
        cfg = ExperimentConfig("noncentral", hurst=0.9, order=2, weight="cos:1.0",
                               levels=(5, 6, 7), replicates=300, master_seed=4,
                               fine_offset=6)
        run_noncentral(cfg)
        blocks = -(-300 // experiments._block_rows(13))
        assert len(calls) == 3 * blocks


class TestCorollary:
    def test_item_detection(self):
        cfg = small_cfg(experiment_id="corollary", hurst=0.9, order=2)
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.9, order=2, weight="one",
                levels=(5, 6), replicates=150, master_seed=12, fine_offset=5,
            )
        )
        assert rep.summary["item"] == 6

    def test_item6_relative_l2_verdict(self):
        # the verdict is "decreasing and final relative L2 below an absolute
        # 0.15"; item 6 reports the same seven per-level keys as noncentral
        passing = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.9, order=2, weight="cos:1.0",
                levels=(5, 6, 7), replicates=150, master_seed=12, fine_offset=3,
            )
        )
        failing = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.85, order=4, weight="cos:1.0",
                levels=(5, 6), replicates=150, master_seed=26, fine_offset=4,
            )
        )
        for rep, verdict in ((passing, "PASS"), (failing, "FAIL")):
            assert rep.summary["item"] == 6
            assert rep.summary["final_threshold"] == 0.15
            assert rep.verdict == verdict
            ok = rep.summary["inversions"] <= 1 and rep.summary["final"] < 0.15
            assert ok == (verdict == "PASS")
            for e in rep.levels:
                assert list(e) == ["level", "fine_level", "stat", "stat_se", "statistic",
                                   "mean_sq_distance", "mean_sq_value"]
                assert e["fine_level"] == e["level"] + rep.config["fine_offset"]
                assert e["statistic"] == "relative_l2_distance"
        assert failing.summary["inversions"] == 0  # failed on the threshold alone

    def test_item6_identity_ignores_rounding_noise_order(self):
        # at q = 2, f = 1 the centred power variation equals twice the
        # Young sum exactly; relative L2 values near 1e-15 come in random
        # order, and two inversions among them must not fail the identity
        cfg = ExperimentConfig("corollary", hurst=0.8, order=2, weight="one",
                               levels=(5, 6, 7, 8))
        rels = {5: 1.0e-15, 6: 2.0e-15, 7: 0.5e-15, 8: 1.5e-15}
        data = {}
        for n, rel in rels.items():
            data[f"diff_sq_{n}"] = np.full(4, rel**2)
            data[f"v_sq_{n}"] = np.ones(4)
        levels, ok, summary = experiments._relative_l2(cfg, data, identity=True)
        assert [e["stat"] for e in levels] == pytest.approx(list(rels.values()), rel=1e-12)
        assert summary["inversions"] == 2
        assert ok
        # the relative L2 rule alone would fail the same sequence
        assert not experiments._relative_l2(cfg, data)[1]
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.8, order=2, weight="one",
                levels=(5, 6, 7), replicates=200, master_seed=12, fine_offset=5,
            )
        )
        assert rep.summary["item"] == 6
        assert rep.summary["final"] < 1e-13
        assert rep.summary["identity_max_sq"] <= 1e-24
        assert rep.verdict == "PASS"
        # at q = 4 it is no identity, so the relative L2 rule still decides
        q4 = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.85, order=4, weight="one",
                levels=(5, 6), replicates=150, master_seed=26, fine_offset=4,
            )
        )
        assert "identity_max_sq" not in q4.summary
        assert q4.summary["final"] > 0.1

    def test_item2_small_h_power(self):
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.2, order=2, weight="cos:1.0",
                levels=(6, 8, 10), replicates=300, master_seed=22,
            )
        )
        assert rep.summary["item"] == 2
        assert rep.verdict == "PASS"
        assert [e["level"] for e in rep.levels] == [6, 8, 10]
        assert all(e["statistic"] == "mean_sq_distance" for e in rep.levels)
        assert rep.levels[-1]["stat"] < rep.levels[0]["stat"]
        assert rep.summary["final"] == rep.levels[-1]["stat"]

    def test_item3_quarter_drift_and_excess(self):
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.25, order=2, weight="cos:1.0",
                levels=(8, 10), replicates=400, master_seed=23,
            )
        )
        assert rep.summary["item"] == 3
        assert rep.flags == ["EXPLORATORY"]
        assert {
            "mean", "mean_se", "drift_target", "drift_target_se", "excess_variance",
            "target_excess_variance", "variance_tolerance", "mean_ok", "variance_ok",
        } <= set(rep.summary)
        assert rep.summary["variance_tolerance"] == pytest.approx(0.1)
        assert rep.verdict == "PASS"
        assert all(e["statistic"] == "mean" for e in rep.levels)

    def test_item4_brownian_collapse(self):
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.5, order=2, weight="one",
                levels=(10,), replicates=4000, master_seed=13,
            )
        )
        assert rep.verdict == "PASS"
        assert rep.summary["sigma_tilde2"] == pytest.approx(2.0, rel=1e-12)

    def test_item5_arbitration_q4(self):
        # at q = 4 the printed and pattern-consistent constants differ; the
        # empirical variance picks out the corrected one
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.75, order=4, weight="one",
                levels=(12,), replicates=2000, master_seed=14,
            )
        )
        assert rep.verdict == "PASS"
        assert rep.summary["matched_variant"] == "corrected"
        assert not rep.summary["matches"]["printed"]

    def test_item5_q2_variants_coincide(self):
        # at q = 2 the printed and corrected constants are equal, so both
        # readings predict the same variance; the run passes exactly when the
        # shared prediction matches (this seed and size do not)
        rep = run_corollary(
            ExperimentConfig("corollary", hurst=0.75, order=2, replicates=400,
                             master_seed=1)
        )
        assert rep.summary["item"] == 5
        assert rep.summary["variants_coincide"] is True
        assert rep.summary["matches"]["printed"] == rep.summary["matches"]["corrected"]
        assert (rep.verdict == "PASS") == (rep.summary["matched_variant"] == "coincide")

    def test_item1_odd_q(self):
        rep = run_corollary(
            ExperimentConfig(
                "corollary", hurst=0.7, order=3, weight="cos:1.0",
                levels=(6, 8, 10), replicates=600, master_seed=15,
            )
        )
        assert rep.summary["item"] == 1
        assert rep.verdict == "PASS"


class TestConjecture:
    def test_q3_runs_flagged(self):
        rep = run_conjecture_quarter(
            ExperimentConfig(
                "conjecture_quarter", hurst=1 / 6, order=3, weight="cos:1.0",
                levels=(9,), replicates=300, master_seed=16,
            )
        )
        assert "EXPLORATORY" in rep.flags
        assert "UNPROVEN" in rep.flags

    def test_q2_unweighted_variance(self):
        # f == 1 kills the drift: mean -> 0, variance -> sigma^2_{1/4,2}
        rep = run_conjecture_quarter(
            ExperimentConfig(
                "conjecture_quarter", hurst=0.25, order=2, weight="one",
                levels=(12,), replicates=3000, master_seed=17,
            )
        )
        assert rep.verdict == "PASS"
        assert abs(rep.summary["drift_target"]) < 1e-15
        assert "EXPLORATORY" in rep.flags


def test_variance_order_audit_brownian():
    # H = 1/2, q = 2, f = 1: the normalised increments are i.i.d. N(0,1), so
    # E[V_n^2] = 2^n E[H_2^2] = 2^n / 2 exactly and log2 E[V_n^2] = n - 1
    audit = variance_order_audit(0.5, 2, "one", (6, 7, 8, 9), 400, 3)
    assert audit["levels"] == [6, 7, 8, 9]
    assert abs(audit["slope"] - 1.0) < 0.1
    for n, lm, se in zip(audit["levels"], audit["log2_mean_sq"], audit["log2_se"]):
        assert abs(lm - (n - 1)) <= 3 * se


def test_report_csv_and_tsv():
    rep = run_experiment(small_cfg())
    csv = rep.per_level_csv()
    assert csv.splitlines()[0].startswith("level,")
    tsv = rep.plot_tsv()
    assert tsv.splitlines()[0] == "n\tstat\tyerr"
    assert len(tsv.splitlines()) == 1 + len(rep.levels)
