import dataclasses
import json

import numpy as np
import pytest

from fbmvar import experiments, fbm
from fbmvar.constants import renorm_factor
from fbmvar.errors import ConfigError, RegimeError, SizeLimitError
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
from fbmvar.stats import through_origin_slope
from fbmvar.variations import hermite_variation_rows


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
        # finest level 7 + 6 = 13: 2^22 >> 14 = 256 replicates per block
        assert drawn == [(13, 0, 256), (13, 256, 44)]

    def test_fine_levels_are_restrictions_of_the_finest_path(self):
        cfg = self.nc_cfg(replicates=100, fine_offset=3)
        seen = {}

        def recording(cfg, f, v, m, n):
            seen[n] = (m, v.copy())
            return {f"x_{n}": v[:, -1]}

        experiments._collect(cfg, recording, fine=True)
        for i in (0, 57, 99):
            finest = fbm.sample_fbm_circulant(cfg.hurst, 10, cfg.master_seed, i)
            for n, (m, v) in seen.items():
                assert m == n + 3
                assert np.array_equal(v[i], fbm.coarsen(finest, m).values)

    def test_thread_count_does_not_change_noncentral_report(self):
        serial = run_noncentral(self.nc_cfg())
        parallel = run_noncentral(self.nc_cfg(threads=2))
        assert serial.to_json() == parallel.to_json()


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
        def pair(cfg, f, v, m, n):
            q, hurst = cfg.order, cfg.hurst
            stat = renorm_factor(hurst, q, n) * hermite_variation_rows(v, hurst, n, f, q)
            return {"stat": stat, "limit": experiments._hermite_drift(f, v, q)}

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

    def test_identity_weight_ignores_rounding_noise_order(self):
        # relative L2 values near 1e-15 come in random order; two
        # inversions among them must not fail an exact identity
        rep = run_noncentral(
            ExperimentConfig(
                "noncentral", hurst=0.8, order=2, weight="one",
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
        # 0.15"; item 6 reports only the four common per-level keys
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
                assert list(e) == ["level", "stat", "stat_se", "statistic"]
                assert e["statistic"] == "relative_l2_distance"
        assert failing.summary["inversions"] == 0  # failed on the threshold alone

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
