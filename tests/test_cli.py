import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbmvar import experiments, fbm
from fbmvar.cli import _emit, build_parser, main
from fbmvar.constants import RegimeCase, classify_regime, sigma_clt
from fbmvar.errors import ConfigError
from fbmvar.experiments import EXPERIMENT_IDS
from fbmvar.hermite_process import simulate_hermite
from fbmvar.variations import weighted_power_variation
from fbmvar.weights import parse_weight

# every flag each subcommand documents; the enumeration harness below
# fails if a flag is added without updating this table (or vice versa)
EXPECTED_FLAGS = {
    "sample": {"--H", "--n", "--seed", "--stream", "--sampler", "--format",
               "--out", "--precision"},
    "variation": {"--H", "--n", "--q", "--weight", "--seed", "--stream",
                  "--power", "--centered", "--renormalize", "--out", "--precision"},
    "constants": {"--H", "--q", "--seed", "--out", "--precision"},
    "hermite-process": {"--q", "--H", "--m", "--n-out", "--seed", "--stream",
                        "--export", "--out", "--precision"},
    "experiment": {"--id", "--config", "--H", "--q", "--weight", "--levels",
                   "--replicates", "--seed", "--fine-offset", "--threads", "--out",
                   "--csv", "--plot-data"},
    "report": {"--merge", "--format", "--seed", "--out"},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_matches_library(capsys):
    code, out, _ = run_cli(capsys, "constants", "--H", "0.6", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == pytest.approx(sigma_clt(0.6, 2).value, rel=1e-12)
    assert payload["regime"] == "CLT"
    assert payload["seed"] == 0
    assert payload["c_qH"] is None


def test_constants_noncentral_fields(capsys):
    code, out, _ = run_cli(capsys, "constants", "--H", "0.9", "--q", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["sigma"] is None  # series diverges there
    assert payload["c_qH"] == pytest.approx(0.27, rel=1e-12)


def test_sample_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--H", "0.5", "--n", "3", "--seed", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,t,B"
    assert len(lines) == 10  # header + 9 points
    assert lines[1].split(",")[2] == "0.0"


def test_sample_binary_round_trip(tmp_path, capsys):
    target = tmp_path / "path.fbm"
    code, _, _ = run_cli(
        capsys, "sample", "--H", "0.7", "--n", "5", "--seed", "9",
        "--format", "bin", "--out", str(target),
    )
    assert code == 0
    with open(target, "rb") as fh:
        back = fbm.read_binary(fh)
    direct = fbm.sample_fbm_circulant(0.7, 5, seed=9)
    assert np.array_equal(back.values, direct.values)


@pytest.mark.parametrize("precision", [None, "4"])
def test_sample_json(capsys, precision):
    argv = ["sample", "--H", "0.7", "--n", "5", "--seed", "9", "--stream", "2",
            "--format", "json"]
    if precision is not None:
        argv += ["--precision", precision]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"H", "n", "seed", "stream", "sampler", "values"}
    assert (payload["H"], payload["n"], payload["seed"], payload["stream"],
            payload["sampler"]) == (0.7, 5, 9, 2, "circulant")
    direct = fbm.sample_fbm_circulant(0.7, 5, seed=9, stream_index=2).values.tolist()
    if precision is None:  # each number's shortest repr gives back its double
        assert payload["values"] == direct
    else:
        assert payload["values"] == [float(f"{v:.4g}") for v in direct]


def test_hermite_process_json(capsys):
    code, out, err = run_cli(
        capsys, "hermite-process", "--q", "2", "--H", "0.9", "--m", "8",
        "--n-out", "4", "--seed", "2", "--stream", "1",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"q", "H", "m", "n_out", "seed", "stream", "values"}
    assert (payload["q"], payload["H"], payload["m"], payload["n_out"], payload["seed"],
            payload["stream"]) == (2, 0.9, 8, 4, 2, 1)
    z = simulate_hermite(fbm.sample_fbm_circulant(0.9, 8, 2, 1), 2, 4)
    assert payload["values"] == z.tolist()


def test_variation_power_centered(capsys):
    code, out, err = run_cli(
        capsys, "variation", "--H", "0.6", "--n", "8", "--q", "4", "--weight", "sin:0.5",
        "--seed", "3", "--power", "--centered",
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"H", "n", "q", "weight", "seed", "stream", "kind", "centered",
                            "raw_value"}
    assert (payload["kind"], payload["centered"]) == ("power", True)
    path = fbm.sample_fbm_circulant(0.6, 8, seed=3)
    assert payload["raw_value"] == weighted_power_variation(
        path, parse_weight("sin:0.5"), 4, centered=True
    )


def test_experiment_config_line_without_equals_exits_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("id = clt\nH 0.6  # no equals sign\nq = 2\n")
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: bad config line 'H 0.6  # no equals sign' (want key = value)\n"


@pytest.mark.parametrize("ratio, q, regime", [("5/6", 3, "CRITICAL_HIGH"),
                                               ("1/4", 2, "CRITICAL_LOW")])
def test_rational_hurst_hits_the_critical_case(capsys, monkeypatch, tmp_path, ratio, q,
                                               regime):
    code, out, _ = run_cli(capsys, "constants", "--H", ratio, "--q", str(q))
    assert code == 0 and json.loads(out)["regime"] == regime
    # the mixed limit at H = 1/(2q) is proven only for q = 2 (README)
    assert json.loads(out)["conjectural"] is (regime == "CRITICAL_LOW")
    # --H and the config key hurst give the experiment the same double
    seen = []

    def record(cfg):
        seen.append(cfg.hurst)
        raise ConfigError("recorded")

    monkeypatch.setattr(experiments, "run_experiment", record)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(f"hurst = {ratio}\nq = {q}\n")
    for given in (("--H", ratio, "--q", str(q)), ("--config", str(cfg_file))):
        assert run_cli(capsys, "experiment", "--id", "clt", *given)[0] == 1
    p, _, d = ratio.partition("/")
    assert seen == [int(p) / int(d)] * 2
    assert classify_regime(seen[0], q) is RegimeCase[regime]


def test_decimal_hurst_keeps_its_bytes_and_bad_ratios_exit_one(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "constants", "--H", "0.6", "--q", "2")
    assert (code, out) == run_cli(capsys, "constants", "--H", "3/5", "--q", "2")[:2]
    code, out, err = run_cli(capsys, "constants", "--H", "abc", "--q", "2")
    assert (code, out) == (1, "")
    assert err.endswith("error: argument --H: invalid float value: 'abc'\n")
    for bad in ("1/0", "a/2", "1/2/3", "1.5/2", "/2", f"{10**400}/3"):
        code, out, err = run_cli(capsys, "constants", "--H", bad, "--q", "2")
        assert (code, out) == (1, "") and "invalid ratio" in err
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(f"hurst = {bad}\nq = 2\n")
        code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--config",
                                 str(cfg_file))
        assert (code, out, err) == (1, "", f"error: bad value {bad!r} for config key "
                                    "'hurst'\n")


@pytest.mark.parametrize("given", [(), ("--H", "0.6"), ("--q", "2")])
def test_experiment_without_hurst_or_order_exits_one(capsys, given):
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", *given)
    assert (code, out) == (1, "")
    assert err == "error: experiment needs --H and --q (or a config file)\n"


def test_variation_renormalized(capsys):
    code, out, _ = run_cli(
        capsys, "variation", "--H", "0.5", "--n", "6", "--q", "2",
        "--weight", "cos:1.0", "--seed", "4", "--renormalize",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["renormalized_value"] == pytest.approx(
        payload["raw_value"] * 2.0**-3, rel=1e-12
    )
    assert payload["regime"] == "CLT"


def test_experiment_regime_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "experiment", "--id", "clt", "--H", "0.75",
                           "--q", "2", "--replicates", "100")
    assert code == 1
    assert "error" in err


def test_experiment_config_parse_error_names_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("id = clt\nH = 0.5\norder = two\n")
    code, _, err = run_cli(capsys, "experiment", "--id", "clt", "--config", str(cfg))
    assert code == 1
    assert err.startswith("error:") and "'order'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["corollary_item", "rel_tol", "variance_rtol",
                                 "slope_rtol", "ks_alpha", "final_ratio", "max_inversions"])
def test_experiment_config_rejects_policy_keys(tmp_path, capsys, key):
    # the verdict thresholds are fixed and the corollary item follows from (H, q)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"H = 0.5\nq = 2\nreplicates = 100\n{key} = 0.5\n")
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: unknown config key {key!r}\n"


@pytest.mark.parametrize("extra, names", [
    (("--levels", "0,1"), "levels"),
    (("--threads", "0"), "threads"),
    (("--threads", "-3"), "threads"),
    (("--fine-offset", "-2"), "fine_offset"),
    (("--levels", "6,19", "--fine-offset", "6"),
     "finest sampled level must be an integer in [1, 24], got 25"),
    (("--weight", "poly:nan"), "not finite"),
    (("--weight", "exp:nan"), "not finite"),
    (("--replicates", "100000000000000000000"), "physical memory"),
])
def test_experiment_bad_values_exit_one(capsys, extra, names):
    # every case is rejected before a worker starts or a block is drawn
    code, _, err = run_cli(capsys, "experiment", "--id", "noncentral", "--H", "0.9",
                           "--q", "2", "--replicates", "100", *extra)
    assert code == 1
    assert err.startswith("error:") and names in err


def test_experiment_config_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"H = 0.6\nq = 2\n\xff\n")
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error:") and str(cfg) in err


@pytest.mark.parametrize("argv", [
    ("constants", "--H", "0.3", "--q", "171"),
    ("constants", "--H", "0.3", "--q", "160"),
    ("experiment", "--id", "clt", "--H", "0.6", "--q", "200", "--levels", "4",
     "--replicates", "100"),
    ("experiment", "--id", "noncentral", "--H", "0.9999", "--q", "1000", "--levels", "2,3",
     "--replicates", "100", "--fine-offset", "1"),
    ("experiment", "--id", "small_h", "--H", "0.001", "--q", "171", "--levels", "6,7",
     "--replicates", "100"),
    ("experiment", "--id", "corollary", "--H", "0.9", "--q", "400", "--levels", "4,5",
     "--replicates", "100", "--fine-offset", "2"),
    ("experiment", "--id", "trapezoid", "--H", "0.3", "--q", "-5", "--levels", "4",
     "--replicates", "100"),
])
def test_large_order_exits_one(capsys, argv):
    # 2^q q! has no finite double above q = 150: an error, not a traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "overflow" in err


def test_constants_large_order_prints_null(capsys):
    # q!^2 overflows a double at q = 100, so c_qH is printed as null
    code, out, _ = run_cli(capsys, "constants", "--H", "0.9975", "--q", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "NONCENTRAL"
    assert payload["c_qH"] is None and payload["sigma"] is None


def test_experiment_runs_and_writes_outputs(tmp_path, capsys):
    out_json = tmp_path / "rep.json"
    out_csv = tmp_path / "rep.csv"
    out_tsv = tmp_path / "rep.tsv"
    code, _, _ = run_cli(
        capsys, "experiment", "--id", "clt", "--H", "0.5", "--q", "2",
        "--levels", "8", "--replicates", "200", "--seed", "5",
        "--out", str(out_json), "--csv", str(out_csv), "--plot-data", str(out_tsv),
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == "fbmvar-report/1"
    assert out_csv.read_text().startswith("level,")
    assert out_tsv.read_text().startswith("n\tstat\tyerr")


def test_experiment_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# clt experiment\n"
        "id = clt\n"
        "H = 0.5\n"
        "q = 2\n"
        "levels = 8\n"
        "replicates = 150\n"
        "seed = 3\n"
    )
    out_json = tmp_path / "rep.json"
    code, _, _ = run_cli(
        capsys, "experiment", "--id", "clt", "--config", str(cfg),
        "--replicates", "200", "--out", str(out_json),
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["config"]["replicates"] == 200  # flag wins
    assert payload["config"]["master_seed"] == 3
    # a file saved with a UTF-8 byte order mark reads as the same file without one
    cfg.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    bom_json = tmp_path / "bom.json"
    code, _, _ = run_cli(
        capsys, "experiment", "--id", "clt", "--config", str(cfg),
        "--replicates", "200", "--out", str(bom_json),
    )
    assert code == 0 and bom_json.read_bytes() == out_json.read_bytes()


@pytest.mark.parametrize("weight", ["sin:0", "poly:0", "poly:0,0,0"])
@pytest.mark.parametrize("exp_id", EXPERIMENT_IDS)
def test_zero_weight_refused_before_any_block(capsys, monkeypatch, exp_id, weight):
    def no_block(*args):
        raise AssertionError("a block was drawn for an identically zero weight")

    monkeypatch.setattr(experiments, "_values_block", no_block)
    code, out, err = run_cli(capsys, "experiment", "--id", exp_id, "--H", "0.6",
                             "--q", "2", "--weight", weight, "--replicates", "100")
    assert (code, out) == (1, "")
    assert err == f"error: weight {weight!r} is identically zero: every statistic is 0\n"


def test_default_json_numbers_read_back_bit_identical(tmp_path):
    # the shortest repr of a double reads back to that double, so the default
    # output equals a 17-digit rounding of every number
    edge = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0,
            0.1 + 0.2, 1 / 3]
    payload = {"floats": edge, "numpy": [np.float64(v) for v in edge]}
    default, seventeen = tmp_path / "default.json", tmp_path / "seventeen.json"
    _emit(payload, str(default), None)
    _emit(payload, str(seventeen), 17)
    back = json.loads(default.read_text())
    for key in payload:
        assert [v.hex() for v in back[key]] == [v.hex() for v in edge]
    assert default.read_bytes() == seventeen.read_bytes()


def test_experiment_determinism_byte_identical(tmp_path, capsys):
    args = ("experiment", "--id", "clt", "--H", "0.5", "--q", "2", "--levels", "8",
            "--replicates", "150", "--seed", "5")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_merge(tmp_path, capsys):
    out_json = tmp_path / "rep.json"
    run_cli(capsys, "experiment", "--id", "clt", "--H", "0.5", "--q", "2",
            "--levels", "8", "--replicates", "150", "--seed", "5",
            "--out", str(out_json))
    code, out, _ = run_cli(capsys, "report", "--merge", str(out_json), str(out_json))
    assert code == 0
    assert "experiment" in out and out.count("clt") == 2
    code, out, _ = run_cli(capsys, "report", "--merge", str(out_json),
                           "--format", "json")
    merged = json.loads(out)
    assert merged["schema"] == "fbmvar-report-merge/1"
    assert len(merged["reports"]) == 1


@pytest.mark.parametrize("content, names", [
    (b"level,stat\n8,0.1\n", "not a JSON report"),
    (b"FBM1\x00\xff\xfe", "not a JSON report"),
    (b"[1, 2]", "not an experiment report"),
    (b'{"config": [1]}', "not an experiment report"),
    (b'{"config": {"levels": 5}}', "config.levels is not a list"),
    (b'{"config": {"levels": "abc"}}', "config.levels is not a list"),
    # json.load gives up on this nesting with RecursionError, not ValueError
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "not a JSON report", id="nested-too-deep"),
    # json.load reads NaN and Infinity, which are not JSON
    (b'{"config": {"hurst": NaN, "levels": [6]}}', "not a JSON report"),
    (b'{"config": {"levels": [6]}, "verdict": -Infinity}', "not a JSON report"),
    # shaped like a report, but no runner wrote it
    (b"{}", "not an experiment report (schema None, want 'fbmvar-report/1')"),
    (b'{"schema": "other/9", "config": {"levels": [6]}}',
     "not an experiment report (schema 'other/9', want 'fbmvar-report/1')"),
])
def test_report_merge_bad_input_exits_one(tmp_path, capsys, content, names):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "report", "--merge", str(bad), "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and names in err
        assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_report_value_json_cannot_spell_exits_one(tmp_path, capsys):
    # diff^2 near 1e200 overflows when the reducer squares it, so every
    # stat_se is inf: no report is written, and numpy prints no warning
    report = tmp_path / "r.json"
    code, out, err = run_cli(capsys, "experiment", "--id", "noncentral", "--H", "0.9",
                             "--q", "2", "--weight", "poly:1e100,1", "--levels", "4,5,6,7",
                             "--replicates", "100", "--fine-offset", "2", "--out", str(report))
    assert code == 1 and out == ""
    assert err.startswith("error: an output value is not finite") and err.count("\n") == 1
    assert not report.exists()


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_io_error_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "sample", "--H", "0.5", "--n", "3", "--seed", "0",
        "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 2
    assert "io error" in err


def _no_draw(*args, **kwargs):
    raise AssertionError("a path was drawn")


@pytest.mark.parametrize("argv", [
    ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
     "--replicates", "100", "--out", "{bad}"),
    ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
     "--replicates", "100", "--out", "{kept}", "--csv", "{bad}"),
    ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
     "--replicates", "100", "--out", "{kept}", "--plot-data", "{bad}"),
    ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
     "--replicates", "100", "--out", "{dir}"),
    ("sample", "--H", "0.6", "--n", "6", "--format", "bin", "--out", "{bad}"),
    ("hermite-process", "--q", "2", "--H", "0.9", "--m", "6", "--n-out", "3",
     "--out", "{bad}"),
], ids=["out", "csv", "plot-data", "out-is-a-directory", "sample", "hermite-process"])
def test_bad_output_path_exits_two_before_drawing(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(fbm, "sample_increments_circulant", _no_draw)
    monkeypatch.setattr(fbm, "sample_fbm_circulant", _no_draw)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    bad = tmp_path / "missing" / "r.out"
    paths = {"{bad}": str(bad), "{kept}": str(kept), "{dir}": str(tmp_path)}
    code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    if "{dir}" in argv:
        assert err == f"io error: [Errno 21] Is a directory: '{tmp_path}'\n"
    else:
        assert err == f"io error: [Errno 2] No such file or directory: '{bad}'\n"
    assert kept.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


@pytest.mark.parametrize("argv, first, second", [
    (("--out", "r.txt", "--csv", "r.txt"), "--out", "--csv"),
    (("--out", "r.txt", "--plot-data", "./r.txt"), "--out", "--plot-data"),
    (("--csv", "r.csv", "--plot-data", "sub/../r.csv"), "--csv", "--plot-data"),
    (("--out", "r.json", "--csv", "r.csv", "--plot-data", "r.json"), "--out", "--plot-data"),
], ids=["out-csv", "out-plot-data", "csv-plot-data", "out-plot-data-of-three"])
def test_two_output_flags_naming_one_file_exit_one(capsys, monkeypatch, tmp_path,
                                                  argv, first, second):
    monkeypatch.setattr(fbm, "sample_increments_circulant", _no_draw)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--H", "0.6", "--q", "2",
                             "--levels", "6", "--replicates", "100", *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {first} and {second} name one file, {argv[-1]}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_failed_run_leaves_output_files_as_they_were(capsys, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise ConfigError("no draw")

    monkeypatch.setattr(fbm, "sample_increments_circulant", fail)
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--H", "0.6", "--q", "2",
                             "--levels", "6", "--replicates", "100", "--out", str(kept),
                             "--csv", str(tmp_path / "r.csv"),
                             "--plot-data", str(tmp_path / "r.tsv"))
    assert (code, out, err) == (1, "", "error: no draw\n")
    assert kept.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]


@pytest.mark.parametrize("text, key", [
    ("H = 0.6\nhurst = 0.7\nq = 2\n", "hurst"),
    ("H = 0.6\nq = 2\nh = 0.7\n", "hurst"),
    ("H = 0.6\nq = 2\norder = 3\n", "order"),
    ("H = 0.6\nq = 2\nseed = 1\nmaster-seed = 2\n", "master_seed"),
], ids=["H-hurst", "H-h", "q-order", "seed-master-seed"])
def test_experiment_config_key_given_twice_exits_one(capsys, monkeypatch, tmp_path,
                                                     text, key):
    monkeypatch.setattr(fbm, "sample_increments_circulant", _no_draw)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--config", str(cfg),
                             "--H", "0.6")
    assert (code, out) == (1, "")
    assert err == f"error: config key {key!r} given twice in {cfg}\n"


@pytest.mark.parametrize("value, shown", [("abc", "'abc'"), ("1.5", "'1.5'"), ("0", "0"),
                                          ("-2", "-2"), ("", "''")])
def test_bad_fbmvar_threads_is_named(capsys, monkeypatch, value, shown):
    monkeypatch.setattr(fbm, "sample_increments_circulant", _no_draw)
    monkeypatch.setenv("FBMVAR_THREADS", value)
    argv = ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
            "--replicates", "100")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: FBMVAR_THREADS must be an integer >= 1, got {shown}\n"
    # --threads overrides the variable, which is then not read
    seen = []

    def record(cfg):
        seen.append(cfg.threads)
        raise ConfigError("recorded")

    monkeypatch.setattr(experiments, "run_experiment", record)
    assert run_cli(capsys, *argv, "--threads", "2")[:2] == (1, "")
    assert seen == [2]


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "sample", "--H", "1.5", "--n", "3", "--seed", "0")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("sample", "--H", "0.7", "--n", "3", "--seed", "-1"),
    ("sample", "--H", "0.7", "--n", "3", "--seed", str(2**64)),
    ("sample", "--H", "0.7", "--n", "3", "--stream", "-1"),
    ("variation", "--H", "0.7", "--n", "4", "--q", "2", "--stream", str(2**64 + 3)),
    ("hermite-process", "--q", "2", "--H", "0.8", "--m", "6", "--n-out", "3",
     "--seed", "-7"),
    ("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "6",
     "--replicates", "100", "--seed", "-5"),
    ("constants", "--H", "0.6", "--q", "2", "--seed", "-1"),
    ("report", "--merge", "missing.json", "--seed", str(2**64)),
])
def test_seeds_and_streams_outside_64_bits_exit_one(capsys, argv):
    # they used to wrap modulo 2**64: --seed -1 drew the path of 2**64 - 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "must be an integer in [0, 2**64)" in err.splitlines()[-1]
    assert err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("sample", "--H", "0.7", "--n", "3", "--seed", "abc"),
    ("sample", "--H", "0.7", "--n", "3", "--stream", "1e3"),
])
def test_seeds_and_streams_not_integers_exit_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"invalid int value: '{argv[-1]}'" in err.splitlines()[-1]
    assert err.splitlines()[-1].startswith("error: ")


def test_config_file_seed_outside_64_bits_exits_one(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("H = 0.6\nq = 2\nlevels = 6\nreplicates = 100\nseed = -5\n")
    code, out, err = run_cli(capsys, "experiment", "--id", "clt", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == "error: master_seed must be an integer in [0, 2**64), got -5\n"


def test_largest_seed_and_stream_round_trip_through_fbm1(capsys, tmp_path):
    top = 2**64 - 1
    out_file = tmp_path / "p.bin"
    code, _, _ = run_cli(capsys, "sample", "--H", "0.7", "--n", "4", "--seed", str(top),
                         "--stream", str(top), "--format", "bin", "--out", str(out_file))
    assert code == 0
    with open(out_file, "rb") as fh:
        path = fbm.read_binary(fh)
    assert path.seed == top
    assert np.array_equal(path.values, fbm.sample_fbm_circulant(0.7, 4, top, top).values)


def test_precision_flag(capsys):
    _, full, _ = run_cli(capsys, "constants", "--H", "0.6", "--q", "2")
    _, short, _ = run_cli(capsys, "constants", "--H", "0.6", "--q", "2",
                          "--precision", "4")
    sigma_full = json.loads(full)["sigma"]
    sigma_short = json.loads(short)["sigma"]
    assert sigma_short == float(f"{sigma_full:.4g}")


def _order_error(minimum, q):
    return (f"order q must be an integer in [{minimum}, 150], got {q} "
            "(the limit constants overflow a double above q=150)")


def test_variation_order_below_one_exits_one(capsys):
    code, out, err = run_cli(capsys, "variation", "--H", "0.5", "--n", "4", "--q", "0")
    assert code == 1
    assert out == ""
    assert err == f"error: {_order_error(1, 0)}\n"


_N22 = ("--H", "0.6", "--n", "22")


@pytest.mark.parametrize("argv,message", [
    (("variation", *_N22, "--q", "2", "--weight", "bogus"),
     "cannot parse weight spec 'bogus'"),
    (("variation", *_N22, "--q", "2", "--weight", "cos:nan"),
     "cannot parse weight spec 'cos:nan': parameter 'nan' is not finite"),
    (("variation", *_N22, "--q", "0"), _order_error(1, 0)),
    (("variation", *_N22, "--q", "0", "--power"), _order_error(1, 0)),
    (("variation", *_N22, "--q", "1", "--renormalize"), _order_error(2, 1)),
    (("hermite-process", "--q", "2", "--H", "0.6", "--m", "22", "--n-out", "4"),
     "the Hermite process needs H > 1 - 1/(2q) = 0.75, got H=0.6, q=2"),
    (("hermite-process", "--q", "2", "--H", "0.9", "--m", "22", "--n-out", "23"),
     "out_level must be an integer in [1, 22], got 23"),
    (("hermite-process", "--q", "2", "--H", "0.9", "--m", "22", "--n-out", "0"),
     "out_level must be an integer in [1, 22], got 0"),
    (("hermite-process", "--q", "2", "--H", "0.9", "--m", "0", "--n-out", "1"),
     "level must be an integer in [1, 24], got 0"),
    (("sample", *_N22, "--format", "bin"), "binary output requires --out"),
    (("sample", *_N22, "--format", "bin", "--sampler", "cholesky"),
     "binary output requires --out"),
    (("variation", *_N22, "--q", "2", "--centered"),
     "--centered subtracts mu_q from the power variation: add --power"),
    (("variation", "--H", "0.8", "--n", "22", "--q", "4", "--power", "--renormalize"),
     "--renormalize applies to the Hermite variation, not to --power"),
    (("sample", *_N22, "--format", "csv", "--precision", "4"),
     "--precision applies to json output only, not csv"),
    (("sample", *_N22, "--format", "bin", "--out", "unused.bin", "--precision", "4"),
     "--precision applies to json output only, not bin"),
    (("hermite-process", "--q", "2", "--H", "0.9", "--m", "22", "--n-out", "4",
      "--export", "csv", "--precision", "4"),
     "--precision applies to json output only, not csv"),
    (("variation", "--H", "0.5", "--n", "4", "--q", "100000"), _order_error(1, 100000)),
    (("variation", "--H", "0.5", "--n", "10", "--q", "151"), _order_error(1, 151)),
    (("variation", "--H", "0.5", "--n", "10", "--q", "151", "--power"),
     _order_error(1, 151)),
    (("hermite-process", "--q", "1000", "--H", "0.9999", "--m", "8", "--n-out", "3"),
     _order_error(2, 1000)),
    (("hermite-process", "--q", "151", "--H", "0.9999", "--m", "8", "--n-out", "3"),
     _order_error(2, 151)),
])
def test_bad_request_exits_before_sampling(capsys, monkeypatch, argv, message):
    def no_path(*args):
        raise AssertionError("a path was sampled for a request that needs none")

    monkeypatch.setattr(fbm, "sample_fbm_circulant", no_path)
    monkeypatch.setattr(fbm, "sample_fbm_cholesky", no_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_unknown_experiment_id_exits_one_before_sampling(capsys, monkeypatch, tmp_path):
    # ExperimentConfig alone checks the id, so its one error line names all seven
    monkeypatch.setattr(fbm, "sample_increments_circulant", _no_draw)
    monkeypatch.setattr(fbm, "sample_fbm_circulant", _no_draw)
    argv = ("experiment", "--id", "bogus", "--H", "0.6", "--q", "2")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: unknown experiment 'bogus'; choose from {EXPERIMENT_IDS}\n"
    assert len(EXPERIMENT_IDS) == 7
    # every output path is checked before the request is, so an unwritable
    # --out wins: exit 2, and the id is never judged
    bad = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(bad))
    assert (code, out) == (2, "")
    assert err == f"io error: [Errno 2] No such file or directory: '{bad}'\n"


def test_runtime_imports_numpy_only(tmp_path):
    # numpy is the only runtime dependency: importing the package and running
    # an experiment on two worker threads loads no other top-level module
    # outside the standard library, beyond what an interpreter that imports
    # numpy and draws one Philox normal loads itself; and it starts no
    # child process
    top = ("import sys; print(' '.join(sorted({m.split('.')[0] for m in sys.modules"
           " if not m.startswith('__')} - set(sys.stdlib_module_names))))")
    draw = "import numpy as np; np.random.Generator(np.random.Philox(0)).standard_normal(); "
    run = ("import fbmvar; from fbmvar.cli import main; main(['experiment', '--id', "
           "'clt', '--H', '0.6', '--q', '2', '--levels', '12', '--replicates', '128', "
           f"'--threads', '2', '--out', {str(tmp_path / 'r.json')!r}]); "
           "assert 'multiprocessing' not in sys.modules; ")
    env = {**os.environ, "PYTHONPATH": str(Path(fbm.__file__).parents[1])}

    def modules(code):
        proc = subprocess.run([sys.executable, "-c", "import sys; " + code],
                              capture_output=True, text=True, env=env, timeout=120,
                              check=True)
        return set(proc.stdout.split())

    assert modules(run + top) - modules(draw + top) == {"fbmvar"}


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("argv", [
    ("sample", "--H", "0.5", "--n", "3", "--format", "json"),
    ("variation", "--H", "0.5", "--n", "4", "--q", "2"),
    ("constants", "--H", "0.6", "--q", "2"),
    ("hermite-process", "--q", "2", "--H", "0.9", "--m", "6", "--n-out", "3"),
])
def test_precision_below_one_exits_one(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv, "--precision", value)
    assert code == 1
    assert out == ""
    assert "error: argument --precision" in err


def test_hermite_process_csv(capsys):
    code, out, _ = run_cli(
        capsys, "hermite-process", "--q", "2", "--H", "0.9", "--m", "8",
        "--n-out", "4", "--seed", "2", "--export", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,t,Z"
    assert len(lines) == 1 + 17
    assert lines[1].split(",")[2] == "0.0"
    z = simulate_hermite(fbm.sample_fbm_circulant(0.9, 8, 2), 2, 4)
    times = np.arange(17) / 16
    rows = [f"{j},{float(t)!r},{float(v)!r}" for j, (t, v) in enumerate(zip(times, z))]
    assert out == "\n".join(["j,t,Z", *rows]) + "\n"


def test_flag_enumeration_matches_help():
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    subparsers = sub_actions[0].choices
    assert set(subparsers) == set(EXPECTED_FLAGS)
    for name, sub in subparsers.items():
        flags = {
            opt
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        assert flags == EXPECTED_FLAGS[name], f"flag drift in {name}"
        helptext = sub.format_help()
        for flag in flags:
            assert flag in helptext


@pytest.mark.parametrize("argv,message", [
    (("variation", "--H", "0.6", "--n", "4", "--q", "2", "--weight", "poly:1e308"),
     "error: weighted Hermite variation: "),
    (("variation", "--H", "0.6", "--n", "4", "--q", "2", "--power",
      "--weight", "poly:1e308,1e308"),
     "error: weighted power variation: "),
    (("experiment", "--id", "clt", "--H", "0.6", "--q", "2", "--levels", "4",
      "--replicates", "100", "--weight", "poly:1e308,1e308"),
     "error: per-replicate output y_4 is "),
])
def test_overflowing_weight_exits_one_with_an_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1
    assert "overflows a double" in err
