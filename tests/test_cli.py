import json

import numpy as np
import pytest

from fbmvar import fbm
from fbmvar.cli import build_parser, main
from fbmvar.constants import sigma_clt

# every flag each subcommand documents; the enumeration harness below
# fails if a flag is added without updating this table (or vice versa)
EXPECTED_FLAGS = {
    "sample": {"--H", "--n", "--seed", "--stream", "--sampler", "--format",
               "--out", "--precision"},
    "variation": {"--H", "--n", "--q", "--weight", "--seed", "--stream",
                  "--power", "--centered", "--renormalize", "--out", "--precision"},
    "constants": {"--H", "--q", "--rel-tol", "--seed", "--out", "--precision"},
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
    (("--levels", "6,19", "--fine-offset", "6"), "level 25"),
])
def test_experiment_bad_values_exit_one(capsys, extra, names):
    # every case is rejected before a worker starts or a block is drawn
    code, _, err = run_cli(capsys, "experiment", "--id", "noncentral", "--H", "0.9",
                           "--q", "2", "--replicates", "100", *extra)
    assert code == 1
    assert err.startswith("error:") and names in err


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
])
def test_report_merge_bad_input_exits_one(tmp_path, capsys, content, names):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "report", "--merge", str(bad), "--format", fmt)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and names in err
        assert "Traceback" not in err


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


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "sample", "--H", "1.5", "--n", "3", "--seed", "0")
    assert code == 1


def test_precision_flag(capsys):
    _, full, _ = run_cli(capsys, "constants", "--H", "0.6", "--q", "2")
    _, short, _ = run_cli(capsys, "constants", "--H", "0.6", "--q", "2",
                          "--precision", "4")
    sigma_full = json.loads(full)["sigma"]
    sigma_short = json.loads(short)["sigma"]
    assert sigma_short == float(f"{sigma_full:.4g}")


def test_variation_order_below_one_exits_one(capsys):
    code, out, err = run_cli(capsys, "variation", "--H", "0.5", "--n", "4", "--q", "0")
    assert code == 1
    assert out == ""
    assert "error: order must be >= 1" in err


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


def test_constants_bad_rel_tol_exits_one(capsys):
    # a rejected tolerance is an error, not a constant that does not exist
    code, out, err = run_cli(capsys, "constants", "--H", "0.6", "--q", "2",
                             "--rel-tol", "0.5")
    assert code == 1
    assert out == ""
    assert "error: rel_tol" in err


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
