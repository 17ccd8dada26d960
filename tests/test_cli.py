"""Command-line surface: exit codes, artifacts, determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from zetaheights.cli import main
from zetaheights.config import RunConfig, load_config
from zetaheights.errors import UsageError


def run_cli(args, tmp_path):
    return main(list(args) + ["--output-dir", str(tmp_path)])


def test_invariants_artifact(tmp_path, capsys):
    code = run_cli(["invariants", "x^3+3*x+213"], tmp_path)
    assert code == 0
    payload = json.loads((tmp_path / "invariants.json").read_text())
    assert payload["index"] == "17"
    assert payload["field_disc"] == "-4239"
    assert abs(payload["log_abs_disc"] - 8.3520826713) < 1e-9
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "invariants"
    assert "config_hash" in manifest


def test_zeros_artifact(tmp_path, capsys):
    code = run_cli(["zeros", "x^2+1", "--height", "7"], tmp_path)
    assert code == 0
    rows = (tmp_path / "zeros.csv").read_text().strip().splitlines()
    assert rows[0] == "t,bracket_width"
    assert len(rows) == 2
    assert abs(float(rows[1].split(",")[0]) - 6.020949) < 1e-4
    summary = json.loads((tmp_path / "zero-summary.json").read_text())
    assert summary["N"] == 2


def test_zero_polynomial_exit_3(tmp_path, capsys):
    code = run_cli(["invariants", "0"], tmp_path)
    assert code == 3
    assert not (tmp_path / "invariants.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_reducible_exit_3(tmp_path, capsys):
    assert run_cli(["invariants", "x^2-1"], tmp_path) == 3
    assert not any(tmp_path.iterdir())


def test_degree_above_64_exit_3(tmp_path, capsys):
    assert run_cli(["invariants", "x^100000"], tmp_path) == 3
    assert "above 64" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_usage_exit_64(tmp_path, capsys):
    assert main(["no-such-command"]) == 64
    assert main(["invariants", "x^2+1", "--set", "oops"]) == 64
    assert main(["invariants", "x^2+1", "--set", "scan_step=0.2"]) == 64


def test_bound_artifact(tmp_path, capsys):
    code = run_cli(["bound", "zeros-theorem", "x^4+1"], tmp_path)
    assert code == 0
    rep = json.loads((tmp_path / "bound-zeros-theorem.json").read_text())
    assert rep["notes"]["holds"]


def test_disc_bound2_quadratic_exit_3(tmp_path, capsys):
    assert run_cli(["bound", "disc-bound2", "x^2+1"], tmp_path) == 3
    assert "bound needs degree >= 3" in capsys.readouterr().err
    assert not (tmp_path / "bound-disc-bound2.json").exists()


def test_membership_bound(tmp_path, capsys):
    code = run_cli(["bound", "membership", "x^2+1", "--delta", "0.4",
                    "--epsilon", "0.5"], tmp_path)
    assert code == 0
    res = json.loads((tmp_path / "membership.json").read_text())
    assert res["in_S"] is False


@pytest.mark.parametrize("flag,value", [
    ("--delta", "nan"), ("--epsilon", "nan"), ("--delta", "inf"), ("--epsilon", "inf"),
])
def test_membership_nonfinite_exit_3(tmp_path, capsys, flag, value):
    out = tmp_path / "out"   # the later of two equal flags wins
    assert run_cli(["bound", "membership", "x^2+1", "--delta", "0.4",
                    "--epsilon", "0.5", flag, value], out) == 3
    assert not out.exists()


def test_identity_artifact(tmp_path, capsys):
    code = run_cli(["identity", "x^2-x-1", "--kernel", "gauss", "--y", "0.1"],
                   tmp_path)
    assert code == 0
    ledger = json.loads((tmp_path / "identity-ledger.json").read_text())
    assert ledger["accepted"] is True
    assert (tmp_path / "identity-terms.csv").exists()


def test_tower_command(tmp_path, capsys):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({"levels": ["x", "x^2+1", "x^4+1"]}))
    code = run_cli(["tower", str(spec), "--cutoff", "10"], tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "tower-summary.json").read_text())
    assert summary["asymptotically_positive"] is True
    assert summary["psi_hat"]["2"] == 0.25
    assert all(m["holds"] for m in summary["monotone_sums"])
    ratios = (tmp_path / "tower-ratios.csv").read_text().splitlines()
    assert ratios[0] == "level,q,ratio"


@pytest.mark.parametrize("cutoff", ["1", "0", "-5"])
def test_tower_cutoff_below_2_exit_3(tmp_path, capsys, cutoff):
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({"levels": ["x", "x^2+1"]}))
    out = tmp_path / "out"
    assert run_cli(["tower", str(spec), "--cutoff", cutoff], out) == 3
    assert not out.exists()
    assert "cutoff must be >= 2" in capsys.readouterr().err


def test_tower_missing_file_exit_3(tmp_path, capsys):
    assert run_cli(["tower", str(tmp_path / "nope.json")], tmp_path) == 3


def test_artifacts_deterministic(tmp_path, capsys):
    out = tmp_path / "a"
    digests = []
    for _ in range(2):
        code = main(["invariants", "x^2+1", "--output-dir", str(out)])
        assert code == 0
        digest = {}
        for path in sorted(out.iterdir()):
            digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        digests.append(digest)
    assert digests[0] == digests[1]


def test_verify_table1_deterministic(tmp_path, capsys, monkeypatch):
    from zetaheights import table1
    monkeypatch.setattr(table1, "ROWS", table1.ROWS[:1])  # x^3+18*x^2+312
    out = tmp_path / "t"
    digests = []
    for _ in range(2):
        assert main(["verify-table1", "--output-dir", str(out)]) == 0
        digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in sorted(out.iterdir())})
    assert digests[0] == digests[1]
    assert "table1-verification.json" in digests[0]


def test_verify_table1_second_quintic_meets_its_tolerance(tmp_path, capsys,
                                                         monkeypatch):
    from zetaheights import table1
    monkeypatch.setattr(table1, "ROWS",
                        tuple(r for r in table1.ROWS if r[0] == "x^5+2*x^2+26"))
    assert main(["verify-table1", "--output-dir", str(tmp_path)]) == 0
    (row,) = json.loads((tmp_path / "table1-verification.json").read_text())["rows"]
    assert row["passed"] and row["column_error"] <= 1e-9


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "zh.conf"
    cfg.write_text("scan_step = 0.02\nprime_cutoff = 100000\n")
    code = main(["invariants", "x^2+1", "--config", str(cfg),
                 "--output-dir", str(tmp_path / "o1")])
    assert code == 0
    manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    assert manifest["config"]["scan_step"] == 0.02
    monkeypatch.setenv("ZH_CONFIG", str(cfg))
    code = main(["invariants", "x^2+1", "--output-dir", str(tmp_path / "o2")])
    assert code == 0
    manifest2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest2["config"]["prime_cutoff"] == 100000


def test_default_config_rereads_zh_config(tmp_path, monkeypatch):
    from zetaheights.config import default_config
    monkeypatch.delenv("ZH_CONFIG", raising=False)
    assert default_config().scan_step == 0.01
    cfg = tmp_path / "zh.conf"
    cfg.write_text("scan_step = 0.02\n")
    monkeypatch.setenv("ZH_CONFIG", str(cfg))
    assert default_config().scan_step == 0.02
    monkeypatch.delenv("ZH_CONFIG")
    assert default_config().scan_step == 0.01


def test_bad_config_key_exit_64(tmp_path, capsys):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("no_such_knob = 1\n")
    assert main(["invariants", "x^2+1", "--config", str(cfg),
                 "--output-dir", str(tmp_path)]) == 64


@pytest.mark.parametrize("argv", [
    ["zeros", "x^2+1", "--set", "scan_step=nan"],
    ["zeros", "x^2+1", "--set", "scan_step=inf"],
    ["bound", "northcott", "x^2+1", "--set", "prime_cutoff=1"],
    ["bound", "northcott", "x^2+1", "--set", "prime_cutoff=0"],
    ["bound", "northcott", "x^2+1", "--set", "prime_cutoff=-5"],
    ["bound", "northcott", "x^2+1", "--set", "prime_cutoff=1e400"],
    ["bound", "northcott", "x^2+1", "--set", "prime_cutoff=2.7"],
    ["zeros", "x^2+1", "--set", "scan_step=1e-9"],
], ids=["scan-nan", "scan-inf", "cutoff-1", "cutoff-0", "cutoff-neg", "cutoff-overflow",
        "cutoff-fraction", "scan-tiny"])
def test_bad_knob_value_exit_64(tmp_path, capsys, argv):
    """A scan_step outside [1e-4, 0.05], or a prime_cutoff that is not an
    integer >= 2, is a usage error, caught before any work, with nothing
    written."""
    out = tmp_path / "o"
    assert main(argv + ["--output-dir", str(out)]) == 64
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", [{"prime_cutoff": 2.7}, {"scan_step": 1e-9},
                                    {"scan_step": 9.9e-5}])
def test_run_config_refuses_fractional_cutoff_and_tiny_step(values):
    """2.7 is not a prime cutoff, and below 1e-4 the finest scan grid at
    T = 40 would pass 3.2e6 points."""
    with pytest.raises(UsageError):
        RunConfig(**values)


def test_integral_cutoff_spellings_accepted():
    assert load_config(None, {"prime_cutoff": "1e6"}).prime_cutoff == 10 ** 6
    assert load_config(None, {"prime_cutoff": "2.0"}).prime_cutoff == 2
    assert RunConfig(scan_step=1e-4).scan_step == 1e-4


@pytest.mark.parametrize("how", ["file", "set"])
def test_retired_numeric_knob_exit_64(tmp_path, capsys, how):
    """The evaluator's numerics are constants in zeta.py, not config keys:
    setting one, even to its own value, is an unknown key."""
    out = tmp_path / "o"
    if how == "file":
        cfg = tmp_path / "zh.conf"
        cfg.write_text("panel_order = 16\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--set", "bisect_tol=1e-9"]
    assert main(["zeros", "x^2+1", "--output-dir", str(out)] + extra) == 64
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_config_and_evaluator_numerics(tmp_path, capsys):
    """manifest.json records the four config keys; zero-summary.json still
    records the evaluator's fixed truncation and contour."""
    assert run_cli(["zeros", "x^2+1", "--height", "2"], tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest["config"]) == ["format", "output_dir",
                                          "prime_cutoff", "scan_step"]
    evaluator = json.loads((tmp_path / "zero-summary.json").read_text())["evaluator"]
    assert evaluator["weight_rel_tol"] == 1e-18
    assert evaluator["contour"] == {"step": 0.05, "halfwidth_log": 48.0}


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "zetaheights.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify-table1" in proc.stdout


def test_tower_override_file(tmp_path, capsys):
    # 11 splits in Q(sqrt(-7)) (-7 = 4^2 mod 11); force it inert at level 1
    override = tmp_path / "level2.json"
    override.write_text(json.dumps({"11": [[1, 2]]}))
    spec = tmp_path / "tower.json"
    spec.write_text(json.dumps({"levels": [
        {"poly": "x"},
        {"poly": "x^2+7", "override": "level2.json"},
    ]}))
    code = run_cli(["tower", str(spec), "--cutoff", "12"], tmp_path)
    assert code == 0
    rows = (tmp_path / "tower-ratios.csv").read_text().splitlines()[1:]
    ratios = {(level, q): float(v)
              for level, q, v in (r.split(",") for r in rows)}
    assert ratios[("0", "11")] == 1.0
    assert ratios[("1", "11")] == 0.0
    assert ratios[("1", "2")] == 1.0   # unforced primes keep their shape
    # the override covered that level's tables only, not the field itself
    import zetaheights
    K = zetaheights.build_number_field(zetaheights.parse_polynomial("x^2+7"))
    assert zetaheights.prime_splitting(K, 11).factors == ((1, 1), (1, 1))


def test_invariants_csv_exports(tmp_path, capsys):
    code = run_cli(["invariants", "x^2+1", "--format", "csv"], tmp_path)
    assert code == 0
    table = (tmp_path / "splitting.csv").read_text().splitlines()
    assert table[0] == "q,N_q"
    coeffs = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert coeffs[0] == "n,a_n"
    assert coeffs[1] == "1,1"


@pytest.mark.parametrize("spec,override", [
    ({"lvls": ["x", "x^2+1"]}, None),
    ([{"poly": 5}], None),
    ({"levels": ["x", {"poly": "x^2+7", "override": "ov.json"}]}, {"q": [[1, 2]]}),
    ({"levels": ["x", {"poly": "x^2+7", "override": "ov.json"}]}, {"11": [[1]]}),
    # the shape of 11 does not cover the degree: sum e*f = 1, not 2
    ({"levels": ["x", {"poly": "x^2+7", "override": "ov.json"}]}, {"11": [[1, 1]]}),
    ({"levels": ["x", {"poly": "x^2+7", "override": "."}]}, None),   # a directory
])
def test_tower_malformed_spec_exit_3(tmp_path, capsys, spec, override):
    (tmp_path / "tower.json").write_text(json.dumps(spec))
    if override is not None:
        (tmp_path / "ov.json").write_text(json.dumps(override))
    out = tmp_path / "out"
    assert main(["tower", str(tmp_path / "tower.json"), "--cutoff", "12",
                 "--output-dir", str(out)]) == 3
    assert not out.exists()
    assert "input error" in capsys.readouterr().err
