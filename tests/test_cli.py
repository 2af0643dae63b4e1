"""Command-line interface tests: exit codes, schemas, determinism."""

import io
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rollgap import cli, genbal, rollwave

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "rollgap" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------


def test_gap_stdin_identity(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 0\n0 1\n"))
    code, out = run_cli(["gap", "-"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("gap_report.schema.json"))
    assert abs(doc["gap"]) < 1e-8


def test_gap_example_c4(tmp_path, capsys):
    out_path = tmp_path / "c4.json"
    code, _ = run_cli(["gap", "--example", "c4", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    jsonschema.validate(doc, load_schema("gap_report.schema.json"))
    assert doc["gap"] == pytest.approx(0.1, abs=0.02)
    manifest = json.loads((tmp_path / "c4.json.manifest.json").read_text())
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))


def test_gap_example_landscape_table(capsys):
    code, out = run_cli(["gap", "--example", "landscape2x2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,rho,closed_form"
    assert len(lines) == 722
    row = lines[361].split(",")  # theta = pi
    assert float(row[1]) == pytest.approx(2.0, abs=1e-9)


def test_gap_nonconvergence_exit_code(tmp_path, capsys):
    mat = tmp_path / "nilpotent.txt"
    mat.write_text("0 1\n0 0\n")
    code, out = run_cli(["gap", str(mat)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert not doc["converged_s"]


def test_gap_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    code, _ = run_cli(["gap", str(bad)], capsys)
    assert code == 1


def test_gap_json_matrix_input(tmp_path, capsys):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"entries": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}))
    code, out = run_cli(["gap", str(mat)], capsys)
    assert code == 0
    assert abs(json.loads(out)["gap"]) < 1e-6


def test_gap_determinism(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["gap", "--example", "c4", "--seed", "7", "--out", str(a)], capsys)
    run_cli(["gap", "--example", "c4", "--seed", "7", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_c4_undecided(capsys):
    code, out = run_cli(["certify", "--example", "c4"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("certificate.schema.json"))
    assert doc["kind"] == "undecided"
    assert doc["diagnostics"]["root_residual_floor"] > 0.01


def test_certify_diagonal_common_root(tmp_path, capsys):
    mat = tmp_path / "d.txt"
    mat.write_text("2 0\n0 1\n")
    code, out = run_cli(["certify", str(mat)], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("certificate.schema.json"))
    assert doc["kind"] == "common-root"


def test_certify_random_2x2_common_root(tmp_path, capsys):
    rng = np.random.default_rng(0)
    mat = tmp_path / "r.txt"
    a = rng.standard_normal((2, 2))
    mat.write_text("\n".join(" ".join(f"{v:.17g}" for v in row) for row in a))
    code, out = run_cli(["certify", str(mat)], capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "common-root"


# ---------------------------------------------------------------------------
# rollwave
# ---------------------------------------------------------------------------


def test_rollwave_index(capsys):
    code, out = run_cli(["rollwave", "index", "--froude", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("stability_report.schema.json"))
    assert doc["index"] < 1.0


def test_rollwave_threshold(capsys):
    code, out = run_cli(["rollwave", "threshold", "--froude", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("threshold_report.schema.json"))
    assert doc["threshold"] == pytest.approx(0.5, abs=1e-8)


def test_rollwave_profile_csv(capsys):
    code, out = run_cli(["rollwave", "profile", "--froude", "3",
                         "--n-grid", "200"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,h,U,alpha1,alpha2,gamma1,gamma2"
    assert len(lines) > 200


def test_rollwave_weights_csv(capsys):
    code, out = run_cli(["rollwave", "weights", "--froude", "3",
                         "--n-grid", "200"], capsys)
    assert code == 0
    head = out.strip().splitlines()[0].split(",")
    assert head[-2:] == ["Omega1", "Omega2"]


def test_rollwave_no_wave_exit_code(capsys):
    code, _ = run_cli(["rollwave", "profile", "--froude", "1.5"], capsys)
    assert code == 3


def test_rollwave_sweep_outputs(tmp_path, capsys):
    out = tmp_path / "idx.json"
    code, _ = run_cli(["rollwave", "index", "--froude", "2.5,3",
                       "--n-grid", "200", "--out", str(out)], capsys)
    assert code == 0
    for F in ("2.5", "3"):
        doc = json.loads((tmp_path / f"idx_F{F}.json").read_text())
        assert doc["index"] < 1.0


def test_rollwave_jobs_pool_is_capped(capsys, monkeypatch):
    # a fake pool records its size, so no worker process is started
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    argv = ["rollwave", "threshold", "--n-grid", "200", "--jobs", "1000"]
    assert run_cli(argv + ["--froude", "2.5,3,5"], capsys)[0] == 0
    assert run_cli(argv + ["--froude", "2.5,3,4,5,6,8"], capsys)[0] == 0
    assert run_cli(argv + ["--froude", "3"], capsys)[0] == 0
    assert sizes == [3, 4]
    code, _ = run_cli(["rollwave", "threshold", "--froude", "3", "--jobs", "0"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_stable_run(tmp_path, capsys):
    prefix = str(tmp_path / "sim")
    code, _ = run_cli(["simulate", "--froude", "3", "--n", "128",
                       "--t-end", "30", "--seed", "1",
                       "--out-prefix", prefix], capsys)
    assert code == 0
    doc = json.loads((tmp_path / "sim_decay.json").read_text())
    jsonschema.validate(doc, load_schema("decay_report.schema.json"))
    assert doc["theta_fit"] > 0
    lines = (tmp_path / "sim_trajectory.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t,L2,H1,E,y")
    assert len(lines) > 100


def test_simulate_growth_flag(capsys):
    code, out = run_cli(["simulate", "--froude", "3", "--n", "128",
                         "--t-end", "10", "--seed", "2",
                         "--perturb-a0", "10"], capsys)
    doc = json.loads(out)
    assert doc["growth_flagged"]


def test_simulate_determinism(tmp_path, capsys):
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    for p in (p1, p2):
        run_cli(["simulate", "--froude", "3", "--n", "128", "--t-end", "10",
                 "--seed", "5", "--out-prefix", p], capsys)
    assert Path(p1 + "_trajectory.csv").read_bytes() == \
        Path(p2 + "_trajectory.csv").read_bytes()
    assert Path(p1 + "_decay.json").read_bytes() == \
        Path(p2 + "_decay.json").read_bytes()


# ---------------------------------------------------------------------------
# stats and general
# ---------------------------------------------------------------------------


def test_stats_small_ensemble(capsys):
    code, out = run_cli(["stats", "--n", "3", "--ensemble", "complex-gaussian",
                         "--count", "5", "--seed", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema("stats_report.schema.json"))
    assert doc["max_rel_gap"] < 1e-3


def test_general_from_sv_profile(tmp_path, capsys):
    p = rollwave.build_profile(3.0, n_grid=400)
    cd = rollwave.characteristics(p)
    rep = rollwave.stability_index(p, cd)
    d = genbal.from_sv_profile(p, cd)
    doc = {
        "n": d.n, "m": d.m, "tau": d.tau.tolist(), "g": d.g.tolist(),
        "C": d.coupling.tolist(),
        "sonic": {"alpha_prime": d.sonic_alpha_prime, "gamma": d.sonic_gamma},
    }
    path = tmp_path / "sv2.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["general", "--input", str(path)], capsys)
    assert code == 0
    result = json.loads(out)
    jsonschema.validate(result, load_schema("general_report.schema.json"))
    assert abs(abs(result["boundary_matrix"][0][0]) - rep.index) < 1e-8


def test_general_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["general", "--input", str(bad)], capsys)
    assert code == 1
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 3}))
    code, _ = run_cli(["general", "--input", str(missing)], capsys)
    assert code == 1


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("count=4\nensemble=real-gaussian\n")
    code, out = run_cli(["--config", str(cfgfile), "stats", "--n", "2",
                         "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["ensemble"] == "real-gaussian"
    # explicit flags beat the config file
    code, out = run_cli(["--config", str(cfgfile), "stats", "--n", "2",
                         "--count", "2", "--seed", "3"], capsys)
    assert json.loads(out)["count"] == 2
