import json
import math
import subprocess
import sys

import pytest

from rankone.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_symmetric_example(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--sym", "--d", "10", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert float(data["lower"]) == pytest.approx(0.04419, abs=1e-4)
    assert float(data["upper"]) == pytest.approx(0.4024, abs=1e-3)


def test_bounds_general_shape(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--shape", "2,2,2")
    data = json.loads(out)
    assert code == 0
    assert float(data["lower"]) == pytest.approx(0.5)


def test_bounds_requires_problem(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "error" in err


def test_ratio_identity(capsys):
    code, out, _ = run_cli(capsys, "ratio", "--identity", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert float(data["ratio"]) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-9)
    assert data["converged"] is True


def test_ratio_random_needs_seed(capsys):
    code, _, err = run_cli(capsys, "ratio", "--random", "--model", "kostlan", "--d", "3", "--n", "2")
    assert code == 2


def test_ratio_from_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "sample", "--model", "kostlan", "--d", "3", "--n", "2", "--seed", "5"
    )
    assert code == 0
    p = tmp_path / "f.poly"
    p.write_text(out)
    code, out2, _ = run_cli(capsys, "ratio", "--in", str(p), "--starts", "8")
    assert code == 0
    data = json.loads(out2)
    assert 0.0 < float(data["ratio"]) <= 1.0 + 1e-9


def test_sample_deterministic(capsys):
    args = ("sample", "--model", "gaussian-tensor", "--shape", "2,2", "--seed", "3", "--count", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert out1.count("tensor shape=2,2") == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--model", "gaussian-tensor", "--shape", "2,2,2",
        "--samples", "20", "--seed", "7", "--starts", "6",
    )
    assert code == 0
    data = json.loads(out)
    assert all(c["passed"] for c in data["checks"])


def test_verify_needs_seed(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--model", "gaussian-tensor", "--shape", "2,2,2"
    )
    assert code == 2
    assert "seed" in err


def test_experiment_bw_l2(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--kind", "bw-l2", "--d", "2", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["title"].startswith("bw-l2-constant")


def test_experiment_tail_projection(capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment", "--kind", "tail", "--model", "projection",
        "--N", "10", "--k", "3", "--samples", "500", "--seed", "1",
        "--t-grid", "0.5,0.9",
    )
    assert code == 0


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 10\nn = 2\nfield = real\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "bounds", "--sym")
    assert code == 0
    assert json.loads(out)["problem"] == "symmetric d=10 n=2"
    # explicit flag wins over the file value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "bounds", "--sym", "--d", "4")
    assert json.loads(out)["problem"] == "symmetric d=4 n=2"


def test_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "bounds" in proc.stdout and "verify" in proc.stdout


def test_bad_flags_exit_two():
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "bounds", "--bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_stdout_deterministic_across_processes():
    args = [
        sys.executable, "-m", "rankone.cli", "verify", "--model", "kostlan",
        "--d", "3", "--n", "2", "--samples", "10", "--seed", "5", "--starts", "6",
    ]
    p1 = subprocess.run(args, capture_output=True, text=True)
    p2 = subprocess.run(args + ["--workers", "4"], capture_output=True, text=True)
    assert p1.returncode == 0
    assert p1.stdout == p2.stdout


@pytest.mark.parametrize(
    "text, argv",
    [
        ("tensor shape=2,2 field=real\n1.0\nnan\n0.5\n2.0\n", ()),
        ("poly n=2 d=2 field=real\n2,0: 1.0\n3,0: 1.0\n", ()),
        ("2,0:1.0\n0,2:1.0\n", ()),
        ("poly n=0 d=2 field=real\n", ()),
        ("", ("verify", "--model", "kostlan", "--n", "2", "--seed", "1")),
        ("", ("verify", "--model", "harmonic", "--n", "2", "--seed", "1")),
    ],
    ids=["nan-tensor", "out-of-degree-key", "no-header", "no-variables", "kostlan-no-d", "harmonic-no-d"],
)
def test_malformed_input_exits_two_with_one_line(tmp_path, text, argv):
    if not argv:
        path = tmp_path / "input.txt"
        path.write_text(text)
        argv = ("ratio", "--in", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
