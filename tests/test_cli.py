import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rankone import experiments
from rankone.cli import _apply_config_file, _build_parser, main
from rankone.experiments import MODELS


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


@pytest.mark.parametrize(
    "model",
    [
        ("kostlan", "--d", "3", "--n", "2"),
        ("kostlan-multi", "--ds", "2,1", "--ns", "2,3", "--field", "complex"),
        ("gaussian-tensor", "--shape", "2,3,2"),
    ],
    ids=["kostlan", "kostlan-multi", "gaussian-tensor"],
)
def test_ratio_from_file(capsys, tmp_path, model):
    # a sample written by ``sample`` and read back by ``ratio --in`` gives
    # what ``ratio --random`` gives for the same draw
    draw = ("--model", *model, "--seed", "5")
    code, out, _ = run_cli(capsys, "sample", *draw)
    assert code == 0
    p = tmp_path / "sample.txt"
    p.write_text(out)
    code, out2, _ = run_cli(capsys, "ratio", "--in", str(p), "--starts", "8", "--seed", "5")
    assert code == 0
    data = json.loads(out2)
    assert 0.0 < float(data["ratio"]) <= 1.0 + 1e-9
    code, out3, _ = run_cli(capsys, "ratio", "--random", *draw, "--starts", "8")
    assert code == 0 and out3 == out2


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


def test_config_hash_starts_a_comment_only_after_whitespace(tmp_path):
    parser, subparsers = _build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# note\n  # indented note\nout = run#1.json\nsamples = 5  # five\nseed = 7\t# tab\n"
    )
    _apply_config_file(subparsers, ["--config", str(cfg), "verify"])
    args = parser.parse_args(["verify"])
    assert (args.out, args.samples, args.seed) == ("run#1.json", 5, 7)


@pytest.mark.parametrize(
    "text, problem", [("false", "general 2x2x2"), ("true", "symmetric d=4 n=2")]
)
def test_config_switches_read_true_or_false(capsys, tmp_path, text, problem):
    cfg = tmp_path / "run.cfg"
    # a key of another subcommand (samples) is allowed
    cfg.write_text(f"sym = {text}\npartial = false\nd = 4\nn = 2\nsamples = 5\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "bounds", "--shape", "2,2,2")
    assert code == 0
    assert json.loads(out)["problem"] == problem


def test_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "bounds" in proc.stdout and "verify" in proc.stdout


def test_experiment_help_tells_dim_from_n():
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", "experiment", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ")
    assert "[--N DIM]" in proc.stdout and "[--n N]" in proc.stdout


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


def test_tensor_report_identical_across_workers():
    # 32 samples: two chunks, one per worker
    args = [
        sys.executable, "-m", "rankone.cli", "verify", "--model", "gaussian-tensor",
        "--shape", "3,3,3", "--samples", "32", "--seed", "7", "--starts", "6",
    ]  # fmt: skip
    p1 = subprocess.run(args + ["--workers", "1"], capture_output=True)
    p2 = subprocess.run(args + ["--workers", "2"], capture_output=True)
    assert p1.returncode == 0 and p2.returncode == 0
    assert b"per-sample-ratio-ge-lower" in p1.stdout
    assert p1.stdout == p2.stdout


@pytest.mark.parametrize(
    "model_args",
    [
        ["--model", "harmonic", "--d", "6", "--n", "3"],
        ["--model", "kostlan-multi", "--ds", "2,3", "--ns", "2,2", "--field", "complex"],
    ],
    ids=["harmonic", "kostlan-multi-complex"],
)
def test_form_reports_identical_across_workers(model_args):
    # 35 samples: two full chunks of 16 and a short one, so three tasks
    args = [
        sys.executable, "-m", "rankone.cli", "verify", *model_args,
        "--samples", "35", "--seed", "5", "--starts", "6",
    ]  # fmt: skip
    outs = [subprocess.run(args + ["--workers", w], capture_output=True) for w in "123"]
    assert all(p.returncode == 0 for p in outs)
    assert len(json.loads(outs[0].stdout)["stats"][0]["records"]) == 35
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout


_KOSTLAN = ["verify", "--model", "kostlan", "--d", "4", "--n", "2", "--samples", "20", "--seed", "1"]
_MULTI = [
    "verify", "--model", "kostlan-multi", "--ds", "2,3", "--ns", "2,2",
    "--samples", "20", "--seed", "1", "--starts", "4",
]  # fmt: skip


@pytest.mark.parametrize(
    "argv, module, loaded",
    [
        # scipy: neither the import nor runs that build a harmonic basis and
        # the sphere Gram matrix
        ([], "scipy", False),
        (["verify", "--model", "harmonic", "--d", "6", "--n", "3", "--samples", "2", "--seed", "1"], "scipy", False),
        (["experiment", "--kind", "bw-l2", "--d", "4", "--n", "3"], "scipy", False),
        # concurrent.futures and multiprocessing: not the import nor a
        # verification, whose two workers (20 samples are two tasks) are
        # forked children
        ([], "concurrent.futures", False),
        ([*_KOSTLAN, "--workers", "1"], "concurrent.futures", False),
        ([*_KOSTLAN, "--workers", "2"], "concurrent.futures", False),
        ([*_KOSTLAN, "--workers", "2"], "multiprocessing", False),
        # numpy.ma: not the quantiles of a JSON verification, in the process
        # that computes them, with one worker or two
        ([*_KOSTLAN, "--workers", "1"], "numpy.ma", False),
        ([*_KOSTLAN, "--workers", "2"], "numpy.ma", False),
        # hashlib and csv: not a two-worker parent that draws no sample (a
        # multi-form has no check (d)) and renders JSON
        ([*_MULTI, "--workers", "2"], "hashlib", False),
        ([*_MULTI, "--workers", "2"], "csv", False),
        ([*_MULTI, "--workers", "2", "--format", "csv"], "csv", True),
    ],
    ids=[
        "import-scipy",
        "harmonic-scipy",
        "bw-l2-scipy",
        "import-pool",
        "one-worker-pool",
        "two-workers-pool",
        "two-workers-multiprocessing",
        "one-worker-numpy.ma",
        "two-workers-numpy.ma",
        "multi-two-workers-hashlib",
        "multi-two-workers-csv",
        "multi-csv-report-csv",
    ],
)
def test_fresh_interpreter_loads_only_what_it_uses(argv, module, loaded):
    # whether ``module`` or a submodule of it is loaded after the import and,
    # with argv, one in-process run, in a fresh interpreter
    code = (
        "import contextlib, io, sys\n"
        "from rankone.cli import main\n"
        "module, argv = sys.argv[1], sys.argv[2:]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(argv) if argv else 0\n"
        "print(code, any(m == module or m.startswith(module + '.') for m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, module, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"0 {loaded}", argv


def test_script_entry_matches_in_process_main(capsys):
    # the script entry freezes the import-time heap before the command runs;
    # its report is the one an in-process call writes, and an in-process
    # call, which does not own the process, freezes nothing
    argv = ["verify", "--model", "kostlan", "--d", "3", "--n", "2", "--samples", "20", "--seed", "5", "--starts", "6"]
    script = "import sys; from rankone.cli import main; sys.exit(main())"
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True)
    frozen = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == frozen
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out.encode()


def test_script_entry_freezes_the_heap():
    code = (
        "import contextlib, gc, io, sys\n"
        "from rankone.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main()\n"
        "print(code, gc.get_freeze_count() > 0)\n"
    )
    argv = ["bounds", "--sym", "--d", "10", "--n", "2"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 True"


@pytest.mark.parametrize(
    "text, argv",
    [
        ("tensor shape=2,2 field=real\n1.0\nnan\n0.5\n2.0\n", ()),
        ("poly n=2 d=2 field=real\n2,0: 1.0\n3,0: 1.0\n", ()),
        ("2,0:1.0\n0,2:1.0\n", ()),
        ("poly n=0 d=2 field=real\n", ()),
        ("", ("verify", "--model", "kostlan", "--n", "2", "--seed", "1")),
        ("", ("verify", "--model", "harmonic", "--n", "2", "--seed", "1")),
        ("tensor shape=2,-1 field=real\n1.0\n2.0\n3.0\n4.0\n", ()),
        ("poly n=1500 d=1 field=real\n", ()),
        ("", ("sample", "--model", "kostlan", "--seed", "1")),
        ("", ("sample", "--model", "gaussian-tensor", "--seed", "1")),
        ("", ("bounds", "--sym", "--d", "3")),
        ("", ("bounds", "--partial", "--ds", "2,3")),
        ("", ("--config", "{path}.missing", "bounds", "--sym")),
        ("d = abc\nn = 2\n", ("--config", "{path}", "bounds", "--sym")),
        ("shape = 2,x\n", ("--config", "{path}", "bounds", "--shape", "2,2,2")),
        ("n = 2\nd\n", ("--config", "{path}", "bounds", "--sym")),
        ("poly n=1000 d=6 field=real\n", ()),
        ("multipoly ns=100,100 ds=5,5 field=real\n", ()),
        ("", ("sample", "--model", "kostlan", "--d", "40", "--n", "20", "--seed", "1")),
        ("", ("ratio", "--identity", "--n", "0")),
        ("", ("sample", "--model", "harmonic", "--d", "5", "--n", "20", "--seed", "1")),
        ("", ("experiment", "--kind", "tail", "--model", "kostlan", "--d", "0", "--n", "2", "--seed", "1")),
        ("", ("experiment", "--kind", "tail", "--t-grid", "abc")),
        ("", ("verify", "--model", "kostlan", "--bogus")),
        ("poly n=2 d=3 field=real\n3,0: 1\n3,0: 2\n", ()),
        ("tensor shape=2,2 field=real\n1.0\n2.0\n3.0\n", ()),
        # shapes whose bytes exceed the address space, so nothing is allocated
        ("", ("sample", "--model", "gaussian-tensor", "--shape", "1000000,1000000,1000000", "--seed", "0")),
        ("", ("sample", "--model", "rank-one", "--shape", "100000,100000,100000", "--seed", "0")),
        ("tensor shape=4294967296,4294967297 field=real\n1.0\n", ()),
        ("tensor shape=4294967296,4294967296 field=real\n", ()),
    ],
    ids=[
        "nan-tensor", "out-of-degree-key", "no-header", "no-variables", "kostlan-no-d",
        "harmonic-no-d", "negative-dimension", "many-variables", "sample-kostlan-no-d",
        "sample-tensor-no-shape", "bounds-sym-no-n", "bounds-partial-no-ns",
        "config-missing-file", "config-bad-int", "config-bad-shape", "config-no-equals",
        "poly-over-budget", "multipoly-over-budget", "sample-over-budget", "identity-n-zero",
        "harmonic-over-basis-budget", "tail-kostlan-d-zero", "t-grid-not-floats", "unknown-flag",
        "repeated-monomial", "short-tensor", "tensor-over-budget", "rank-one-over-budget",
        "tensor-count-past-2-64", "tensor-count-2-64",
    ],
)
def test_malformed_input_exits_two_with_one_line(tmp_path, text, argv):
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = tuple(a.replace("{path}", str(path)) for a in argv) or ("ratio", "--in", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "rankone.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("experiment", "--kind", "tail", "--t-grid", "abc"), "comma-separated numbers"),
        (("bounds", "--shape", "2,x"), "comma-separated integers"),
        (("bounds", "--partial", "--ds", "a", "--ns", "2"), "comma-separated integers"),
        (("bounds", "--partial", "--ds", "2", "--ns", "2,"), "comma-separated integers"),
        (("experiment", "--kind", "trend", "--n", "2", "--d-grid", "3,,4"), "comma-separated integers"),
        (("--config", "{path}", "bounds", "--sym"), "bad shape value '2,x'"),
    ],
    ids=["t-grid", "shape", "ds", "ns", "d-grid", "config-shape"],
)
def test_bad_list_value_names_the_expected_format(capsys, tmp_path, argv, expected):
    path = tmp_path / "config.txt"
    path.write_text("shape = 2,x\n")
    try:
        code = main([a.replace("{path}", str(path)) for a in argv])
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert expected in out.err
    assert "_floats" not in out.err and "_ints" not in out.err


# each list flag, the command around it and whether it takes floats; the
# commands would run if the value parsed
_LIST_FLAGS = {
    "--shape": (("bounds",), False),
    "--ds": (("bounds", "--partial", "--ns", "2,2"), False),
    "--ns": (("bounds", "--partial", "--ds", "2,3"), False),
    "--t-grid": (
        ("experiment", "--kind", "tail", "--model", "kostlan", "--d", "3", "--n", "2",
         "--samples", "100", "--starts", "1", "--seed", "1"),
        True,
    ),
    "--d-grid": (
        ("experiment", "--kind", "trend", "--n", "2", "--samples", "2", "--seed", "1"), False
    ),
}  # fmt: skip
# parts that no list flag accepts: empty (stray commas), letters, bare or
# doubled signs, and values that overflow to inf or are not finite
_BAD_PARTS = st.one_of(
    st.just(""),
    st.text(alphabet="abexyz", min_size=1, max_size=4),
    st.sampled_from(["+", "-", "+-2", "--3", "3-", "1e999", "-1e999", "nan", "inf"]),
)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    st.sampled_from(sorted(_LIST_FLAGS)),
    st.lists(st.sampled_from(["2", "3"]), max_size=2),
    _BAD_PARTS,
    st.lists(st.sampled_from(["2", "3"]), max_size=2),
)
@example("--t-grid", ["2"], "1e999", [])
@example("--t-grid", [], "nan", ["3"])
@example("--shape", ["2", "2"], "", [])
@example("--ds", [], "+-2", ["3"])
@example("--ns", ["2"], "1e999", [])
@example("--d-grid", ["3"], "abc", ["3"])
def test_malformed_list_values_exit_two_with_one_line(flag, head, bad, tail):
    command, floats = _LIST_FLAGS[flag]
    parts = head + [bad] + tail
    if floats:
        parts = [p + ".5" if p in ("2", "3") else p for p in parts]
    argv = [*command, f"{flag}={','.join(parts)}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    assert code == 2, argv
    assert out.getvalue() == ""
    text = err.getvalue()
    assert text.startswith(f"error: argument {flag}: ") and text.count("\n") == 1
    assert "Traceback" not in text


def _run_in_process(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify --model kostlan --d 3 --n 2 --seed 1 --workers 0",
         "argument --workers: need workers >= 1, got 0"),
        ("verify --model kostlan --d 3 --n 2 --seed 1 --workers -2",
         "argument --workers: need workers >= 1, got -2"),
        ("sample --model kostlan --d 3 --n 2 --seed 1 --count 0",
         "argument --count: need count >= 1, got 0"),
        ("sample --model kostlan --d 3 --n 2 --seed 1 --count -1",
         "argument --count: need count >= 1, got -1"),
        ("experiment --kind bw-l2 --d -1 --n 2", "need d >= 0, got -1"),
        ("verify --model kostlan --d 3 --n 2 --seed -1", "argument --seed: need seed >= 0, got -1"),
        ("sample --model kostlan --d 3 --n 2 --seed 1 --count 2.5",
         "argument --count: expected an integer, got '2.5'"),
    ],
    ids=[
        "workers-0", "workers-minus-2", "count-0", "count-minus-1", "bw-l2-d", "seed",
        "count-float",
    ],
)  # fmt: skip
def test_bad_scalar_value_names_the_flag(argv, message):
    assert _run_in_process(argv.split()) == (2, "", f"error: {message}\n")


def test_worker_error_is_one_error_line(monkeypatch):
    # a ValueError raised in a forked worker's task exits 2 as it would in
    # process, and leaves no child behind
    def fail(args):
        raise ValueError(f"no sample {args[-1][0]}")

    monkeypatch.setattr(experiments, "_ratio_records", fail)
    argv = [*_KOSTLAN, "--workers", "2"]
    assert _run_in_process(argv) == (2, "", "error: no sample 0\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# each scalar flag: a command that runs when the flag's value is good, the
# parameter an error must name and the least good value; --workers is drawn
# in 0..2 only, so no test can ask for many processes
_VERIFY = ("verify", "--model", "kostlan", "--d", "3", "--n", "2", "--seed", "1", "--starts", "1")
_SCALAR_FLAGS = {
    "--samples": (_VERIFY, "samples", 1),
    "--starts": (_VERIFY[:-2] + ("--samples", "2"), "starts", 1),
    "--seed": (_VERIFY[:-4] + ("--starts", "1", "--samples", "2"), "seed", 0),
    "--count": (
        ("sample", "--model", "kostlan", "--d", "3", "--n", "2", "--seed", "1"), "count", 1
    ),
    "--d": (("experiment", "--kind", "bw-l2", "--n", "2"), "d", 1),
    "--n": (("experiment", "--kind", "bw-l2", "--d", "2"), "n", 2),
    "--k": (
        ("experiment", "--kind", "tail", "--model", "projection", "--N", "10", "--seed", "1"),
        "k", 1,
    ),
    "--N": (
        ("experiment", "--kind", "tail", "--model", "projection", "--k", "3", "--seed", "1"),
        "N", 3,
    ),
    "--workers": (_VERIFY + ("--samples", "2"), "workers", 1),
}  # fmt: skip
# values that no integer flag takes: empty, letters, fractions, bare or
# doubled signs, exponents and hex
_NOT_INTEGERS = st.one_of(
    st.text(alphabet="abexyz", max_size=4),
    st.sampled_from(["1.5", "-0.5", "+", "-", "+-2", "--3", "3-", "1e3", "0x10", "nan", "inf"]),
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(sorted(_SCALAR_FLAGS)), st.integers(0, 2))
def test_bad_scalar_values_exit_two_with_one_line(data, flag, workers):
    command, name, least = _SCALAR_FLAGS[flag]
    if flag == "--workers":
        bad = data.draw(st.one_of(st.just("0"), _NOT_INTEGERS))
    else:
        below = st.integers(-(10**12), least - 1).map(str)
        bad = data.draw(st.one_of(below, _NOT_INTEGERS))
    argv, names = [*command, f"{flag}={bad}"], [name]
    if flag != "--workers" and command[0] in ("verify", "experiment"):
        argv += ["--workers", str(workers)]
        names += ["workers"] if workers == 0 else []  # two bad flags: either may be named
    code, out, err = _run_in_process(argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert any(re.search(rf"\b{n}\b", err) for n in names), err


# config keys that convert their value, each with values it refuses
_TEXT = st.text(alphabet="abexyz", max_size=4)
_CONFIG_BAD_VALUES = {
    **dict.fromkeys(["d", "n", "N", "k"], _NOT_INTEGERS),
    **dict.fromkeys(
        ["samples", "starts", "count", "workers"],
        st.one_of(st.sampled_from(["0", "-1"]), _NOT_INTEGERS),
    ),
    "seed": st.one_of(st.just("-1"), _NOT_INTEGERS),
    **dict.fromkeys(
        ["shape", "ds", "ns", "d-grid"], st.sampled_from(["", "2,x", "2,,3", "2.5", "+-2"])
    ),
    "t-grid": st.sampled_from(["", "nan", "0.5,inf", "0.5,abc", "1e999"]),
    **dict.fromkeys(["field", "model", "kind", "format"], _TEXT),
}
_SWITCHES = ["sym", "partial", "large-d", "identity", "random"]
_FLAGS = {
    s for sp in _build_parser()[1].values() for a in sp._actions for s in a.option_strings
} - {"-h", "--help"}
_BAD_CONFIG_LINES = st.one_of(
    st.sampled_from(sorted(_CONFIG_BAD_VALUES)).flatmap(
        lambda key: _CONFIG_BAD_VALUES[key].map(lambda value: f"{key} = {value}")
    ),
    st.tuples(
        st.sampled_from(_SWITCHES),
        st.one_of(_TEXT, st.sampled_from(["True", "FALSE", "1", "0", "yes", "no", "on"])),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.one_of(
        st.sampled_from(["help", "config", "h", "infile", "command", "smaples"]),
        st.text(alphabet="abdknsxz_-", min_size=1, max_size=8).filter(
            lambda key: "--" + key.replace("_", "-") not in _FLAGS
        ),
    ).map(lambda key: f"{key} = 5"),
    st.text(alphabet="abdnxz _-,.12", min_size=1, max_size=10).filter(str.strip),
)
_GOOD_CONFIG_LINES = st.sampled_from(
    ["field = real", "samples = 5", "seed = 3", "sym = false", "large-d = true", "# note", ""]
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.lists(_GOOD_CONFIG_LINES, max_size=3),
    _BAD_CONFIG_LINES,
    st.lists(_GOOD_CONFIG_LINES, max_size=2),
)
@example([], "sym = maybe", [])
@example(["d = 4"], "partial = no", [])
@example(["d = 4", ""], "smaples = 5", [])
@example([], "help = true", [])
@example([], "config = other.cfg", [])
@example(["n = 2"], "d", ["sym = true"])
def test_malformed_config_lines_exit_two_with_one_line(head, bad, tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text("\n".join([*head, bad, *tail]) + "\n")
        code, out, err = _run_in_process(["--config", str(path), "bounds", "--shape", "2,2,2"])
    assert code == 2, bad
    assert out == ""
    assert err.startswith(f"error: {path} line {len(head) + 1}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    key, eq, value = (part.strip() for part in bad.partition("="))
    if eq:
        assert err.endswith((f"bad {key} value {value!r}\n", f"unknown key {key!r}\n")), err


# smallest flag values that every model of the table accepts
_MINIMAL_FLAGS = {
    "shape": "2,2,2", "d": "3", "n": "2", "ds": "2,3", "ns": "2,2", "N": "10", "k": "3",
}  # fmt: skip


def _minimal_flags(model):
    params = [k for k in MODELS[model].params if k != "field"]
    return [f for k in params for f in ("--" + k, _MINIMAL_FLAGS[k])]


def test_model_choices_are_the_table():
    _, subparsers = _build_parser()
    expected = [name.replace("_", "-") for name in MODELS]
    for command in ("sample", "ratio", "verify", "experiment"):
        (action,) = [a for a in subparsers[command]._actions if a.dest == "model"]
        assert list(action.choices) == expected, command
    assert not [a for a in subparsers["bounds"]._actions if a.dest == "model"]


@pytest.mark.parametrize("model", [m for m, spec in MODELS.items() if spec.sampler])
def test_every_sampler_model_samples(capsys, model):
    flags = _minimal_flags(model)
    code, out, err = run_cli(
        capsys, "sample", "--model", model.replace("_", "-"), *flags, "--seed", "1"
    )
    assert code == 0, err
    assert out.split(None, 1)[0] in ("tensor", "poly", "multipoly")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            "verify --model projection --seed 1",
            "verify cannot serve --model projection: it has no bound set",
        ),
        (
            "verify --model multi-harmonic --ds 2,3 --ns 2,2 --seed 1",
            "verify cannot serve --model multi-harmonic: it has no bound set",
        ),
        (
            "sample --model projection --seed 1",
            "sample cannot serve --model projection: it has no sampler",
        ),
        (
            "ratio --random --model projection --seed 1",
            "ratio --random cannot serve --model projection: it has no sampler",
        ),
        (
            "experiment --kind tail --model multi-harmonic --ds 2,3 --ns 2,2 --seed 1",
            "experiment --kind tail cannot serve --model multi-harmonic: it has no tail",
        ),
        (
            "experiment --kind tail --model rank-one --shape 2,2,2 --seed 1",
            "experiment --kind tail cannot serve --model rank-one: it has no tail",
        ),
        (
            "experiment --kind tail --model identity --n 3 --seed 1",
            "experiment --kind tail cannot serve --model identity: it has no tail",
        ),
    ],
    ids=[
        "verify-projection", "verify-multi-harmonic", "sample-projection", "ratio-projection",
        "tail-multi-harmonic", "tail-rank-one", "tail-identity",
    ],
)
def test_command_that_cannot_serve_a_model_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("model", [m for m, spec in MODELS.items() if spec.tail])
def test_every_tail_model_runs_the_tail_experiment(capsys, model):
    code, out, err = run_cli(
        capsys, "experiment", "--kind", "tail", "--model", model.replace("_", "-"),
        *_minimal_flags(model), "--seed", "1", "--samples", "100", "--starts", "2",
    )  # fmt: skip
    assert code == 0, err
    assert json.loads(out)["title"] == f"tail {model}"


def test_readme_model_table_is_the_table():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| model | flags |"))
    header = [cell.strip() for cell in lines[start].split("|")[1:-1]]
    assert header[2:] == ["`sample`, `ratio --random`", "`verify`", "`experiment --kind tail`"]
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        name, flags, *cells = (cell.strip() for cell in line.split("|")[1:-1])
        rows[name.split("`")[1].replace("-", "_")] = (flags.strip("`").split(), cells)
    assert list(rows) == list(MODELS)
    for name, (flags, cells) in rows.items():
        spec = MODELS[name]
        assert flags == ["--" + p for p in spec.params], name
        parts = (spec.sampler, spec.bound_set, spec.tail)
        assert cells == ["no" if part is None else "yes" for part in parts], name
