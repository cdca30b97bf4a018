"""CLI: spec parsing, report content, exit codes, determinism, file IO."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boolreg
from boolreg import BooleanFunction, constant, dictator, majority, parity, save_table, wht
from boolreg.boolfn import mask_vars
from boolreg.cli import main, parse_function_spec
from oracles import gather_parity, sorted_top_masks


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    return json.loads(out)


def test_analyze_maj3_influences(capsys):
    report = run_json(["analyze", "--fn", "maj:3", "--delta", "0.0"], capsys)
    assert report["noisy_influences"] == pytest.approx([0.5, 0.5, 0.5])
    assert report["mean"] == 0.0
    assert report["norm2"] == 1.0
    assert report["stability"]["0.5"] == pytest.approx(0.40625)


def test_analyze_stabilities_match_the_spectral_sums(capsys, tmp_path):
    # read from one degree profile, within 1e-12 of sum_S rho^|S| ghat(S)^2
    rng = np.random.default_rng(3)
    f = BooleanFunction(12, rng.uniform(-1.0, 1.0, 1 << 12), "real")
    path = tmp_path / "table.txt"
    save_table(f, str(path))
    report = run_json(["analyze", "--fn", f"file:{path}"], capsys)
    assert list(report["stability"]) == [f"0.{k}" for k in range(1, 10)]
    for rho, value in report["stability"].items():
        assert abs(value - boolreg.stability(wht(f), float(rho))) <= 1e-12


def test_analyze_dictator_top_coefficient(capsys):
    report = run_json(["analyze", "--fn", "dictator:1"], capsys)
    assert report["top_coefficients"][0] == {"vars": [1], "value": 1.0}


def test_analyze_parity_pair(capsys):
    report = run_json(["analyze", "--fn", "parity:1,2", "--delta", "0.5"], capsys)
    assert report["noisy_influences"] == pytest.approx([0.5, 0.5])


def test_decompose_dictator(capsys):
    report = run_json(
        ["decompose", "--fn", "dictator:1", "--eps", "0.5", "--delta", "0.5", "--gamma", "0.5"],
        capsys)
    assert report["depth"] == 1
    assert report["bad_mass"] == 0.0
    assert report["iterations"] == 1
    assert report["status"] == "ok"


def test_decompose_constant_depth_zero(capsys):
    report = run_json(
        ["decompose", "--fn", "constant:4,1", "--eps", "0.5", "--delta", "0.5", "--gamma", "0.5"],
        capsys)
    assert report["depth"] == 0
    assert report["iterations"] == 0


def test_decompose_homogeneous_maj3(capsys):
    report = run_json(
        ["decompose", "--hom", "--fn", "maj:3",
         "--eps", "0.4", "--delta", "0.1", "--gamma", "0.25"],
        capsys)
    assert report["homogeneous"] is True
    assert report["num_query_vars"] >= 1
    assert report["query_vars"]  # 1-based variable list
    assert report["status"] == "ok"


def test_decompose_budget_exceeded_exit_code(capsys):
    code, out, _ = run_cli(
        ["decompose", "--hom", "--var-cap", "0", "--fn", "dictator:1",
         "--eps", "0.5", "--delta", "0.5", "--gamma", "0.5"],
        capsys)
    assert code == 2
    assert json.loads(out)["status"] == "budget_exceeded"


def test_mist_maj3(capsys):
    report = run_json(["mist", "--fn", "maj:3", "--rho", "0.5"], capsys)
    assert report["slack"] == pytest.approx(0.0182291666, abs=1e-8)


def test_mist_constant_nonpositive_slack(capsys):
    report = run_json(["mist", "--fn", "constant:4,0.5", "--rho", "0.3"], capsys)
    assert report["slack"] <= 1e-9


def test_mist_trend_maj11_below_maj3(capsys):
    small = run_json(["mist", "--fn", "maj:3", "--rho", "0.5"], capsys)
    large = run_json(["mist", "--fn", "maj:11", "--rho", "0.5"], capsys)
    assert large["slack"] < small["slack"]


def test_mist_pipeline_flags(capsys):
    report = run_json(
        ["mist", "--fn", "maj:3", "--rho", "0.5",
         "--eps", "0.2", "--delta", "0.3", "--gamma", "0.25",
         "--q-eps", "0.6", "--q-delta", "0.5"],
        capsys)
    assert report["quasirandom_ok"] is True
    assert report["certified_bound"] >= report["stab"] - 1e-12


def test_mist_pipeline_incomplete_flags(capsys):
    code, _, err = run_cli(["mist", "--fn", "maj:3", "--rho", "0.5", "--eps", "0.2"], capsys)
    assert code == 1
    assert "pipeline" in err


def test_mist_checks_its_flags_before_building_the_function():
    # tribes:4,6 is a 2^24 table (128 MiB, 318 MiB at the peak of its build):
    # the incomplete pipeline flags end the run before it is built.  A child
    # forked from this process may start from its peak RSS, so the command
    # runs as a grandchild and its peak is read as the child's RUSAGE_CHILDREN
    code = ("import resource, subprocess, sys\n"
            "run = subprocess.run([sys.executable, '-m', 'boolreg', 'mist', '--fn', 'tribes:4,6',\n"
            "                      '--rho', '.5', '--eps', '.1'], capture_output=True, text=True)\n"
            "sys.stderr.write(run.stderr)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, run.stdout == '')\n"
            "sys.exit(run.returncode)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=60)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: pipeline mode needs all of --eps --delta --gamma --q-eps --q-delta\n"
    peak_kib, no_report = result.stdout.split()
    assert int(peak_kib) < 100 * 1024 and no_report == "True"


def test_var_cap_without_hom_is_a_usage_error(capsys):
    code, out, err = run_cli(["decompose", "--fn", "maj:3", "--eps", ".1", "--delta", ".3",
                              "--gamma", ".05", "--var-cap", "1"], capsys)
    assert (code, out, err) == (1, "", "error: --var-cap needs --hom\n")


def test_usage_error_unknown_function(capsys):
    code, _, err = run_cli(["analyze", "--fn", "nonsense:3"], capsys)
    assert code == 1
    assert "error" in err


def test_usage_error_bad_flag(capsys):
    code, _, _ = run_cli(["analyze", "--no-such-flag"], capsys)
    assert code == 1


def test_precondition_exit_code(capsys):
    code, _, _ = run_cli(["mist", "--fn", "maj:3", "--rho", "1.5"], capsys)
    assert code == 3


def test_real_valued_function_rejected_by_mist(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("n=1\n2.5\n-3\n")
    code, _, _ = run_cli(["mist", "--fn", f"file:{path}", "--rho", "0.5"], capsys)
    assert code == 3
    # incomplete pipeline flags are a usage error, found before the table is read
    code, _, err = run_cli(["mist", "--fn", f"file:{path}", "--rho", "0.5", "--eps", "0.1"], capsys)
    assert (code, err) == (1, "error: pipeline mode needs all of --eps --delta --gamma --q-eps --q-delta\n")


def test_mist_pipeline_takes_a_fractional_zero_one_table(capsys, tmp_path):
    # a leaf mean of 0 that its half-butterflies read as -2.8e-17
    path = tmp_path / "table.txt"
    path.write_text("n=3\n0\n0\n1\n0\n0\n1\n0.3\n0\n")
    report = run_json(["mist", "--fn", f"file:{path}", "--rho", "0.5", "--eps", "0.02", "--delta", "0.3",
                       "--gamma", "0.05", "--q-eps", "1", "--q-delta", "0.5"], capsys)
    assert report["quasirandom_ok"]
    assert report["certified_bound"] >= report["stab"] - 1e-12


def test_decompose_norm_precondition_exit_code(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("n=1\n2.5\n-3\n")  # E[f^2] > 1
    code, _, _ = run_cli(
        ["decompose", "--fn", f"file:{path}", "--eps", "0.5", "--delta", "0.5", "--gamma", "0.5"],
        capsys)
    assert code == 3


def test_tribes_validation(capsys):
    code, _, _ = run_cli(["analyze", "--fn", "tribes:0,3"], capsys)
    assert code == 1


def test_file_spec_roundtrip(capsys, tmp_path):
    path = tmp_path / "maj3.txt"
    save_table(majority(3), str(path))
    report = run_json(["analyze", "--fn", f"file:{path}", "--delta", "0.0"], capsys)
    assert report["noisy_influences"] == pytest.approx([0.5, 0.5, 0.5])


def test_missing_file(capsys):
    code, _, _ = run_cli(["analyze", "--fn", "file:/no/such/file"], capsys)
    assert code == 1


def test_table_with_extra_values_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("n=1\n1\n-1\n1\n1\n1\n", encoding="ascii")
    code, out, err = run_cli(["analyze", "--fn", f"file:{path}"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: bad function spec 'file:{path}': line 4 follows the last of the 2 values: '1'\n"


PIPELINE = ["mist", "--fn", "maj:3", "--rho", "0.5", "--eps", "0.2", "--delta", "0.3", "--gamma", "0.25"]


@pytest.mark.parametrize("args, message", [
    # eps * delta * gamma underflows to 0
    (["decompose", "--fn", "maj:3", "--eps", "1e-300", "--delta", "0.3", "--gamma", "1e-300"],
     "iteration budget 1/(eps*delta*gamma) must be finite"),
    (["decompose", "--fn", "maj:3", "--eps", "nan", "--delta", "0.3", "--gamma", "0.05"],
     "eps must be positive, got nan"),
    (PIPELINE + ["--q-eps", "nan", "--q-delta", "0.5"], "eps must be nonnegative, got nan"),
    (PIPELINE + ["--q-eps", "0.6", "--q-delta", "nan"], "delta must be positive, got nan"),
    # an infinite threshold is refused before any report could hold it
    (["decompose", "--fn", "maj:3", "--eps", "inf", "--delta", "0.3", "--gamma", "0.05"],
     "eps must be finite, got inf"),
    (PIPELINE + ["--q-eps", "inf", "--q-delta", "0.5"], "q_eps must be finite, got inf"),
], ids=["underflowing_budget", "nan_eps", "nan_q_eps", "nan_q_delta", "inf_eps", "inf_q_eps"])
def test_nonfinite_and_underflowing_flags_exit_3(args, message, capsys):
    assert run_cli(args, capsys) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("values, message", [
    (["1e308", "1e308"], "overflow encountered in add"),  # in the transform
    (["1", "1e308"], "overflow encountered in multiply"),  # in E[f^2]
])
def test_overflowing_table_exits_3_with_one_error_line(values, message, tmp_path):
    # a separate process, so that stderr is what a user sees: no numpy
    # warning lines before the error
    path = tmp_path / "table.txt"
    path.write_text("n=1\n" + "".join(v + "\n" for v in values), encoding="ascii")
    result = subprocess.run([sys.executable, "-m", "boolreg", "analyze", "--fn", f"file:{path}"],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == f"error: out of float64 range: {message}\n"


@pytest.mark.parametrize("q_delta", ["1e-310", "5e-324"])
def test_subnormal_q_delta_exits_3_with_one_error_line(q_delta):
    # 1/q_delta overflows to inf; a separate process, so that stderr is all
    # a user sees
    result = subprocess.run([sys.executable, "-m", "boolreg", *PIPELINE, "--q-eps", "0.6",
                             "--q-delta", q_delta], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == f"error: degree cap 1/delta must be finite, got delta = {float(q_delta)}\n"


def test_dot_output(capsys, tmp_path):
    path = tmp_path / "tree.dot"
    run_json(["decompose", "--fn", "dictator:1", "--eps", "0.5", "--delta", "0.5",
              "--gamma", "0.5", "--dot", str(path)], capsys)
    text = path.read_text()
    assert text.startswith("digraph")
    assert '"x1"' in text


def test_deterministic_output(capsys):
    args = ["analyze", "--fn", "random:6,99", "--delta", "0.2"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_pretty_flag(capsys):
    _, out, _ = run_cli(["analyze", "--fn", "maj:3", "--pretty"], capsys)
    assert out.count("\n") > 3
    json.loads(out)


def test_subprocess_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "boolreg", "mist", "--fn", "maj:3", "--rho", "0.5"],
        capture_output=True, text=True)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["slack"] == pytest.approx(0.0182291666, abs=1e-8)


@pytest.mark.parametrize("spec, n", [("parity:30", 30), ("random:30,1", 30), ("tribes:6,5", 30),
                                     ("constant:40,1", 40)])
def test_oversized_spec_is_refused_before_allocating(spec, n):
    # 2^30 doubles are 8 GiB: under a 2 GiB address-space cap, allocating
    # first would end in a MemoryError traceback
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "boolreg", "analyze", "--fn", spec], capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=cap_memory, timeout=60)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
    assert f"variable count must be in [1, 24], got {n}" in result.stderr


def test_closed_stdout_ends_quietly():
    # like `boolreg analyze ... | head -1`: the reader is gone before the
    # report is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "boolreg", "analyze", "--fn", "maj:13", "--pretty"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == ""


def test_internal_error_is_one_line():
    # a driver's internal-invariant guard raises RuntimeError
    script = ("import sys\n"
              "import boolreg.cli as cli\n"
              "def broken(f, p):\n"
              "    raise RuntimeError('internal error: energy exceeds bound')\n"
              "cli.decompose = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    result = subprocess.run(
        [sys.executable, "-c", script, "decompose", "--fn", "maj:3", "--eps", ".1",
         "--delta", ".3", "--gamma", ".1"], capture_output=True, text=True, timeout=60)
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr == "error: internal error: energy exceeds bound\n"


def test_out_of_memory_is_one_line():
    # 2^24-entry tables under a 512 MiB address-space cap
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    result = subprocess.run(
        [sys.executable, "-m", "boolreg", "analyze", "--fn", "constant:24,1"],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_memory, timeout=60)
    assert result.returncode == 4
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: out of memory: ")


def test_analyze_transforms_once(capsys, monkeypatch):
    import boolreg.cli
    import boolreg.noise

    calls = []
    transform = boolreg.cli.wht
    monkeypatch.setattr(boolreg.cli, "wht", lambda f: calls.append(f) or transform(f))
    monkeypatch.setattr(boolreg.noise, "_spectrum", None)  # all_noisy_influences would call it
    report = run_json(["analyze", "--fn", "maj:3", "--delta", "0.3"], capsys)
    assert len(calls) == 1
    assert report["noisy_influences"] == pytest.approx([0.25 + 0.7 ** 2 * 0.25] * 3)


def test_analyze_rejects_delta_before_transforming(capsys):
    code, out, err = run_cli(["analyze", "--fn", "maj:3", "--delta", "1.5"], capsys)
    assert code == 3 and out == ""
    assert err == "error: delta must lie in [0, 1], got 1.5\n"


def test_parse_function_spec_shapes():
    assert parse_function_spec("maj:3").n == 3
    assert parse_function_spec("tribes:2,3").n == 6
    assert parse_function_spec("random:5,1").n == 5
    f = parse_function_spec("parity:2,4")
    assert f.n == 4
    g = parse_function_spec("constant:3,0.25")
    assert g.range_tag == "zero_one"
    np.testing.assert_array_equal(g.values, np.full(8, 0.25))


def imported_modules(args, cwd):
    """Run ``python -X importtime`` with ``args``; the result and the names
    of the modules the run imported.  It runs in ``cwd``, on the package
    this test imported."""
    path = os.path.dirname(os.path.dirname(boolreg.__file__))
    result = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                            text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
             if line.startswith("import time:")}
    assert "boolreg.stablest" in names  # the trace covers the package
    return result, names


MIST_PIPELINE = ["mist", "--fn", "maj:5", "--rho", ".5", "--eps", ".2", "--delta", ".3", "--gamma", ".25",
                 "--q-eps", ".6", "--q-delta", ".5"]


@pytest.mark.parametrize("args", [
    ["-c", "import boolreg"],
    ["-m", "boolreg", "analyze", "--fn", "maj:3"],
    ["-m", "boolreg", "decompose", "--fn", "maj:5", "--eps", ".2", "--delta", ".3", "--gamma", ".25",
     "--hom", "--dot", "tree.dot"],
    ["-m", "boolreg", "analyze", "--fn", "file:table.txt"],
    ["-m", "boolreg", "mist", "--fn", "maj:3", "--rho", ".5"],
    ["-m", "boolreg", *MIST_PIPELINE],
], ids=["import", "analyze", "decompose", "analyze-file", "mist", "mist-pipeline"])
def test_commands_do_not_load_scipy(args, tmp_path):
    save_table(majority(5), str(tmp_path / "table.txt"))
    _, names = imported_modules(args, tmp_path)
    assert not [name for name in names if name.split(".")[0] == "scipy"]


def test_mist_loads_no_scipy(tmp_path):
    result, names = imported_modules(["-m", "boolreg", "mist", "--fn", "maj:3", "--rho", ".5"], tmp_path)
    assert not [name for name in names if name.split(".")[0] == "scipy"]
    assert result.stdout == ('{"function": "maj:3", "lambda": 0.33333333333333337, "mean": 0.5, '
                             '"rho": 0.5, "slack": 0.01822916666666663, "stab": 0.3515625}\n')


def test_mist_pipeline_runs_where_scipy_cannot_be_imported(capsys):
    # a None entry in sys.modules makes every import of scipy fail
    script = ("import sys; sys.modules['scipy'] = None; from boolreg.cli import main; "
              f"sys.exit(main({MIST_PIPELINE!r}))")
    path = os.path.dirname(os.path.dirname(boolreg.__file__))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == run_json(MIST_PIPELINE, capsys)


@st.composite
def tie_heavy_functions(draw):
    """Tables whose spectra repeat magnitudes: families, {0,1} tables, and
    real tables built from a few values or as weighted sums of parities."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["constant", "parity", "dictator", "majority", "zero_one", "few_values",
                                 "parity_sum"]))
    if kind == "constant":
        return constant(n, draw(st.sampled_from([0.0, 1.0, -1.0, 0.5, 3.0])))
    if kind == "parity":
        return parity(n, draw(st.lists(st.integers(0, n - 1), unique=True)))
    if kind == "dictator":
        return dictator(n, draw(st.integers(0, n - 1)))
    if kind == "majority":
        return majority(n - 1 + n % 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zero_one":
        return BooleanFunction(n, rng.choice([0.0, 1.0], size=1 << n))
    if kind == "few_values":
        entries = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=draw(st.integers(1, 3)))
        return BooleanFunction(n, rng.choice(entries, size=1 << n))
    masks = rng.choice(1 << n, size=min(1 << n, draw(st.integers(1, 40))), replace=False)
    return BooleanFunction(n, sum(rng.choice([-2.0, -1.0, 1.0, 2.0]) * gather_parity(n, int(mask))
                                  for mask in masks))


@settings(max_examples=150, deadline=None)
@given(tie_heavy_functions())
@example(constant(1, 0.0))
@example(parity(3, [0, 1, 2]))
@example(majority(3))
def test_top_coefficients_match_a_full_sort(f):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        save_table(f, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["analyze", "--fn", f"file:{path}"]) == 0
    coeffs = wht(f).coeffs
    expected = [{"vars": [v + 1 for v in mask_vars(mask)], "value": float(coeffs[mask])}
                for mask in sorted_top_masks(coeffs)]
    assert json.loads(out.getvalue())["top_coefficients"] == expected
