"""Property tests of the CLI run in-process on generated input: function
specs, numeric flags and table files.  Every run ends in a documented exit
code; a failure writes one ``error:`` line and nothing on stdout, a success
writes strict JSON and nothing on stderr, and a table file is read exactly
when it is well formed."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolreg.cli import main

NUMBERS = ["nan", "inf", "-inf", "1e-300", "1e-310", "5e-324", "-1", "-0.5", "0", "1", "0.3", "0.5", "x"]
# small arities only: every valid spec has at most 9 variables
SPEC_ARGS = st.lists(st.sampled_from(["", "0", "1", "2", "3", "-1", "2.5", "x", "25", "1e3"]),
                     max_size=3).map(",".join)
SPECS = st.one_of(
    st.sampled_from(["maj:3", "maj:5", "tribes:2,3", "parity:1,3", "dictator:2", "random:4,1",
                     "constant:3,1", "constant:2,0.5"]),
    st.builds("{}:{}".format,
              st.sampled_from(["maj", "parity", "dictator", "tribes", "random", "constant", "bogus", ""]),
              SPEC_ARGS),
    # no digits (of any script), so that no large arity slips in; no files
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=12)
      .filter(lambda s: not s.startswith("file:")),
)

TABLE_LINES = ["1", "-1", "0", "0.5", " 1 ", "1e308", "nan", "inf", "x", "", "é", "١"]


@st.composite
def tables(draw):
    """The text of a table file: a header, some values, and what follows."""
    header = draw(st.sampled_from(["n=1", "n=2", "n=3", "n=0", "n=25", "n=x", "k=1", ""]))
    values = draw(st.lists(st.sampled_from(TABLE_LINES), max_size=10))
    tail = draw(st.lists(st.sampled_from(["", "  ", "1", "junk"]), max_size=2))
    return "".join(line + "\n" for line in [header, *values, *tail])


def well_formed(text: str) -> bool:
    """Header n=k with 1 <= k <= 24, exactly 2^k finite values, then only
    blank lines, all in ASCII."""
    if not text.isascii():
        return False
    header, *lines = text.split("\n")[:-1]
    if not (header.startswith("n=") and header[2:].isdigit() and 1 <= int(header[2:]) <= 24):
        return False
    size = 1 << int(header[2:])
    if len(lines) < size or any(line.strip() for line in lines[size:]):
        return False
    try:
        return all(math.isfinite(float(line)) for line in lines[:size])
    except ValueError:
        return False


FLAGS = {
    "analyze": ["--delta"],
    "decompose": ["--eps", "--delta", "--gamma"],
    "mist": ["--rho", "--eps", "--delta", "--gamma", "--q-eps", "--q-delta"],  # the pipeline
}


@st.composite
def commands(draw):
    """An argv: a command, a spec and the command's flags, each with a
    drawn value, sometimes one of them left out."""
    name = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[name]
    if name == "mist" and draw(st.booleans()):
        flags = ["--rho"]  # the slack report alone
    left_out = draw(st.sets(st.sampled_from(flags), max_size=1))
    argv = [name, "--fn", draw(SPECS)]
    for flag in flags:
        if flag not in left_out:
            argv += [flag, draw(st.sampled_from(NUMBERS))]
    if name == "decompose":
        argv += draw(st.sampled_from([[], ["--hom"], ["--hom", "--var-cap", "0"],
                                      ["--hom", "--var-cap", "1"], ["--var-cap", "-1"]]))
    return argv + draw(st.sampled_from([[], ["--pretty"]]))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def check_run(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err
    if out:
        report = json.loads(out, parse_constant=refuse_constant)
        assert err == ""
        # 2 with a report: the homogeneous driver reached its var_cap
        assert code == (2 if report.get("status") == "budget_exceeded" else 0), (argv, code)
    else:
        assert code != 0, argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    return code


@settings(max_examples=300, deadline=None)
@given(commands())
# the product eps * delta * gamma underflows to 0
@example(["decompose", "--fn", "maj:3", "--eps", "1e-300", "--delta", "0.3", "--gamma", "1e-300"])
# a NaN threshold
@example(["mist", "--fn", "maj:3", "--rho", "0.5", "--eps", "0.3", "--delta", "0.3", "--gamma", "0.5",
          "--q-eps", "nan", "--q-delta", "0.5"])
# infinite thresholds
@example(["decompose", "--fn", "maj:3", "--eps", "inf", "--delta", "0.3", "--gamma", "0.05"])
@example(["mist", "--fn", "maj:3", "--rho", "0.5", "--eps", "0.3", "--delta", "0.3", "--gamma", "0.5",
          "--q-eps", "inf", "--q-delta", "0.5"])
# a subnormal degree rate: 1/q_delta overflows
@example(["mist", "--fn", "maj:3", "--rho", "0.5", "--eps", "0.2", "--delta", "0.3", "--gamma", "0.25",
          "--q-eps", "0.6", "--q-delta", "1e-310"])
def test_cli_runs_end_in_a_documented_exit_code(argv):
    check_run(argv)


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from([[], ["--pretty"]]))
@example("n=1\n1\n-1\n1\n1\n1\n", [])  # more values than the header says
@example("n=1\n1e308\n1e308\n", [])  # the transform overflows
@example("n=1\n1\n1e308\n", [])  # E[f^2] overflows
def test_cli_reads_exactly_the_well_formed_tables(text, rest):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.txt")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        code = check_run(["analyze", "--fn", f"file:{path}", *rest])
    # a huge finite value can still overflow the report to an infinity (exit 3)
    assert (code == 1) == (not well_formed(text)), (text, code)
