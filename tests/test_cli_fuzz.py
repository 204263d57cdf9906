"""Fuzz of the params JSON document and of the argument flags through the
CLI entry point.

Documents are mostly well formed (d <= 4, vectors and matrices of about
the right size, atom lists), with junk of every JSON kind mixed in: ints,
floats including +-inf and NaN, strings, null, ragged and nested lists,
missing and unknown keys. `validate` and `derive` must end in a documented
exit code, never an exception, and `validate` only reports: it never
exits 3 or 64. Huge d is covered by
test_cli.py::test_huge_d_document_exits_2_with_report.

The argument flags (--x, --lambda, --bump-center, --bump-radius, --t,
--n, --n-list) are drawn from sane values, the edges of their domain (-1,
0, nan, inf, 1e308, integers beyond the float range) and junk text, with
vectors one entry short, right or one entry long; the simulations run two
paths of two steps. The CLI only parses them and the library checks them,
so every run must end in a documented exit code, never an exception; a
run that fails writes no file, and one that succeeds no NaN or infinite
number.
"""
import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cbi import cli

from conftest import make_d2_critical, make_fix_a, make_jump_d2, write_params

DOCUMENTED = {0, 2, 3, 64, 65, 66}

wild = st.one_of(st.integers(-3, 5), st.floats(allow_nan=True, allow_infinity=True),
                 st.sampled_from([math.inf, -math.inf, math.nan, -1.0, 1e308, 10**30]))
scalars = st.one_of(wild, st.text(max_size=3), st.none(), st.booleans())
junk = st.one_of(scalars, st.lists(scalars, max_size=3),
                 st.lists(st.lists(scalars, max_size=2), max_size=2),
                 st.dictionaries(st.text(max_size=3), scalars, max_size=2))


@st.composite
def rarely(draw, plausible, other=junk, odds=40):
    """`plausible`, and `other` about once in `odds` draws (an inner value:
    hypothesis favours the ends of an integer range, and shrinks to 0)."""
    return draw(other if draw(st.integers(0, odds - 1)) == odds // 2 else plausible)


sane = st.floats(0.0, 3.0)


def sized(size, element):
    """Lists of `size` elements; now and then one too few or too many, or junk."""
    off = st.lists(element, min_size=max(size - 1, 0), max_size=size + 1)
    return rarely(st.lists(element, min_size=size, max_size=size), st.one_of(off, junk))


def vector(size):
    """`size` sane numbers; now and then wild entries, or `sized` slips."""
    return rarely(sized(size, sane), sized(size, st.one_of(sane, wild)), odds=8)


def atoms(d):
    atom = st.fixed_dictionaries({"weight": rarely(sane, st.one_of(wild, junk)),
                                  "z": vector(d)})
    return rarely(st.lists(rarely(atom), max_size=2))


BAD_D = st.sampled_from([0, -1, 2.5, math.inf, -math.inf, math.nan, True, None, "2", [2]])
#: The strategy of each document key, for each d (built once: hypothesis
#: spends most of its time on strategies built afresh per example).
FIELDS = {d: {"d": rarely(st.just(d), BAD_D, odds=10),
              "c": vector(d),
              "beta": vector(d),
              "B": sized(d, vector(d)),
              "nu": atoms(d),
              "mu": sized(d, atoms(d))} for d in range(1, 5)}
KEEP_KEY = rarely(st.just(True), st.just(False))
EXTRA_KEYS = rarely(st.just({}), st.dictionaries(st.text(max_size=4), junk, min_size=1,
                                                 max_size=2), odds=10)


@st.composite
def documents(draw):
    fields = FIELDS[draw(st.integers(1, 4))]
    doc = {key: draw(value) for key, value in fields.items() if draw(KEEP_KEY)}
    doc.update(draw(EXTRA_KEYS))
    return draw(rarely(st.just(doc)))


def run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
@example(doc={"d": math.inf})  # once escaped int() as an OverflowError
def test_params_documents_end_in_documented_exit_codes(tmp_path, doc):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    assert run_quietly(["validate", "--params", str(path)]) in DOCUMENTED - {3, 64}
    assert run_quietly(["derive", "--params", str(path)]) in DOCUMENTED


TEXT = st.text(max_size=3)
#: each entry of a vector flag is sane three times in four; a vector has
#: length d four times in five
entries = rarely(st.floats(0.1, 3.0).map(repr),
                 st.one_of(st.sampled_from(["-1", "0", "nan", "inf", "1e308"]), TEXT), odds=4)
#: --t is kept where no solve runs long
horizons = st.sampled_from(["0.5", "1", "0", "nan", "inf", "-1"])
radii = rarely(st.sampled_from(["0.5", "1", "3"]),
               st.one_of(st.sampled_from(["0", "-1", "nan", "inf", "1e154", "1e-160"]), TEXT),
               odds=4)
scales = rarely(st.sampled_from(["1", "10", "1000"]),
                st.one_of(st.sampled_from(["0", "-1", "2.5", str(10**300), str(10**400)]), TEXT),
                odds=4)
n_lists = rarely(st.lists(st.sampled_from([1, 10, 100, 1000]), min_size=2, max_size=3,
                          unique=True).map(lambda ns: ",".join(map(str, sorted(ns)))),
                 st.lists(scales, min_size=1, max_size=3).map(",".join), odds=2)


def vectors(d):
    return rarely(st.lists(entries, min_size=d, max_size=d),
                  st.lists(entries, min_size=d - 1, max_size=d + 1), odds=5).map(",".join)


#: command -> (flags, whether it writes a CSV with --out)
ARG_COMMANDS = {
    "laplace": (("--t", "--x", "--lambda"), False),
    "vsolve": (("--t", "--lambda"), False),
    "dgen": (("--n", "--x", "--lambda"), False),
    "prop31": (("--x", "--lambda", "--n-list"), True),
    "cgen": (("--x", "--n-list", "--bump-center", "--bump-radius"), True),
    "simulate-scaled": (("--n", "--t", "--x"), True),
    "simulate-limit": (("--t", "--x"), True),
}
#: the simulations' fixed flags: two paths, and two steps at --t 1
SIMULATION = ["--n-paths", "2", "--dt", "0.5"]


@st.composite
def argument_runs(draw):
    """(command, params name, argv after --params, writes a CSV)."""
    name, d = draw(st.sampled_from([("fix_a", 1), ("jump_d2", 2), ("d2_critical", 2)]))
    command = draw(st.sampled_from(sorted(ARG_COMMANDS)))
    flags, writes = ARG_COMMANDS[command]
    values = {"--t": horizons, "--n": scales, "--n-list": n_lists, "--bump-radius": radii}
    argv = [f"{flag}={draw(values.get(flag, vectors(d)))}" for flag in flags]
    return command, name, argv, writes


@pytest.fixture(scope="module")
def params_files(tmp_path_factory):
    work = tmp_path_factory.mktemp("params")
    for name, make in (("fix_a", make_fix_a), ("jump_d2", make_jump_d2),
                       ("d2_critical", make_d2_critical)):
        write_params(make(), work / f"{name}.json")
    return work


@settings(max_examples=300, deadline=None)
@given(run=argument_runs())
@example(run=("laplace", "fix_a", ["--t=1", "--x=-5", "--lambda=1"], False))
@example(run=("dgen", "fix_a", [f"--n={10**400}", "--x=1", "--lambda=1"], False))
@example(run=("cgen", "fix_a", ["--x=nan", "--n-list=10", "--bump-center=0"], True))
# products of a huge entry once overflowed with a RuntimeWarning
@example(run=("laplace", "fix_a", ["--t=0", "--x=1e308", "--lambda=2.5"], False))
@example(run=("dgen", "jump_d2", [f"--n={10**300}", "--x=1e300,1e308", "--lambda=0.25,1"],
              False))
@example(run=("prop31", "fix_a", ["--x=2", "--lambda=1e308", "--n-list=10,1000"], True))
@example(run=("prop31", "fix_a", ["--x=1e308", "--lambda=0.15", "--n-list=10,1000"], True))
@example(run=("cgen", "fix_a", ["--x=0.15", "--n-list=10", "--bump-center=1e308"], True))
# a start or a result beyond the float range: once a NaN cell at exit 0, or
# the kernel's exit 64 ("decrease dt"), each after a RuntimeWarning
@example(run=("cgen", "fix_a", ["--x=1e308", "--n-list=10,100", "--bump-radius=1"], True))
@example(run=("simulate-scaled", "fix_a", ["--n=2", "--t=1", "--x=1e308"], True))
@example(run=("simulate-limit", "d2_critical", ["--t=1", "--x=1e308,1e308"], True))
def test_argument_flags_end_in_documented_exit_codes(params_files, run):
    command, name, argv, writes = run
    out = params_files / "out.csv"
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([command, "--params", str(params_files / f"{name}.json"), *argv,
                        *(SIMULATION if command.startswith("simulate") else []),
                        *(["--out", str(out)] if writes else [])])
    assert code in DOCUMENTED
    assert code == 0 or not out.exists()
    if code == 0:
        cells = [] if not stdout.getvalue() else _numbers(json.loads(stdout.getvalue()))
        if writes:  # a table of numbers under a header
            cells += [float(c) for row in out.read_text().splitlines()[1:] for c in row.split(",")]
        assert all(math.isfinite(c) for c in cells)


def _numbers(report):
    """Every float of a parsed JSON report (json reads NaN and Infinity)."""
    if isinstance(report, dict):
        report = list(report.values())
    if isinstance(report, list):
        return [n for value in report for n in _numbers(value)]
    return [report] if isinstance(report, float) else []
