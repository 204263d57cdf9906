"""Fuzz of the params JSON document through the CLI entry point.

Documents are mostly well formed (d <= 4, vectors and matrices of about
the right size, atom lists), with junk of every JSON kind mixed in: ints,
floats including +-inf and NaN, strings, null, ragged and nested lists,
missing and unknown keys. `validate` and `derive` must end in a documented
exit code, never an exception, and `validate` only reports: it never
exits 3 or 64. Huge d is covered by
test_cli.py::test_huge_d_document_exits_2_with_report.
"""
import contextlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cbi import cli

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
