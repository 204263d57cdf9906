"""scripts/digest.py prints a line for every call, also for one that raises."""
import contextlib
import importlib.util
import inspect
import io
from pathlib import Path

import pytest

import cbi
from cbi import cli

from conftest import make_fix_a

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _section(digest) -> dict[str, str]:
    """The library lines of fix_a, label to digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        digest.library_section("fix_a", make_fix_a())
    return dict(line.rsplit(" ", 1) for line in out.getvalue().splitlines())


@pytest.fixture(scope="module")
def unpatched(digest) -> dict[str, str]:
    return _section(digest)


def test_every_exported_function_has_a_library_line(unpatched):
    # the docstring's promise: a line for every function that cbi exports
    exported = {name for name, obj in vars(cbi).items()
                if not name.startswith("_") and inspect.isfunction(obj)}
    assert exported - {label.split(":")[0] for label in unpatched} == set()


def _boom(*args, **kwargs):
    raise RuntimeError("planted")


def _moved(digest, monkeypatch, unpatched, function, exc) -> set[str]:
    """The labels whose line moves when cbi.<function> raises exc; every
    label keeps its line."""
    def raise_exc(*args, **kwargs):
        raise exc("planted")
    monkeypatch.setattr(digest, "UNEXPECTED", [])
    monkeypatch.setattr(cbi, function, raise_exc)
    after = _section(digest)
    assert list(after) == list(unpatched)
    return {label for label in unpatched if after[label] != unpatched[label]}


@pytest.mark.parametrize("exc", [RuntimeError, ValueError])
def test_a_raising_simulation_moves_its_lines_and_fails_the_run(digest, monkeypatch, unpatched,
                                                                exc):
    moved = _moved(digest, monkeypatch, unpatched, "simulate_cbi", exc)
    # the four simulations raise, and so does the CSV of their missing paths
    assert moved == {label for label in unpatched
                     if label.startswith(("simulate_cbi:", "paths_to_csv:"))}
    assert len(moved) == 5
    assert sorted(digest.UNEXPECTED) == sorted(moved)


def test_a_refusal_is_excused_only_where_the_call_may_refuse(digest, monkeypatch, unpatched):
    moved = _moved(digest, monkeypatch, unpatched, "simulate_limit_diffusion", ValueError)
    assert len(moved) == 4
    assert all(label.startswith("simulate_limit_diffusion:") for label in moved)
    assert digest.UNEXPECTED == []
    moved = _moved(digest, monkeypatch, unpatched, "simulate_limit_diffusion", RuntimeError)
    assert sorted(digest.UNEXPECTED) == sorted(moved)


def test_an_exception_that_cli_run_re_raises_still_prints_its_line(digest, monkeypatch,
                                                                   capsys, tmp_path):
    monkeypatch.setattr(digest, "UNEXPECTED", [])
    monkeypatch.chdir(tmp_path)
    cmds = [c for c in digest.commands() if c[0] in ("derive:fix_a", "validate:fix_a")]
    digest.cli_section(cmds)
    before = capsys.readouterr().out.splitlines()
    _, required, optional = cli._COMMANDS["derive"]
    monkeypatch.setitem(cli._COMMANDS, "derive", (_boom, required, optional))
    digest.cli_section(cmds)
    after = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in before] == [["cbi", "validate:fix_a"],
                                                     ["cbi", "derive:fix_a"]]
    assert after[0] == before[0]
    assert after[1].split()[:2] == ["cbi", "derive:fix_a"] and after[1] != before[1]
    assert after[1] == f"cbi derive:fix_a {digest._digest('RuntimeError: planted')}"
    assert digest.UNEXPECTED == ["cbi derive:fix_a"]
