"""Tests of the traced reachability rule (``ci/check_reachable.py --trace``).

A synthetic package is run under the same profile hook as the production
entry points; the rule must list exactly the defs that never ran.
"""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "ci" / "check_reachable.py"

MODULE = '''\
import functools
import threading


class Base:
    def abstract(self):
        """Subclasses implement this."""
        raise NotImplementedError

    def called_method(self):
        return 1

    def uncalled_method(self):
        return 2

    def __repr__(self):
        return "Base()"


@functools.lru_cache(maxsize=None)
def decorated():
    return 3


def exempted():
    return 4


def in_thread():
    return 5


def in_child():
    return 6


def entry():
    Base().called_method()
    decorated()
    worker = threading.Thread(target=in_thread)
    worker.start()
    worker.join()
'''

CHILD = "import subprocess, sys; subprocess.run([sys.executable, '-c', 'import pkg.mod as m; m.in_child()'], check=True)"


@pytest.fixture(scope="module")
def check_reachable():
    spec = importlib.util.spec_from_file_location("check_reachable", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced(check_reachable, tmp_path_factory):
    """Run the synthetic package's entry points once; return ``(root, entered)``."""
    root = tmp_path_factory.mktemp("reachable")
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    entry_points = (
        ("python", "-c", "import pkg.mod as m; m.entry()"),
        ("python", "-c", CHILD),
    )
    return root, check_reachable.run_traced(root, root / "src", entry_points)


def findings(check_reachable, traced, exempt):
    root, entered = traced
    return check_reachable.trace_findings(root, root / "src", entered, exempt)


def test_only_the_uncalled_def_is_listed(check_reachable, traced):
    exempt = {("src/pkg/mod.py", "exempted"): "kept on purpose"}
    unentered, stale = findings(check_reachable, traced, exempt)
    assert [line.split(" ", 1)[1] for line in unentered] == ["Base.uncalled_method"]
    assert unentered[0].startswith("src/pkg/mod.py:")
    assert stale == []


def test_without_its_exemption_a_def_is_listed(check_reachable, traced):
    unentered, _ = findings(check_reachable, traced, {})
    assert sorted(line.split(" ", 1)[1] for line in unentered) == [
        "Base.uncalled_method", "exempted",
    ]


def test_an_entered_exemption_is_stale(check_reachable, traced):
    exempt = {
        ("src/pkg/mod.py", "exempted"): "kept on purpose",
        ("src/pkg/mod.py", "in_thread"): "no longer true",
    }
    _, stale = findings(check_reachable, traced, exempt)
    assert len(stale) == 1
    assert "in_thread is exempt but entered" in stale[0]


def test_a_missing_exemption_is_stale(check_reachable, traced):
    exempt = {
        ("src/pkg/mod.py", "exempted"): "kept on purpose",
        ("src/pkg/mod.py", "Base.deleted"): "the def is gone",
    }
    _, stale = findings(check_reachable, traced, exempt)
    assert stale == ["src/pkg/mod.py: Base.deleted is exempt but no longer exists"]


def test_a_failing_entry_point_stops_the_pass(check_reachable, tmp_path):
    (tmp_path / "src").mkdir()
    with pytest.raises(SystemExit, match="entry point failed"):
        check_reachable.run_traced(
            tmp_path, tmp_path / "src", (("python", "-c", "raise SystemExit(3)"),)
        )


def test_the_exemption_table_names_real_defs(check_reachable):
    # The traced pass itself is a CI leg (minutes); this keeps the table
    # honest about names at test speed.
    root = SCRIPT.parent.parent
    known = {
        (path.relative_to(root).as_posix(), name)
        for path, name, _ in check_reachable.all_defs(root / "src")
    }
    assert set(check_reachable.EXEMPT) <= known


@pytest.mark.parametrize("body,exempt", [
    ("def __repr__(self):\n    return 'x'", True),
    ("def f(self):\n    raise NotImplementedError", True),
    ("def f(self):\n    '''Doc.'''\n    raise NotImplementedError('subclass')", True),
    ("def f(self):\n    raise ValueError('not abstract')", False),
    ("def f(self):\n    x = 1\n    raise NotImplementedError", False),
    ("def f(self):\n    return NotImplementedError", False),
])
def test_exempt_by_kind(check_reachable, body, exempt):
    node = ast.parse(body).body[0]
    assert check_reachable.exempt_by_kind(node) is exempt


STATIC_MODULE = '''\
def used_in_src():
    return 1


def used_by_a_script():
    return 2


def only_tests_use_this():
    return 3


def _private():
    return 4


LIMIT = 5


class Widget:
    def method_nobody_calls(self):
        return 6
'''


def _static_tree(root, caller="from pkg.mod import used_in_src\nused_in_src()\n"):
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "__init__.py").write_text(
        "from pkg.mod import only_tests_use_this, Widget\n"
    )
    (root / "src" / "pkg" / "mod.py").write_text(STATIC_MODULE)
    (root / "src" / "pkg" / "caller.py").write_text(caller)
    (root / "ci").mkdir()
    (root / "ci" / "run.sh").write_text("python -c 'import pkg.mod; pkg.mod.used_by_a_script()'\n")
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tests_use_this\nonly_tests_use_this()\n"
    )


def test_static_pass_lists_names_only_tests_reach(check_reachable, tmp_path, capsys):
    _static_tree(tmp_path)
    assert check_reachable.static_pass(tmp_path) == 1
    listed = capsys.readouterr().out.splitlines()
    # Neither an ``__init__`` re-export nor a use under tests/ counts;
    # methods and private or UPPERCASE names are exempt.
    assert [line.split(" ", 1)[1] for line in listed] == ["only_tests_use_this", "Widget"]
    assert listed[0].startswith("src/pkg/mod.py:")


def test_static_pass_is_clean_when_every_name_has_a_user(check_reachable, tmp_path, capsys):
    _static_tree(
        tmp_path,
        caller="from pkg.mod import used_in_src, only_tests_use_this, Widget\n"
               "used_in_src(), only_tests_use_this(), Widget()\n",
    )
    assert check_reachable.static_pass(tmp_path) == 0
    assert capsys.readouterr().out == ""


def test_static_pass_holds_on_this_repository(check_reachable, capsys):
    assert check_reachable.static_pass(SCRIPT.parent.parent) == 0, capsys.readouterr().out
