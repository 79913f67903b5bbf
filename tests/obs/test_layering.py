"""Only the packages that boot simulators may import ``repro.obs``.

Every other layer reaches observability through the session its
simulator carries (``sim.obs``, and ``obs.flight`` inside that guard), as
DESIGN.md §5h requires.  The check parses each module, so an import
inside a function counts as much as one at the top.
"""

import ast
import os

import pytest

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: packages that boot simulators and attach sessions to them
MAY_IMPORT_OBS = {"cluster", "experiments", "par", "sidechannel"}
#: every layer below them
MUST_NOT_IMPORT_OBS = ("accounting", "analysis", "apps", "check", "core",
                       "faults", "hw", "kernel", "powercap", "sim",
                       "userspace")


def _imported_modules(tree):
    """(line, dotted name) of every import in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                # ``from repro import obs`` imports ``repro.obs`` too
                yield node.lineno, "{}.{}".format(node.module, alias.name)
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            yield node.lineno, node.args[0].value


def _obs_imports(package, src=SRC):
    """One line per ``repro.obs`` import in ``package``'s modules."""
    found = []
    root = os.path.join(src, package)
    for directory, _dirs, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            found += ["{}:{} imports {}".format(
                          os.path.relpath(path, src), line, module)
                      for line, module in sorted(_imported_modules(tree))
                      if module == "repro.obs"
                      or module.startswith("repro.obs.")]
    return found


def test_every_package_is_classified():
    packages = {name for name in os.listdir(SRC)
                if os.path.isfile(os.path.join(SRC, name, "__init__.py"))}
    assert packages - {"obs"} == MAY_IMPORT_OBS | set(MUST_NOT_IMPORT_OBS)


@pytest.mark.parametrize("package", MUST_NOT_IMPORT_OBS)
def test_layer_reaches_obs_only_through_its_simulator(package):
    assert _obs_imports(package) == []


def test_the_check_sees_every_import_form(tmp_path):
    (tmp_path / "fake").mkdir()
    (tmp_path / "fake" / "mod.py").write_text(
        "import repro.obs.runtime\n"
        "from repro import obs, sim\n"
        "def f():\n"
        "    from repro.obs import flight\n"
        "    return __import__('repro.obs.session')\n")
    assert _obs_imports("fake", src=str(tmp_path)) == [
        "fake/mod.py:1 imports repro.obs.runtime",
        "fake/mod.py:2 imports repro.obs",
        "fake/mod.py:4 imports repro.obs.flight",
        "fake/mod.py:5 imports repro.obs.session",
    ]
