"""Only the packages that boot simulators may import ``repro.obs``.

Every other layer reaches observability through the session its
simulator carries (``sim.obs``, and ``obs.flight`` inside that guard), as
DESIGN.md §5h requires.  The check parses each module, so an import
inside a function counts as much as one at the top.

The same packages keep §5h's dormant-cost rule: each instrumentation site
reads ``sim.obs`` once into a local and touches the session's tracer,
metrics, timeline, flight recorder or bound instruments only behind an
``is not None`` guard, so an unobserved run pays one read and one
branch per site.
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


# -- the one-branch dormant-cost rule ------------------------------------------------

#: the session parts a site may touch only behind its guard
SESSION_PARTS = ("tracer", "metrics", "timeline", "flight", "instruments")

#: functions that read ``.obs``, per module: a new instrumentation site
#: changes a count here, so it shows up in review
GUARDED_SITES = {
    "check/checker.py": 1,
    "faults/plan.py": 1,
    "hw/meter.py": 1,
    "kernel/accel_sched.py": 1,
    "kernel/balloon.py": 4,
    "kernel/cfs.py": 1,
    "kernel/governor.py": 2,
    "kernel/kernel.py": 1,
    "kernel/smp.py": 4,
    "powercap/controller.py": 1,
}


def _none_test(test, name):
    """How ``test`` guards ``name``: "set" when it holds only if ``name``
    is not None, "unset" when it holds whenever ``name`` is None, else
    None."""
    def compares(node, op):
        return (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == name
                and len(node.ops) == 1 and isinstance(node.ops[0], op)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None)

    if compares(test, ast.IsNot) or (
            isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And)
            and any(compares(value, ast.IsNot) for value in test.values)):
        return "set"
    if compares(test, ast.Is) or (
            isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)
            and any(compares(value, ast.Is) for value in test.values)):
        return "unset"
    return None


def _unguarded(node, name, guarded=False):
    """(line, part) of each ``name.<part>`` under ``node`` outside a guard."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name and node.attr in SESSION_PARTS):
        return [] if guarded else [(node.lineno, node.attr)]
    if isinstance(node, (ast.If, ast.IfExp)):
        test = _none_test(node.test, name)
        return (_unguarded(node.test, name, guarded)
                + _unguarded_all(node.body, name, guarded or test == "set")
                + _unguarded_all(node.orelse, name,
                                 guarded or test == "unset"))
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        # operands after ``name is not None`` run only when it holds
        found = []
        for value in node.values:
            found += _unguarded(value, name, guarded)
            guarded = guarded or _none_test(value, name) == "set"
        return found
    found = []
    for _field, value in ast.iter_fields(node):
        if isinstance(value, list):
            found += _unguarded_all(value, name, guarded)
        elif isinstance(value, ast.AST):
            found += _unguarded(value, name, guarded)
    return found


def _unguarded_all(nodes, name, guarded):
    """``_unguarded`` over a list; ``if name is None: return`` (or raise,
    break, continue) guards the statements after it."""
    if not isinstance(nodes, list):
        return _unguarded(nodes, name, guarded)
    found = []
    for node in nodes:
        if not isinstance(node, ast.AST):
            continue
        found += _unguarded(node, name, guarded)
        if (isinstance(node, ast.If) and node.body
                and _none_test(node.test, name) == "unset"
                and isinstance(node.body[-1], (ast.Return, ast.Raise,
                                               ast.Break, ast.Continue))):
            guarded = True
    return found


def _own_nodes(func):
    """Nodes of ``func``'s body, not of the functions nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _obs_sites(tree):
    """(site count, problems) for one parsed module.

    A site is a function that reads ``.obs``.  It must read it once, as
    ``name = <sim>.obs``, and touch ``name.tracer``/``.metrics``/
    ``.timeline``/``.flight``/``.instruments`` only behind a guard.
    """
    sites, problems = 0, []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        reads = sorted((node for node in _own_nodes(func)
                        if isinstance(node, ast.Attribute)
                        and node.attr == "obs"
                        and isinstance(node.ctx, ast.Load)),
                       key=lambda node: (node.lineno, node.col_offset))
        if not reads:
            continue
        sites += 1
        if len(reads) > 1:
            problems.append("{}:{} reads .obs {} times".format(
                func.name, reads[0].lineno, len(reads)))
        bound = [node.targets[0].id for node in _own_nodes(func)
                 if isinstance(node, ast.Assign) and node.value in reads
                 and isinstance(node.targets[0], ast.Name)]
        if not bound:
            problems.append("{}:{} uses .obs without binding it".format(
                func.name, reads[0].lineno))
            continue
        problems += ["{}:{} touches {}.{} unguarded".format(
                         func.name, line, bound[0], part)
                     for line, part in sorted(_unguarded_all(
                         func.body, bound[0], False))]
    return sites, problems


def _guard_report(packages, src=SRC):
    """({module: site count}, [problem, ...]) over ``packages``."""
    counts, problems = {}, []
    for package in packages:
        root = os.path.join(src, package)
        for directory, _dirs, files in os.walk(root):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path) as handle:
                    tree = ast.parse(handle.read(), path)
                rel = os.path.relpath(path, src)
                sites, found = _obs_sites(tree)
                if sites:
                    counts[rel] = sites
                problems += ["{}: {}".format(rel, p) for p in found]
    return counts, problems


def test_every_site_reads_obs_once_and_guards_the_session():
    counts, problems = _guard_report(MUST_NOT_IMPORT_OBS)
    assert problems == []
    assert counts == GUARDED_SITES


def test_the_guard_check_sees_every_form(tmp_path):
    (tmp_path / "fake").mkdir()
    (tmp_path / "fake" / "mod.py").write_text(
        "class C:\n"
        "    def guarded(self):\n"
        "        obs = self.sim.obs\n"
        "        if obs is not None:\n"
        "            obs.metrics.inc('a')\n"
        "        t = obs.tracer if obs is not None and obs.tracer.on else 0\n"
        "    def early(self):\n"
        "        obs = self.sim.obs\n"
        "        if obs is None:\n"
        "            return\n"
        "        obs.tracer.end(self.span)\n"
        "    def planted(self):\n"
        "        obs = self.sim.obs\n"
        "        if obs is not None:\n"
        "            pass\n"
        "        obs.metrics.inc('b')\n"
        "    def twice(self):\n"
        "        if self.sim.obs is not None:\n"
        "            self.sim.obs.metrics.inc('c')\n"
        "    def unbound(self):\n"
        "        return self.sim.obs\n")
    counts, problems = _guard_report(["fake"], src=str(tmp_path))
    assert counts == {"fake/mod.py": 5}
    assert problems == [
        "fake/mod.py: planted:16 touches obs.metrics unguarded",
        "fake/mod.py: twice:18 reads .obs 2 times",
        "fake/mod.py: twice:18 uses .obs without binding it",
        "fake/mod.py: unbound:21 uses .obs without binding it",
    ]
