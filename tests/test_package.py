"""The package namespace is the union of the modules' public names."""

import ast
import subprocess
import sys
from pathlib import Path

import icufunnel
from icufunnel import analysis, constants, controller, model, simulator

MODULES = (model, constants, controller, simulator, analysis)


def test_exports_are_the_module_lists():
    assert icufunnel.__all__ == ["__version__", *(n for m in MODULES for n in m.__all__)]
    assert len(set(icufunnel.__all__)) == len(icufunnel.__all__)
    for m in MODULES:
        for name in m.__all__:
            assert getattr(icufunnel, name) is getattr(m, name), name


def test_module_lists_name_every_public_definition():
    # a public class or function defined in a module but left out of its
    # __all__ would be missing from the package
    for m in MODULES:
        defined = {
            name for name, value in vars(m).items()
            if not name.startswith("_") and getattr(value, "__module__", None) == m.__name__
        }
        assert defined <= set(m.__all__), m.__name__


# Each module may import only from the modules before it: no import cycle,
# not even one deferred into a function body.
LAYERS = ("model", "constants", "controller", "simulator", "analysis", "cli")


def test_modules_import_in_layers():
    package = Path(icufunnel.__file__).parent
    assert {p.stem for p in package.glob("*.py")} == {"__init__", *LAYERS}
    for i, name in enumerate(LAYERS):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    assert target.split(".")[0] in LAYERS[:i], (
                        f"{name}.py line {node.lineno} imports .{target}")


# One fresh interpreter: the certifying commands run without scipy, the first
# lookup of simulator.solve_ivp imports it, and simulate calls it.
DEFERRED_SCIPY = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import icufunnel, icufunnel.cli
from icufunnel import cli, simulator

path = str(cli.bundled_scenario_path())
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["constants", path], ["feasible", path], ["robust", path, "--samples", "8"]):
        cli.main(argv)
assert "scipy" not in sys.modules, "the certifying commands imported scipy"
solve_ivp = getattr(simulator, "solve_ivp")
assert "scipy.integrate" in sys.modules
import scipy.integrate
assert solve_ivp is scipy.integrate.solve_ivp
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["simulate", path, "--horizon", "30"]) == 0
assert simulator.solve_ivp is scipy.integrate.solve_ivp
"""


def test_scipy_is_imported_on_the_first_simulation():
    src = str(Path(icufunnel.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", DEFERRED_SCIPY, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
