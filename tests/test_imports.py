"""No command imports sympy or scipy.integrate: the manufactured solutions
are numpy jets, the heat check's Simpson rule is the module's own, and
scipy.fft is the only scipy module kortorus imports.  Each command runs in a
fresh process, because the test session itself imports both; a scan of the
source holds the same boundary for every module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RANDOM_1D = {"grid": {"resolution": [32]},
             "integrator": {"dt_initial": 1e-3, "t_end": 0.005},
             "initial": {"family": "random_smooth", "seed": 3,
                         "params": {"velocity_amplitude": 0.2}}}
MANUFACTURED_2D = {"grid": {"resolution": [16, 16]},
                   "model": {"variant": "effective_v2", "mu": 0.5, "kappa": 0.25,
                             "a": 2.0, "gamma": 1.4},
                   "integrator": {"scheme": "imex_bdf2", "dt_initial": 0.005,
                                  "t_end": 0.05},
                   "initial": {"family": "manufactured", "params": {"id": "ms2d"}}}
# sha256 of the functionals.csv that MANUFACTURED_2D writes; a change to it
# belongs in CHANGES.md
MANUFACTURED_2D_CSV = "c7b2e2ff07324afd29ab9e76b7767d1526c7d8ae5296af883ed07077b8a0b2a5"

PROGRAM = """
import contextlib, hashlib, io, json, sys
from pathlib import Path

def loaded():
    return [m for m in ("sympy", "scipy.integrate") if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

def simulate(doc, name):
    path = Path(tmp, name + ".json")
    path.write_text(json.dumps(doc))
    code = run("simulate", str(path), "--output", str(Path(tmp, name)))
    return code, hashlib.sha256(Path(tmp, name, "functionals.csv").read_bytes()).hexdigest()

import kortorus, kortorus.cli
from kortorus import cli, scenarios
random_1d, manufactured_2d = json.loads(sys.argv[1])
tmp = sys.argv[2]
out = {"import": loaded()}
out["simulate random_smooth"] = [simulate(random_1d, "random")[0], loaded()]
out["verify lp-norms"] = [run("verify", "lp-norms"), loaded()]
out["verify all"] = [run("verify", "all"), loaded()]
out["simulate manufactured"] = [*simulate(manufactured_2d, "manufactured"), loaded()]
try:
    scenarios.manufactured_solution("ms3d")
except ValueError as exc:
    out["unknown id"] = str(exc)
print(json.dumps(out))
"""


def test_no_command_loads_sympy_or_scipy_integrate(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    configs = json.dumps([RANDOM_1D, MANUFACTURED_2D])
    proc = subprocess.run([sys.executable, "-c", PROGRAM, configs, str(tmp_path)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["import"] == []
    assert out["simulate random_smooth"] == [0, []]
    assert out["verify lp-norms"] == [0, []]
    # the heat check integrates in time with the module's own Simpson rule
    assert out["verify all"] == [0, []]
    # the manufactured run takes its profiles and forcing from numpy jets
    assert out["simulate manufactured"] == [0, MANUFACTURED_2D_CSV, []]
    assert out["unknown id"] == ("unknown manufactured solution 'ms3d', "
                                 "expected one of ['ms1d', 'ms2d']")


def module_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """Each module an import statement names (``from a import b`` names
    a.b), with whether the statement is deferred: inside a function body or
    in the body of ``if TYPE_CHECKING``."""
    found = []

    def visit(nodes, deferred):
        for node in nodes:
            if isinstance(node, ast.Import):
                found.extend((alias.name, deferred) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.extend((f"{node.module}.{alias.name}", deferred) for alias in node.names)
            elif isinstance(node, ast.If) and ast.unparse(node.test) in (
                    "TYPE_CHECKING", "typing.TYPE_CHECKING"):
                visit(node.body, True)
                visit(node.orelse, deferred)
                continue
            visit(ast.iter_child_nodes(node), deferred or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree.body, False)
    return found


def test_scipy_fft_is_the_only_scipy_module_and_sympy_is_never_imported():
    # scipy.integrate alone costs a process about 23 MB and 270 modules
    sources = sorted((ROOT / "src" / "kortorus").glob("*.py"))
    assert sources
    imports = {path.name: module_imports(ast.parse(path.read_text())) for path in sources}
    scipy = {(name, module) for name, found in imports.items() for module, _ in found
             if module.split(".")[0] == "scipy"}
    assert scipy and all(module == "scipy.fft" or module.startswith("scipy.fft.")
                         for _, module in scipy), scipy
    sympy = [(name, module) for name, found in imports.items()
             for module, _ in found if module.split(".")[0] == "sympy"]
    assert sympy == [], sympy
