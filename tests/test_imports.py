"""The library and the `evolve` and `compare` paths run on numpy and
scipy.sparse alone, no module imports scipy.linalg or scipy.sparse.linalg,
only `cli` writes files, every top-level function has a caller in the package, and
no module reaches the tests' oracles."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import spinphase

SRC = Path(spinphase.__file__).resolve().parent

# a fresh interpreter: the suite's own modules import scipy.linalg freely
_RUN = """
import json, sys
import spinphase
from spinphase import cli, dynamics as dyn

ctx = spinphase.SpinContext(6)
bath = dyn.BathSpec(((1.0, (1,)),), 0.1, 1.0)
gen = dyn.qfp_generator([(-1.0, (3,))], bath, 0.0, ctx)
c0 = spinphase.operator_to_symbol(dyn.coherent_state(ctx, 1.1, 0.3), 0.0, ctx)
for method in ("rk4", "expm"):
    dyn.integrate(gen, c0, 1.0, 0.05, method, ctx=ctx, sigma=0.0, kind="symbol")
code = max(cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2] + command])
           for command in ("evolve", "compare"))
loaded = sorted(m for m in sys.modules
                if m.split(".")[:2] == ["scipy", "linalg"]
                or m.split(".")[:3] == ["scipy", "sparse", "linalg"])
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_library_and_evolve_never_import_scipy_linalg(tmp_path):
    """Neither module is loaded by the library, both integrators, or a CLI
    evolve and compare of one config."""
    cfg = {"spin": {"twice_s": 6}, "hamiltonian": {"expression": [[-1.0, [3]]]},
           "bath": {"coupling": [[1.0, [1]]], "gamma": 0.1, "temperature": 1.0},
           "initial": {"coherent": {"theta": 1.1, "phi": 0.3}},
           "time": {"t_end": 1.0, "dt": 0.05, "method": "expm"}}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [os.path.abspath(p) for p in inherited if p]))
    proc = subprocess.run([sys.executable, "-c", _RUN, str(cfg_path), str(tmp_path / "o")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "loaded": []}


def _imports(source):
    """Every absolute import of the source, at any depth, as written: a module
    name, or "module.name" for a from-import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found += [f"{node.module}.{alias.name}" for alias in node.names]
    return found


def _private_scipy_imports(source):
    """Names of private scipy modules (a component starting with "_") that
    the source imports, as written."""
    return [name for name in _imports(source) if name.split(".")[0] == "scipy"
            and any(part.startswith("_") for part in name.split("."))]


def test_no_module_imports_a_private_scipy_module():
    assert _private_scipy_imports(
        "import scipy.sparse as sp\n"
        "from scipy.sparse.linalg._expm_multiply import _fragment_3_1\n"
        "def f():\n    from scipy.sparse.linalg import _onenormest\n"
        "    import scipy._lib\n"
    ) == ["scipy.sparse.linalg._expm_multiply._fragment_3_1",
          "scipy.sparse.linalg._onenormest", "scipy._lib"]
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        assert _private_scipy_imports(path.read_text()) == [], path.name


def _linalg_imports(source):
    """Names of scipy.linalg and scipy.sparse.linalg (or their submodules) that
    the source imports, as written."""
    return [name for name in _imports(source) if name.split(".")[:2] == ["scipy", "linalg"]
            or name.split(".")[:3] == ["scipy", "sparse", "linalg"]]


def test_no_module_imports_scipy_linalg():
    """The package's dense algebra is numpy.linalg, and its propagator is its
    own Taylor step: no module imports either linalg package, even lazily."""
    assert _linalg_imports(
        "import scipy.sparse as sp\nimport scipy.linalg as la\n"
        "from scipy import linalg\nfrom scipy.sparse import linalg as sla\n"
        "def f():\n    from scipy.sparse.linalg import eigs\n"
        "    from scipy.linalg import expm\n    import numpy.linalg\n"
    ) == ["scipy.linalg", "scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.linalg.eigs",
          "scipy.linalg.expm"]
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        assert _linalg_imports(path.read_text()) == [], path.name


def _file_writes(source):
    """Calls in the source that open or write files: open, write_text,
    write_bytes and numpy's save, savez, savez_compressed and savetxt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name in ("open", "write_text", "write_bytes") or name.startswith("save"):
            found.append(name)
    return found


def test_only_cli_writes_files():
    """The output format is the command line's alone: the library returns arrays."""
    assert sorted(_file_writes(
        "import numpy as np\n"
        "with open(p, 'w') as fh:\n    fh.write(text)\n"
        "Path(p).write_text(text)\n"
        "def f(a):\n    np.save(p, a)\n    np.savez_compressed(p, a=a)\n"
        "    np.savetxt(p, a)\n    return io.open(p).read()\n"
        "np.load(p); Path(p).read_text()\n"
    )) == ["open", "open", "save", "savetxt", "savez_compressed", "write_text"]
    modules = sorted(SRC.glob("*.py"))
    assert "cli.py" in [path.name for path in modules]
    for path in modules:
        if path.name != "cli.py":
            assert _file_writes(path.read_text()) == [], path.name


def _unreferenced_definitions(sources):
    """"module.name" of each top-level function or class in sources (module
    name -> source), private ones included, that no module refers to, by
    name, outside its own body.  Being listed in __all__ does not count as a
    use."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()  # (module of the top-level statement, name it refers to)
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    referenced.add((module, getattr(top, "name", None), node.id))
                elif isinstance(node, ast.Attribute):
                    referenced.add((module, getattr(top, "name", None), node.attr))
    found = []
    for module, tree in trees.items():
        for top in tree.body:
            if (isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not any(name == top.name and (where, owner) != (module, top.name)
                                for where, owner, name in referenced)):
                found.append(f"{module}.{top.name}")
    return found


def test_every_public_function_is_used_by_the_package():
    """Helpers and classes that only tests use belong in tests/oracles.py, so
    that no library path can reuse the code that checks it, and a private
    helper that nothing calls any more goes; only the command line's entry
    points have no caller inside the package."""
    assert _unreferenced_definitions({
        "a": "def used():\n    pass\ndef recursive(n):\n    return recursive(n - 1)\n"
             "def _private():\n    pass\n"
             "class Built:\n    pass\nclass Unused:\n    def make(self):\n"
             "        return Unused()\nclass _Hidden:\n    pass\n",
        "b": "from .a import used\ndef caller():\n    return a.used(), a.Built()\n",
        "__init__": "from .b import caller\n__all__ = ['caller']\n",
    }) == ["a.recursive", "a._private", "a.Unused", "a._Hidden", "b.caller"]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    entry_points = {"cli.main", "cli.build_parser"}
    assert [name for name in _unreferenced_definitions(sources)
            if name not in entry_points] == []


# the oracles that moved out of the library into tests/oracles.py, and the
# grid classes and closures that the library's grid_points and grid_values replace
MOVED = {"clebsch_gordan", "_check_jm", "log_factorial", "_LOG_FACT", "tensor_operator",
         "star_product", "s3_star_ylm", "master_rhs", "SphereGrid", "make_grid",
         "grid_synthesis_analysis", "quadrature", "analyze", "sphere_integral"}


def _oracle_links(source):
    """Imports of oracles or of anything under tests in source, and its
    definitions or imports of the MOVED names, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in ("oracles", "tests")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] in ("oracles", "tests"):
                found.append(module)
            found += [a.name for a in node.names if a.name in MOVED | {"oracles", "tests"}]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in MOVED:
            found.append(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in MOVED:
            found.append(node.id)
    return found


def test_no_library_module_reaches_the_moved_oracles():
    """The Racah-sum CG, the sphere quadrature and the other moved oracles, and
    the grid helpers they replace, exist only in the tests or nowhere:
    no module of spinphase imports them, tests or oracles, or defines them."""
    assert sorted(_oracle_links(
        "import oracles\nimport tests.oracles as o\nfrom tests import oracles\n"
        "from oracles import clebsch_gordan\nfrom . import oracles\n"
        "from .su2_algebra import log_factorial, spin_matrices\n"
        "_LOG_FACT = [0.0]\ndef master_rhs():\n    pass\n"
        "import os\nfrom .bopp import bopp_matrices\nlog_factorial_x = 1\n"
        "from .sphere_ops import grid_points, make_grid\n"
        "@dataclass\nclass SphereGrid:\n    pass\n"
    )) == ["SphereGrid", "_LOG_FACT", "clebsch_gordan", "log_factorial", "make_grid",
           "master_rhs", "oracles", "oracles", "oracles", "oracles", "tests", "tests.oracles"]
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        assert _oracle_links(path.read_text()) == [], path.name
        module = importlib.import_module(
            "spinphase" if path.stem == "__init__" else "spinphase." + path.stem)
        assert sorted(name for name in MOVED if hasattr(module, name)) == [], path.name
    assert MOVED.isdisjoint(spinphase.__all__)
