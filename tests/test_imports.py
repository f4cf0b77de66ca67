"""The library and `evolve` paths run on numpy and scipy.sparse alone, and
only `cli` writes files."""

import ast
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
code = cli.main(["evolve", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded = sorted(m for m in sys.modules
                if m.split(".")[:2] == ["scipy", "linalg"]
                or m.split(".")[:3] == ["scipy", "sparse", "linalg"])
print(json.dumps({"code": code, "loaded": loaded}))
"""


def test_library_and_evolve_never_import_scipy_linalg(tmp_path):
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


def _private_scipy_imports(source):
    """Names of private scipy modules (a component starting with "_") that
    the source imports, as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0] == "scipy"
                  and any(part.startswith("_") for part in name.split("."))]
    return found


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
