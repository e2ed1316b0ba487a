"""The test suite's own pytest configuration and the hygiene of the sources."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # on failure hypothesis imports libcst, whose mypy_extensions import warns;
    # under filterwarnings = error that warning must not abort the session
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]


SRC = PYPROJECT.parent / "src"

# Runs every experiment once, on tiny configs, in a fresh interpreter, fails
# if a thread besides the main one outlives a run, and prints every loaded
# module of the two scipy subpackages the lab leaves out.
IMPORT_GUARD = '''
import sys
import threading
from pathlib import Path

from click.testing import CliRunner

import onephase_lab
from onephase_lab.cli import main

tmp = Path(sys.argv[1])
grid = "[grid]\\nn = 3\\ns_max = 2.0\\nt_min = -2.0\\nt_max = 2.0\\nns = 33\\nnt = 33\\n"
for name in ("solve", "stability"):
    (tmp / f"{name}.cfg").write_text(f"[experiment]\\nname = {name}\\n\\n" + grid)
runs = (
    ["profile", "--a", "0.5"],
    ["figure1"],
    ["window"],
    ["blowdown"],
    ["solve", "--config", str(tmp / "solve.cfg")],
    ["stability", "--config", str(tmp / "stability.cfg")],
    ["onephase", "--preset", "strip_neck", "--resolution", "48"],
)
for args in runs:
    result = CliRunner().invoke(main, [*args, "--out", str(tmp / args[0])])
    assert result.exit_code == 0, (args, result.output)
    assert threading.enumerate() == [threading.main_thread()], (args, threading.enumerate())
print(sorted(m for m in sys.modules if m.startswith(("scipy.interpolate", "scipy.optimize"))))
'''


def test_lab_runs_without_scipy_interpolate_or_optimize(tmp_path):
    # scipy.interpolate (and the scipy.optimize it pulls in) cost about 0.3 s
    # of every run's import; the lab's interpolants are numpy kernels.  A
    # worker thread left alive would count against the cores of the host.
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[]", proc.stdout[-2000:]


def _unused_imports(path):
    """(line, name) of every name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    root = PYPROJECT.parent
    paths = [p for d in ("src", "tests", "scripts") for p in sorted((root / d).rglob("*.py")) if p.name != "__init__.py"]
    assert len(paths) > 20
    unused = [f"{p.relative_to(root)}:{line} {name}" for p in paths for line, name in _unused_imports(p)]
    assert unused == []
