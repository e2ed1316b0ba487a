"""The test suite's own pytest configuration and the hygiene of the sources."""

import ast
import ctypes.util
import os
import subprocess
import sys
from dataclasses import fields
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
# if any thread besides the main one is alive after a run (the lab runs on
# one thread), and prints every loaded module of the two scipy subpackages
# the lab leaves out.
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
    # of every run's import; the lab's interpolants are numpy kernels.
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "[]", proc.stdout[-2000:]


# One folded 257^2 neck solve, one 129^2 eigen solve and one masked solve
# at resolution 64: every sparse construction of the three solvers, with
# the scipy kernels that index through them.
HEAP_CHECK = '''
from onephase_lab.axisym_field import GridSpec, solve_semilinear
from onephase_lab.config import ExperimentConfig
from onephase_lab.experiments import boundary_data
from onephase_lab.onephase_geometry import solve_harmonic_masked
from onephase_lab.reaction_terms import make_polynomial_beta
from onephase_lab.reference import StripNeckExact
from onephase_lab.stability import linearized_rayleigh_min

beta = make_polynomial_beta()
data = boundary_data(ExperimentConfig(boundary_model="catenoid"), beta)
for nodes in (257, 129):
    res = solve_semilinear(beta, GridSpec(n=3, s_max=3.0, t_min=-1.5, t_max=1.5, ns=nodes, nt=nodes), data)
linearized_rayleigh_min(res.field, beta)
ref = StripNeckExact()
solve_harmonic_masked(GridSpec(n=2, s_min=1.0, s_max=3.3, t_min=-1.0, t_max=1.0, ns=148, nt=129), ref.level, ref.u)
'''


def test_solvers_keep_the_heap_intact():
    # glibc's malloc checks, on every allocation of the interpreter too
    # (PYTHONMALLOC=malloc), report a write past a buffer as a message on
    # stderr; glibc 2.34 and later reads MALLOC_CHECK_ only with its debug
    # library preloaded
    debug = ctypes.util.find_library("c_malloc_debug")
    env = {**os.environ, "PYTHONMALLOC": "malloc", "MALLOC_CHECK_": "3", **({"LD_PRELOAD": debug} if debug else {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", HEAP_CHECK], capture_output=True, text=True, timeout=300, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-2000:]


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


# public names nothing in the lab reaches, each kept on purpose
_UNREACHED_ON_PURPOSE = {
    # the paper's second variation Q(xi) as a function of a test direction:
    # public API that the tests hold the assembled eigen operator against
    "quadratic_form",
    # its weighted norm |xi|^2_w, the Rayleigh quotient's denominator: the
    # runs read both off the field's coefficients (stability._FieldForm)
    "weighted_norm_sq",
    # the tags classify builds as CASE_I + REFLECTED and CASE_II + REFLECTED,
    # named for callers that compare against them
    "CASE_I_REFLECTED",
    "CASE_II_REFLECTED",
    # the reader of the AXIF fields a run writes (field.bin, eigenvector.bin),
    # documented in README for whoever post-processes a run
    "load_binary",
}


def _public_definitions(tree):
    """(name, node) of the public module-level functions, classes and
    constants of ``tree`` and of the public methods and properties of its
    classes; a decorated module-level function is reached through its
    decorator (a CLI command, say) and is left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.name, member
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            if not (isinstance(node, ast.FunctionDef) and node.decorator_list):
                yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node


def _references(tree, skip=None):
    """Names, attributes and identifier strings (``getattr``-style hooks) read
    in ``tree``, outside the subtree ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_name_is_reached_by_the_lab():
    # the package is what the experiments, scripts and benchmark run: a public
    # name or class member that only __init__ re-exports and only tests read
    # belongs in tests/.  Members are matched by name, so one that shares its
    # name with anything the lab reads (a local variable, say) passes unseen.
    root = PYPROJECT.parent
    paths = [p for d in ("src", "scripts", "perfbench") for p in sorted((root / d).rglob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    everywhere = {p: _references(tree) for p, tree in trees.items()}
    unreached = []
    for path in sorted((SRC / "onephase_lab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, node in _public_definitions(trees[path]):
            elsewhere = any(name in refs for p, refs in everywhere.items() if p != path)
            if not elsewhere and name not in _references(trees[path], skip=node):
                unreached.append(name)
    assert sorted(set(unreached) - _UNREACHED_ON_PURPOSE) == []
    assert _UNREACHED_ON_PURPOSE <= set(unreached), "a name kept on purpose is reached now: drop it from the list"


def _private_definitions(tree):
    """(name, node) of the private module-level functions, classes and
    constants of ``tree``; dunder names (``__version__``) are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_every_private_name_is_read_in_the_package():
    # a private helper, class or constant that nothing in src/ reads is left
    # over from a deletion; a test that reads it does not keep it alive
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted((SRC / "onephase_lab").glob("*.py"))}
    everywhere = {p: _references(tree) for p, tree in trees.items()}
    orphans = [
        f"{path.name}: {name}"
        for path, tree in trees.items()
        for name, node in _private_definitions(tree)
        if name not in _references(tree, skip=node)
        and not any(name in refs for p, refs in everywhere.items() if p != path)
    ]
    assert len(trees) > 5
    assert orphans == []


def test_no_module_of_the_package_reads_the_environment():
    # a run's only input is its config file and the flags that set its keys
    environment = {"environ", "environb", "getenv", "getenvb"}
    reads = {
        f"{path.name}: {name}"
        for path in sorted((SRC / "onephase_lab").glob("*.py"))
        for name in _references(ast.parse(path.read_text(), filename=str(path))) & environment
    }
    assert reads == set()


def test_no_module_of_the_package_skips_or_zeroes_undefined_values():
    # an undefined value stays NaN until a check reads it: a NaN-skipping
    # reduction or nan_to_num would let a field holding a NaN pass its checks
    skipping = {"nanmax", "nanmin", "nansum", "nanmean", "nan_to_num"}
    calls = sorted(
        f"{path.name}:{node.lineno} {name}"
        for path in sorted((SRC / "onephase_lab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "attr", getattr(node.func, "id", None))]
        if name in skipping
    )
    assert calls == []


def _node(expr, k):
    """Whether ``expr`` reads entry ``k`` of something, x[k]."""
    return isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Constant) and expr.slice.value == k


def test_no_module_of_the_package_differences_two_nodes_for_a_spacing():
    # the grid spacing has one definition, axisym_field._spacing; a node
    # difference x[1] - x[0] misses it at round-off on most grids
    sites = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "onephase_lab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and _node(node.left, 1) and _node(node.right, 0)
        and ast.dump(node.left.value) == ast.dump(node.right.value)
    )
    assert sites == []


def test_the_sphere_area_enters_the_grid_weights_in_one_place():
    # every grid weight is a product of axisym_field._weight_factors; another
    # unit_sphere_area call (besides the interface measure) writes the
    # weight rule a second time
    sites = sorted(
        f"{path.name}: {getattr(statement, 'name', '<module>')}"
        for path in sorted((SRC / "onephase_lab").glob("*.py"))
        if path.name != "numerics.py"
        for statement in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unit_sphere_area"
    )
    assert sites == ["axisym_field.py: _weight_factors", "onephase_geometry.py: surface_integral"]


def test_the_interface_layer_samples_fields_through_its_ray_alone():
    # every interface read goes through ``_ray``, which marks a read off the
    # grid or next to an undefined node as NaN; a second ``.sample(`` call
    # site would read extrapolated or zero-filled values unseen
    tree = ast.parse((SRC / "onephase_lab" / "onephase_geometry.py").read_text())
    sites = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "sample"
    ]
    assert sites == ["_ray"]
    # and the ray leaves the grid's bounds to ``AxiField.sample``
    ray = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_ray")
    assert not any(isinstance(node, ast.Compare) for node in ast.walk(ray))


def test_no_band_is_read_off_a_transposed_matrix():
    # ``.T`` of a CSR matrix is a transposed copy; a line's below-coupling
    # J[k + 1, k] is the minus arm of the entry after it, a band of J itself
    sites = sorted(
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "onephase_lab").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_band"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "T" for arg in node.args)
    )
    assert sites == []


def test_every_config_field_declares_its_key():
    # the file parser and the canonical text read the keys off the fields, so
    # a field without a section would be a run input no config file can set
    from onephase_lab.config import ExperimentConfig

    assert [f.name for f in fields(ExperimentConfig) if "section" not in f.metadata] == ["tolerances"]
