"""Public-API stability: every exported name resolves and is documented."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.network",
    "repro.sat",
    "repro.sfq",
    "repro.core",
    "repro.circuits",
    "repro.io",
    "repro.pipeline",
    "repro.pipeline.passes",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    exported = getattr(mod, "__all__", [])
    for name in exported:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_documented(package):
    mod = importlib.import_module(package)
    undocumented = []
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name, None)
        if obj is None:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{package}.{name}")
    assert not undocumented, undocumented


def test_lazy_top_level_attributes():
    import repro

    assert callable(repro.run_many)
    assert repro.Pipeline.standard().names()
    assert "adder" in repro.benchmark_registry
    with pytest.raises(AttributeError):
        repro.nonexistent_attribute


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_cli_entry_point_configured():
    import tomllib

    with open("pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["scripts"]["repro-flow"] == "repro.cli:main"


def _import_roots(path: Path):
    """Root module of every absolute import in *path*, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


#: test oracles are never shipped (they live in tests/oracles)
ORACLE_NAMES = {
    "simulate_nodewise",
    "plan_t1_inputs_cp",
    "node_function_on_leaves",
    "InfeasibleError",
    "SolverLimitError",
}
ORACLE_SUFFIXES = ("_reference", "_enum")
#: the bit-exact software models of generated circuits are public API
#: (examples/fir_streaming.py checks a circuit against one), not oracles
CIRCUIT_MODELS = {"cordic_sin_reference", "fir_reference", "log2_reference"}


def _defined_names(path: Path):
    """Every function/class name and module-level assignment in *path*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_package_ships_no_oracles():
    """Oracles stay in tests/oracles; the package never imports tests."""
    found = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        where = path.relative_to(REPO)
        for name, lineno in _defined_names(path):
            if name in CIRCUIT_MODELS:
                continue
            if name in ORACLE_NAMES or name.endswith(ORACLE_SUFFIXES):
                found.append(f"{where}:{lineno}: defines {name}")
        for root, lineno in _import_roots(path):
            if root in ("tests", "oracles"):
                found.append(f"{where}:{lineno}: imports {root}")
    assert not found, found


def test_every_import_is_declared():
    """The package imports only the stdlib, itself and declared deps."""
    import tomllib

    with open(REPO / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in deps}
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared
    undeclared = [
        f"{path.relative_to(REPO)}:{lineno}: {root}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        for root, lineno in _import_roots(path)
        if root not in allowed
    ]
    assert not undeclared, undeclared


def test_flow_never_imports_numpy():
    """The flow, CLI and service run on the standard library alone."""
    script = (
        "import importlib, sys\n"
        f"for name in {PACKAGES + ['repro.cli', 'repro.service']!r}:\n"
        "    importlib.import_module(name)\n"
        "from repro.circuits import ripple_carry_adder\n"
        "from repro.pipeline import Pipeline\n"
        "assert Pipeline.standard().run(ripple_carry_adder(4)).verified\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
