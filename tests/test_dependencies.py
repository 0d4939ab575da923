"""bnladder is a numpy-only library: every module imports from the standard
library, from numpy, or from bnladder itself (by relative import).  What
counts as a bool, an integer or a real argument is decided in errors.py only.
Every public name has a use outside the tests, or is a deliberate API.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import bnladder
from bnladder import IndexWindow, QuadratureConfig, SmoothingParams, build_gram, inner_spectral

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bnladder"


def _absolute_import_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = {
        (f.name, root)
        for f in files
        for root in _absolute_import_roots(ast.parse(f.read_text(), filename=str(f)))
        if root not in allowed
    }
    assert foreign == set()


def _type_rule_sites(tree: ast.AST):
    """Imports of ``numbers``, ``isinstance(..., bool)`` and ``np.bool_``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            yield "import numbers"
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            yield "from numbers import"
        elif isinstance(node, ast.Attribute) and node.attr == "bool_":
            yield "bool_"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        ):
            yield f"{node.func.id}(..., bool)"


def test_only_errors_decides_argument_types():
    sites = {
        (f.name, site)
        for f in sorted(SRC.glob("*.py"))
        if f.name != "errors.py"
        for site in _type_rule_sites(ast.parse(f.read_text(), filename=str(f)))
    }
    assert sites == set()
    errors = ast.parse((SRC / "errors.py").read_text())
    assert set(_type_rule_sites(errors)) == {"import numbers", "isinstance(..., bool)"}


def test_package_root_exports_exactly_the_submodules_names():
    """The root re-exports every name of the submodules it imports from,
    and nothing else, so a name deleted from a submodule cannot linger."""
    init = ast.parse((SRC / "__init__.py").read_text())
    sources = {n.module for n in ast.walk(init) if isinstance(n, ast.ImportFrom) and n.level == 1}
    names = set().union(*(importlib.import_module(f"bnladder.{m}").__all__ for m in sources))
    assert set(bnladder.__all__) - {"__version__"} == names


# Public names kept for library users although no module or benchmark calls
# them: the jump points of a profile, the spectral inner product of two
# profiles, the Gram JSON reader, the shell statistics criterion 08 reads,
# and the scalar ladder metric the decay oracle takes as its reference.
DELIBERATE_API = {"breakpoints", "inner_spectral", "gram_from_json", "shell_stats", "distance"}


def _used_names(tree: ast.AST):
    """Names read, attributes taken and names imported; strings and
    docstrings do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_has_a_caller_outside_the_tests():
    files = [f for f in SRC.glob("*.py") if f.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    used = set().union(*(_used_names(ast.parse(f.read_text(), filename=str(f))) for f in files))
    unused = set(bnladder.__all__) - {"__version__"} - used
    assert unused - DELIBERATE_API == set()
    assert DELIBERATE_API <= set(bnladder.__all__)


def _module_containers():
    """Every module-level dict, list and set of every bnladder module, by
    the identities of its contents."""
    out = {}
    for info in pkgutil.iter_modules(bnladder.__path__):
        module = importlib.import_module(f"bnladder.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, dict):
                out[info.name, name] = [(id(k), id(v)) for k, v in value.items()]
            elif isinstance(value, (list, set)):
                out[info.name, name] = [id(v) for v in value]
    return out


def test_spectral_builds_leave_module_state_unchanged():
    """A spectral build is a pure function of its inputs: no module keeps a
    grid or any other result between calls.  The heights and widths are
    ones no other test uses, so a hidden cache would have to grow."""
    before = _module_containers()
    assert before
    build_gram(IndexWindow(2, 1), "raw", method="spectral", quad=QuadratureConfig(t_max_raw=23.0))
    build_gram(IndexWindow(1, 2), "smoothed", smoothing=SmoothingParams(W=1.7, epsilon=1e-3))
    inner_spectral((1, 1), (2, 0), quad=QuadratureConfig(t_max_raw=17.0))
    assert _module_containers() == before


def test_cli_start_spectral_builds_and_zeta_leave_decimal_unimported():
    """zeta reduces its phases from a frozen ln p table: CLI start-up, a
    raw spectral build, a scalar call at the cap and the self-check import
    no ``decimal`` (nor ``fractions``, which imports it)."""
    code = (
        "import sys\n"
        "import bnladder.cli\n"
        "from bnladder import IndexWindow, build_gram, zeta_half, zeta_selfcheck\n"
        "build_gram(IndexWindow(2, 2), 'raw', method='spectral')\n"
        "zeta_half(9999.0)\n"
        "assert zeta_selfcheck().passed\n"
        "print(sorted({'decimal', 'fractions'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
