"""Source hygiene: no unused imports, no import inside a function, no
private helper (nor any intlinalg function) that nothing
in the package calls, no RunConfig field that nothing reads or that the
README does not name, no scipy at run time, no random numbers, no cache
keyed by a field or a zero list, and no comparison against a kernel's
name."""

import ast
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from zetaheights.config import RunConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zetaheights"


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _names(node):
    """Every identifier read in node, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused


def test_no_function_level_imports():
    """Every module, the package's own included, is imported at module top,
    so that no import cycle hides inside a function."""
    nested = set()
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(f"{name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert sorted(nested) == []


def test_every_private_definition_is_referenced():
    modules = _modules()
    # names read by each top-level statement, so that a recursive helper
    # does not count as a use of itself
    reads = [(name, node, _names(node))
             for name, tree in modules.items() for node in tree.body]
    dead = []
    for name, node, _ in reads:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not any(node.name in names for _, other, names in reads
                            if other is not node)):
            dead.append(f"{name}: {node.name}")
    assert not dead


def test_every_intlinalg_function_is_read():
    """intlinalg is internal and not exported, so each of its top-level
    functions, public names too, is read somewhere in the package outside
    its own definition."""
    modules = _modules()
    reads = [(node, _names(node)) for tree in modules.values() for node in tree.body]
    dead = [node.name for node in modules["intlinalg.py"].body
            if isinstance(node, ast.FunctionDef)
            and not any(node.name in names for other, names in reads if other is not node)]
    assert dead == []


def test_every_run_config_field_is_read():
    """Each RunConfig field is read as an attribute somewhere in the package
    outside config.py, so that no knob outlives its reader."""
    modules = _modules()
    config = next(node for node in modules.pop("config.py").body
                  if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    knobs = [node.target.id for node in config.body if isinstance(node, ast.AnnAssign)]
    read = {sub.attr for tree in modules.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    assert [knob for knob in knobs if knob not in read] == []


def test_every_run_config_field_is_documented():
    """Each RunConfig field appears in backticks in README.md, so that every
    key a config file may set is named where users look for it."""
    readme = (ROOT / "README.md").read_text()
    assert [f.name for f in fields(RunConfig) if f"`{f.name}`" not in readme] == []


def test_no_scipy_import_in_the_package():
    """The package runs on numpy and the standard library alone; scipy is a
    test oracle only."""
    found = [f"{name}:{node.lineno}" for name, tree in _modules().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(
                 alias.name.split(".")[0] == "scipy" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and (node.module or "").split(".")[0] == "scipy"]
    assert found == []


def test_no_random_numbers_in_the_package():
    """No module imports random or reads numpy.random, so every result is
    the same on every run without a seed to fix."""
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                dotted = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                dotted = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if any(d.split(".")[0] == "random" or d.split(".")[:2] in (
                    ["numpy", "random"], ["np", "random"]) for d in dotted):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_import_loads_no_scipy_module():
    """A fresh interpreter that imports the package and its CLI has no
    scipy module loaded."""
    code = ("import sys, zetaheights, zetaheights.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


# parameters kept for callers that pass them positionally and may not change
UNREAD_PARAMETERS_ALLOWED = {("bounds.py", "corollary_S_check", "f"),
                             ("bounds.py", "zeros_theorem_report", "f")}


def test_every_parameter_is_read():
    """Every parameter of every function and lambda in the package is loaded
    in its body, so that no argument is passed only to be dropped."""
    unread = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {sub.id for node in body for sub in ast.walk(node)
                      if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            label = getattr(fn, "name", "<lambda>")
            unread += [(name, label, p) for p in params if p not in loaded
                       and (name, label, p) not in UNREAD_PARAMETERS_ALLOWED]
    assert unread == []


def test_no_cached_function_takes_a_field_or_zero_list():
    """No lru_cache-decorated function takes a NumberField or a ZeroList.
    What is computed about one field lives on its K.state, so a module-level
    cache never serves one field's results for another nor keeps a field
    alive. Every parameter of a cached function is annotated, so that the
    check sees what it takes."""
    found = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any({"lru_cache", "cache"} & _names(d) for d in fn.decorator_list)):
                continue
            args = fn.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                hint = ast.unparse(a.annotation) if a.annotation else ""
                if not hint or "NumberField" in hint or "ZeroList" in hint:
                    found.append(f"{name}: {fn.name}({a.arg}: {hint or '?'})")
    assert found == []


def test_no_comparison_names_a_kernel():
    """No comparison in the package has the string "exponential" or
    "gaussian" as an operand, alone or inside the tuple, list or set it
    tests membership of: what depends on the test function lives in its
    kernel class."""
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                elts = (operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set))
                        else [operand])
                if any(isinstance(e, ast.Constant) and e.value in ("exponential", "gaussian")
                       for e in elts):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_array_prime_sums_take_no_exact_sum_over_a_list():
    """explicit, bounds and towers sum their prime arrays with numpy's
    pairwise sum (explicit.pairwise_sum): no math.fsum over .tolist()."""
    found = []
    for name in ("explicit.py", "bounds.py", "towers.py"):
        for node in ast.walk(_modules()[name]):
            if (isinstance(node, ast.Call) and "fsum" in _names(node.func)
                    and any("tolist" in _names(arg) for arg in node.args)):
                found.append(f"{name}:{node.lineno}")
    assert found == []
