"""The public surface: what ``avqclab`` exports, and what reaches it.

A public name stays in ``src/`` when the command line, a document kind, an
acceptance criterion, the benchmark, the README or an open ROADMAP item
reaches it; a test oracle belongs in ``tests/helpers.py``. These tests keep
that rule for exported names and for the public methods and properties of
exported classes, keep every ``config`` constant read and every import of a
library module in use, keep every size cap out of the signatures, keep
product-channel images to one engine, and run the README's quick start.
"""

import ast
import contextlib
import inspect
import io
import pathlib
import re
import types

import avqclab

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "avqclab"
BENCH = ROOT / "bench"

# Public names that no other library module, acceptance criterion or
# benchmark file names, with what keeps each of them; a method or property
# takes a "Class.attr" key.
KEPT_BY = {
    "MinimaxResult": "result of cq_random_capacity (avqclab capacity)",
    "ErrorReport": "result of evaluate_code (avqclab simulate)",
    "FidelityReport": "result of evaluate_entanglement_code (ROADMAP items 2 and 7)",
    "CorrelatedEntanglementCode": "ROADMAP items 2 and 7: factored images, scored by phase",
    "evaluate_entanglement_code": "ROADMAP items 2 and 7: the L=7 entanglement wall",
    "compose_two_phase_entanglement": "ROADMAP item 7: factored like compose_two_phase",
    "reduce_to_classical_weighted": (
        "ROADMAP item 2: the transfer-matrix kernel stays for it; it returns the "
        "diagonal AvCqc that capacity solves"
    ),
    "BinaryReduction": "result of binary_reduction (avqclab cr)",
    "CrExtractability": "result of cr_extractable (avqclab cr)",
    "WitsenhausenSplit": "result of witsenhausen_binarize (acceptance criterion 8)",
    "CrFunctionsPair": "ROADMAP item 9: the maximal-correlation bound is checked on pairs",
    "CrPairStatistics": "ROADMAP item 9: reports rho and the bound",
    "cr_pair_statistics": "ROADMAP item 9: the bound is checked through it",
    "shannon_entropy": "README module table: measures provides the entropies",
    "von_neumann_entropy": "README module table: measures provides the entropies",
    "identity_channel": "README quick start",
    "probes_to_document": "writes the probe_set kind that avqclab symcheck --probes reads",
    "SymmetrizabilityVerdict": "result of check_symmetrizable (avqclab symcheck)",
    "SymmetrizingFamily": "witness of check_symmetrizable (avqclab symcheck)",
}


def _identifiers(path: pathlib.Path) -> set:
    """Every name, attribute, imported name and identifier-like string in a file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():  # attributes patched by name
                found.add(node.value)
    return found


def _owners() -> dict:
    return {
        name: module.__name__.rsplit(".", 1)[1]
        for module in avqclab._MODULES
        for name in module.__all__
    }


def test_no_module_is_exported():
    assert len(avqclab.__all__) == len(set(avqclab.__all__))
    modules = [n for n in avqclab.__all__ if isinstance(getattr(avqclab, n), types.ModuleType)]
    assert modules == []
    namespace = {}
    exec("from avqclab import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(avqclab.__all__)


def test_every_public_name_is_reached():
    owners = _owners()
    outside = {path.stem: _identifiers(path) for path in SRC.glob("*.py")}
    reached = _identifiers(ROOT / "tests" / "test_acceptance.py")
    for path in BENCH.glob("*.py"):
        reached |= _identifiers(path)
    unreached = []
    for name, owner in owners.items():
        in_src = any(
            name in names for stem, names in outside.items() if stem not in (owner, "__init__")
        )
        if not (in_src or name in reached or name in KEPT_BY):
            unreached.append(name)
    assert unreached == [], "reach these from the CLI or a test oracle, or delete them"
    assert sorted({key for key in KEPT_BY if "." not in key} - set(owners)) == []


def _public_methods() -> list:
    """"Class.attr" for each public method and property of each exported class."""
    found = []
    for module in avqclab._MODULES:
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in module.__all__:
                found += [
                    f"{cls.name}.{node.name}"
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                ]
    return found


def test_every_public_method_is_reached():
    # a method is reached through the objects that library code holds, so its
    # own module counts; an attribute is matched by name, whatever its class
    reached = set()
    for path in [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py", *BENCH.glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reached |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    methods = _public_methods()
    unreached = [m for m in methods if m.split(".")[1] not in reached and m not in KEPT_BY]
    assert unreached == [], "reach these from the CLI or a test oracle, or delete them"
    assert sorted(key for key in KEPT_BY if "." in key and key not in methods) == []


def _parameters(obj) -> set:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # not callable, or a builtin without a signature
        return set()


def test_no_public_callable_takes_a_budget():
    # every size cap is a fixed config constant (README, "Size caps"), not an argument
    takers = [name for name in avqclab.__all__ if "budget" in _parameters(getattr(avqclab, name))]
    for key in _public_methods():
        cls, attr = key.split(".")
        if "budget" in _parameters(getattr(getattr(avqclab, cls), attr)):
            takers.append(key)
    assert takers == []


def test_every_config_constant_is_read():
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    constants = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    read = set()
    for path in SRC.glob("*.py"):
        if path.stem != "config":
            read |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in constants if name not in read] == []


def _imported_names(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")  # such as "BipartiteSource"
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert unused == []


# Where the channel kernel may be referenced: the image tree, which forms
# every product-channel image, and the one-slot maps. A second product loop
# would have to call the kernel from somewhere else.
KERNEL_USERS = {
    ("quantum", "_ImageTree._expand"),
    ("quantum", "apply_channel"),
    ("avqc", "reduce_to_classical_weighted"),
}


def _references(tree: ast.Module, name: str) -> set:
    """Qualified names of the functions and classes whose bodies mention ``name``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif getattr(child, "id", getattr(child, "attr", None)) == name:  # a name or attribute
                found.add(scope)
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_the_image_tree_and_one_slot_maps_use_the_channel_kernel():
    users = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        users |= {(path.stem, scope) for scope in _references(tree, "apply_channel_to_slot_batch")}
    assert users == KERNEL_USERS


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Quick start:\s*```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    feasible, success = out.getvalue().split()
    assert feasible == "False"
    assert abs(float(success) - 0.75) <= 1e-12
