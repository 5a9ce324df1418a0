"""The package's public names, and what its modules may import.

``utilcheck.__all__`` is pinned, so that any change to the public API shows
up in a diff of this file.  No module imports ``random``: every verdict is
decided exactly, and none may rest on a sample.  ``coincidence`` imports
nothing from ``alt``: the pipeline decides matching on the tables.  Only
``core`` lays a table out in state order: every other module reads
``UtilityTable.column``, never a table's ``ratios`` view by state.  No
module but ``__init__``, which re-exports, imports a name it never reads,
and every private module-level function or class, and every private
method, is read somewhere in the package.  Which module imports which at
run time is pinned, and the graph has no cycle.
"""

from __future__ import annotations

import ast
from pathlib import Path

import utilcheck

SRC = Path(utilcheck.__file__).resolve().parent

PUBLIC_NAMES = [
    "AgentVerdict", "AltSystem", "Analysis", "CheckResult", "CoincidenceReport", "DifferenceMap",
    "DifferenceMapError", "GridDim", "HarveyReport", "LotteryWitnessPair",
    "MissingGridPointError", "NormalizationError", "Profile", "SimpleLottery", "SimplexFixture",
    "Society", "SocietyFileError", "SpanProblem", "SqrtFixture", "StandardSequence",
    "StateSpace", "UtilityTable", "ViolationWitness", "WeightReport",
    "affine_relation", "alt", "alt_represents", "build_difference_map",
    "build_standard_sequence", "check_axiom_I", "check_axiom_i", "check_consistency",
    "check_crossover", "check_pareto_criterion", "check_semi_separable", "coincidence", "core",
    "emit_society", "expectation", "extract_slopes", "first_disagreement",
    "format_rational", "harsanyi", "harvey", "harvey_recover", "linalg", "linear_combination",
    "matches", "nm", "normalize_for_theorem3", "order_disagreement", "pareto_dominates",
    "parse_rational", "parse_society", "positive_reweighting", "proposition1_check",
    "rationals", "reconstruct_alt_utility", "recover_constant", "recover_weights",
    "simplex_counterexample", "society", "society_to_payload",
    "societyfile", "sqrt_fixture", "theorem3_pipeline", "verify_component_additivity",
    "witness_lotteries_for_sign",
]


def test_public_names_are_pinned():
    assert sorted(utilcheck.__all__) == PUBLIC_NAMES


def _imported_modules(path: Path) -> set[str]:
    """The top-level name of every absolute module the file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_random():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [p.name for p in modules if "random" in _imported_modules(p)] == []


def _package_imports(path: Path) -> set[str]:
    """Every module of the package that the file imports, by its name in the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {a.name[10:] for a in node.names if a.name.startswith("utilcheck.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "utilcheck":
                    continue
                module = module[10:]
            found |= {module} if module else {alias.name for alias in node.names}
    return found


def _unread_imports(path: Path) -> list[str]:
    """Each name the file imports, ``__future__`` aside, that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for p in modules for hit in _unread_imports(p)] == []


#: Each module's run-time imports from the package (``from .x import``),
#: leaving out ``__init__``, which re-exports, and ``TYPE_CHECKING`` blocks.
IMPORT_GRAPH = {
    "alt": ["core", "rationals", "society"],
    "cli": ["coincidence", "harsanyi", "harvey", "rationals", "societyfile"],
    "coincidence": ["core", "harsanyi", "harvey", "nm", "society"],
    "core": ["rationals"],
    "harsanyi": ["core", "linalg", "rationals", "society"],
    "harvey": ["core", "harsanyi", "society"],
    "linalg": [],
    "nm": ["core", "harsanyi"],
    "rationals": [],
    "society": ["core"],
    "societyfile": ["core", "rationals", "society"],
}


def _runtime_imports(path: Path) -> set[str]:
    """Every package module the file imports by a relative import outside ``if TYPE_CHECKING:``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for statement in node.body
        for inner in ast.walk(statement)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_the_import_graph_is_pinned_and_acyclic():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    graph = {p.stem: sorted(_runtime_imports(p)) for p in modules}
    assert graph == IMPORT_GRAPH
    # Peel off the modules that import none of those left; a cycle leaves none to peel.
    left = {name: set(edges) for name, edges in graph.items()}
    while left:
        leaves = [name for name, edges in left.items() if not edges & left.keys()]
        assert leaves, f"import cycle among {sorted(left)}"
        for name in leaves:
            del left[name]


def test_coincidence_imports_nothing_from_alt():
    imported = _package_imports(SRC / "coincidence.py")
    assert {"core", "society"} <= imported
    assert "alt" not in imported


def _table_layouts(path: Path) -> list[str]:
    """Each read of a ``.ratios`` view, and of a ``.scaled`` view not on ``self``, as ``file:line``.

    A ``SpanProblem`` reads its own scaled rows as ``self.scaled``.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
        if node.attr == "ratios" or (node.attr == "scaled" and not on_self):
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
    return found


def test_only_core_lays_out_a_table_in_state_order():
    assert _table_layouts(SRC / "core.py")  # the scan sees core's own reads
    others = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")
    assert others
    assert [hit for p in others for hit in _table_layouts(p)] == []


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Each private module-level function or class, and each private method, with its line.

    Private is one leading underscore and not a dunder name.
    """
    found = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                name = d.name
                if name.startswith("_") and not name.endswith("__"):
                    found.append((name, d.lineno))
    return found


def test_every_private_definition_is_read():
    modules = sorted(SRC.glob("*.py"))
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in modules}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in _private_definitions(tree)
        if private not in read
    ]
    assert unread == []
