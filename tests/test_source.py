import ast
import sys
from pathlib import Path

import psicert

PACKAGE = Path(psicert.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must be explicit checks that raise
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in psicert: {found}"


def test_runtime_imports_only_the_standard_library():
    # psicert has no runtime dependencies: every import is the package itself or stdlib
    allowed = set(sys.stdlib_module_names) | {PACKAGE.name}
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in allowed
            ]
    assert not outside, f"imports outside the standard library: {outside}"


def _references(tree, names):
    """(enclosing top-level function or None, name) for each use of `names` outside its own def."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = owner or child.name
            if isinstance(child, ast.Name) and child.id in names:
                found.append((owner, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.append((owner, child.attr))
            elif isinstance(child, ast.alias) and child.name in names:
                found.append((owner, child.name))
            visit(child, inner)

    visit(tree, None)
    return found


def test_congruence_engine_has_one_door():
    # the row layout and the Bareiss body are reached only through inertia.congruence_factorization
    private = {"_integer_rows", "_bareiss"}
    uses = sorted(
        (f"{path.relative_to(PACKAGE)}:{owner}", name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, name in _references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), private)
    )
    door = "inertia.py:congruence_factorization"
    assert uses == [(door, "_bareiss"), (door, "_integer_rows")], f"other uses of the engine: {uses}"


def test_congruence_engine_holds_no_gaussian_rationals():
    # the factorization, its witnesses and every path from a reader to a verdict carry int tables only
    table_paths = {
        "inertia.py": None,  # the whole module
        "psi.py": None,
        "polycore.py": {
            "poly_from_json",
            "hermitian_from_json",
            "poly_to_json",
            "hermitian_to_json",
            "_parse",
            "_rational_texts",
            "_hermitian_closure",
            "packing",
            "_packed",
            "simplex_powers",
            "_convolve",
            "unpack_table",
            "packed_simplex_power",
            "simplex_power_table",
            "_shift_table",
            "hermitian_powers",
            "diagonal_multiplier_table",
            "hermitian_multiplier_table",
        },
        "reduction.py": {"decompose", "_add_squares", "reconstruction_error"},
    }
    uses = []
    for module, owners in table_paths.items():
        path = PACKAGE / module
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert owners is None or owners <= defined, f"{module} no longer defines {owners - defined}"
        uses += [
            f"{module}:{owner} {name}"
            for owner, name in _references(tree, {"GaussianRational", "GR_ZERO"})
            if owners is None or owner in owners
        ]
    assert not uses, f"Gaussian rationals on a table path: {uses}"


def test_one_monomial_packing():
    # packed monomial codes have one format: polycore.packing is the only packing
    defs = [
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "packing"
    ]
    assert defs == ["polycore.py:packing"]


def test_certificate_reads_the_shared_packing():
    # bounds.py packs and convolves only through polycore: it defines no packing, digit weights or convolution
    path = PACKAGE / "bounds.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "polycore"
        for alias in node.names
    }
    assert {"_packed", "_convolve"} <= imported
    defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defs & {"packing", "_packed", "_convolve", "code", "decode", "unpack_table"}, defs
    nested = [
        f"{outer.name}:{inner.lineno}"
        for outer in tree.body
        if isinstance(outer, ast.FunctionDef)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.Lambda))
    ]
    powers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert not nested and not powers, f"bounds.py builds its own codes: {nested} {powers}"
