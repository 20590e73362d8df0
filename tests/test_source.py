import ast
import sys
from dataclasses import fields
from pathlib import Path

import psicert
from psicert.inertia import CongruenceFactorization

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


def test_congruence_engine_has_two_doors():
    # the row layout with its block labels and the Bareiss body are reached only through
    # inertia.congruence_factorization and the stopping verdict inertia.psd_factorization;
    # the block scan is gone, its labels coming from the row layout
    private = {"_integer_rows", "_blocks", "_bareiss"}
    uses = sorted(
        (f"{path.relative_to(PACKAGE)}:{owner}", name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, name in _references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), private)
    )
    doors = ("inertia.py:congruence_factorization", "inertia.py:psd_factorization")
    expected = [(door, name) for door in doors for name in ("_bareiss", "_integer_rows")]
    assert uses == expected, f"other uses of the engine: {uses}"


def test_hermitian_products_reach_the_engine_as_hermitian_polys():
    # HermitianPoly holds symmetry and the minimal scale, so inertia checks neither and no caller
    # unpacks a product into an (L, table) tuple for the engine, the witness check or the verdict
    assert "NotHermitian" not in (PACKAGE / "inertia.py").read_text(encoding="utf-8")
    takers = {"congruence_factorization", "table_quadratic_form", "_psd_verdict", "_shift_table"}
    tuples = [
        f"{path.relative_to(PACKAGE)}:{owner}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, node in _calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) in takers
        and any(isinstance(arg, ast.Tuple) for arg in node.args)
    ]
    assert not tuples, f"tuples passed for a Hermitian product: {tuples}"


def test_reduction_lays_no_row_over_the_basis():
    # a row is its nonzero (col, re, im) entries from elimination to reduction: reduction.py repeats no
    # list over a length, as [(0, 0)] * len(basis) lays a row out over the basis
    path = PACKAGE / "reduction.py"
    layouts = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(isinstance(side, ast.List) for side in (node.left, node.right))
        and any(
            isinstance(side, ast.Call) and getattr(side.func, "id", None) == "len" for side in (node.left, node.right)
        )
    ]
    assert not layouts, f"rows laid out over the basis at lines {layouts}"


def test_factorizations_are_built_at_one_site():
    # one elimination body builds every CongruenceFactorization; nothing assembles one from pieces
    sites = [
        f"{path.relative_to(PACKAGE)}:{owner}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for owner, node in _calls(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        == "CongruenceFactorization"
    ]
    assert sites == ["inertia.py:_bareiss"], f"CongruenceFactorization built at: {sites}"


def test_factorization_stores_its_elimination_record_only():
    # column scales and rows of T^-1 are views of (basis, scale, pivots, steps): the Bareiss body keeps no copy
    assert [field.name for field in fields(CongruenceFactorization)] == ["basis", "scale", "pivots", "steps"]
    path = PACKAGE / "inertia.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_bareiss")
    copies = {"unit", "inverse_rows", "scales"} & {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        for node in ast.walk(body)
        if isinstance(node, (ast.Name, ast.Attribute, ast.keyword))
    }
    assert not copies, f"_bareiss keeps {copies}"


def _calls(tree):
    """(enclosing top-level function or None, call node) for each call in `tree`."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield owner, node


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
            "_horner",
            "_digits",
            "packing",
            "_line_columns",
            "_moves",
            "diagonal_lines",
            "simplex_power_lines",
            "multiply_by_simplex_power",
            "multiplier_lines",
            "_shift_table",
            "hermitian_powers",
            "hermitian_multiplier_table",
            "_ratio",
            "_exponents_sound",
            "_hermitian_from_ratios",
            "_rational_str",
            "_json_int",
            "sign_counts",
        },
        "reduction.py": None,
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
        lines = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DiagonalLines"]
        rationals = {"GaussianRational", "GR_ZERO", "Fraction"}
        uses += [f"{module}:DiagonalLines {name}" for cls in lines for _, name in _references(cls, rationals)]
    assert not uses, f"Gaussian rationals on a table path: {uses}"


def test_only_psi_picks_the_route():
    # the CLI asks psi for verdicts and signatures; it neither routes an input nor factors one itself
    path = PACKAGE / "cli.py"
    routing = {"sign_counts", "inertia", "congruence_factorization", "diagonal_real_bridge", "is_diagonal"}
    uses = _references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), routing)
    assert not uses, f"cli.py routes or factors: {uses}"


def test_one_monomial_packing():
    # packed keys have one codec: polycore's _horner encodes, _digits decodes, and packing, the
    # monomial codec, is built on them; each is defined once
    codec = {"packing", "_horner", "_digits"}
    defs = sorted(
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in codec
    )
    assert defs == ["polycore.py:_digits", "polycore.py:_horner", "polycore.py:packing"]


def _polycore_imports(tree) -> set:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "polycore"
        for alias in node.names
    }


def test_certificate_reads_the_shared_packing():
    # bounds.py packs through polycore and takes its power-1 verdict from the line engine: it
    # defines no packing, digit weights, line layout or product of its own
    path = PACKAGE / "bounds.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert {"packing", "simplex_power_lines"} <= _polycore_imports(tree)
    defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    own = {"packing", "_horner", "_digits", "_packed", "_line_columns", "_line_keys", "_moves"}
    own |= {"code", "encode", "decode", "times", "times_simplex"}
    assert not defs & own, defs
    nested = [
        f"{outer.name}:{inner.lineno}"
        for outer in tree.body
        if isinstance(outer, ast.FunctionDef)
        for inner in ast.walk(outer)
        if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.Lambda))
    ]
    powers = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert not nested and not powers, f"bounds.py builds its own codes: {nested} {powers}"


def test_one_diagonal_product_engine():
    # polycore holds a diagonal product one way, as DiagonalLines, built in one function and
    # multiplied in one method; psi and bounds reach products only through the engine's builders
    # and public methods, never through the line layout; the per-monomial convolution is gone, and
    # so are the second line builder and the second simplex walk
    path = PACKAGE / "polycore.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    gone = {"_convolve", "simplex_powers", "packed_simplex_power", "unpack_table", "diagonal_multiplier_table"}
    gone |= {"packed_lines", "_gathered", "simplex_signs", "_packed", "_line_keys"}
    assert not defs & gone, defs & gone
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    builders = sorted(
        fn.name
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "DiagonalLines"
    )
    assert builders == ["_moved", "diagonal_lines"], builders
    engine = {"diagonal_lines", "simplex_power_lines", "multiplier_lines"}
    layout = {"_line_columns", "_moves", "DiagonalLines"}
    internals = {"lines", "width", "base", "top", "room", "gain", "_moved", "_shares", "_check_slots", "_slot"}
    reached = {}
    for module in ("psi.py", "bounds.py"):
        path = PACKAGE / module
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = _polycore_imports(tree)
        reached[module] = imported & engine
        touched = [
            node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in internals
        ]
        assert not imported & layout and not touched, (module, imported & layout, touched)
    assert reached == {
        "psi.py": {"diagonal_lines", "simplex_power_lines", "multiplier_lines"},
        "bounds.py": {"simplex_power_lines"},
    }


def test_inertia_is_the_submodule():
    # the package binds no function over the name of its submodule
    import psicert.inertia as module

    assert module is sys.modules["psicert.inertia"] is psicert.inertia
    assert callable(module.inertia) and module.inertia.__module__ == "psicert.inertia"


def test_readme_library_tour_runs():
    # the first python block of the README imports and calls only names the package still has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
