"""Source rules that no runtime test can see.

No safety check in the package is a bare ``assert``: ``python -O`` strips
those, so a broken invariant would pass silently.  Checks raise instead.

No dead code is left behind: every name a module imports is used in it or
re-exported through ``__all__``, every private module-level function or
class is referenced somewhere in the package, and every public function,
method or property is referenced in the package or the benchmark harness.

``Code(...)`` validates its entries, so the package calls it only where
outside input arrives; everything built inside uses ``Code._trusted``.

Nothing in the package memoizes: no ``functools.cache``, ``lru_cache`` or
``cached_property``.  A benchmark that repeats the same inputs every pass
would time the cache instead of the kernel.

A code's or a necklace's comma literal is built in one function and its
bead word in another; ``__str__``, ``Necklace.word`` and ``code_to_word``
call them, and so do the two renderers of a sigma table, which print its
entry tuples without wrapping them.

A sigma table holds entry tuples from its build to its output:
``build_sigma`` wraps no pair in a ``Code`` or a ``Necklace`` and calls
no ``canonicalize``, and ``bijection.py`` does not import ``Necklace``.

Which built-in sigma construction serves a cell is decided in one place,
the rows of ``bijection.CONSTRUCTIONS``: ``sigma_table`` tests no primality
or gcd of its own, and ``certify`` takes its riwi checks' cells from those
rows.

A riwi map is judged by one rule: ``check_riwi`` is the only caller of
``verify_riwi`` in the package, and the command line certifies every map
file, for ``bijection --map`` and ``verify-riwi`` alike, through
``check_riwi``.

The certificates walk entry tuples: ``certify.py`` does not import
``weighted_sum``, never names ``enumerate_codes`` and builds a ``Code`` only
inside a message, and ``verify_riwi`` walks its cell through ``codes._walk``,
which carries each code's weighted sum.

The command line prints every single result in one function and every
stream of certificates in another; only the commands with an output shape
of their own (``count``, ``enum``, ``bijection``) print or write elsewhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "neckslime"
MODULES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
PERFBENCH = [ast.parse(path.read_text(), filename=str(path)) for path in sorted((ROOT / "perfbench").glob("*.py"))]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _references(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in ``tree``, as bare names or attributes."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert MODULES and found == []


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = _references(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_definition_is_referenced():
    used = set().union(*(_references(tree) for tree in MODULES.values()))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, defs) and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert dead == []


def test_every_public_method_is_referenced():
    used = set().union(*(_references(tree) for tree in [*MODULES.values(), *PERFBENCH]))
    dead = [
        f"{name}:{node.lineno} {cls.name}.{node.name}"
        for name, tree in MODULES.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        and node.name not in used
    ]
    assert PERFBENCH and dead == []


def test_every_public_function_is_referenced():
    used = set().union(*(_references(tree) for tree in [*MODULES.values(), *PERFBENCH]))
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
        and node.name not in used
    ]
    assert PERFBENCH and dead == []


MEMO_CACHES = {"cache", "lru_cache", "cached_property"}


def test_no_memo_caches():
    """No memoizing decorator from ``functools`` is imported, referenced or applied."""
    found = [
        f"{name}:{node.lineno} {ast.unparse(node)}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        and any(alias.name in MEMO_CACHES for alias in node.names)
        or isinstance(node, ast.Name) and node.id in MEMO_CACHES
        or isinstance(node, ast.Attribute) and node.attr in MEMO_CACHES
    ]
    assert MODULES and found == []


def _nodes(node: ast.AST, match, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing definition, line) of each node under ``node`` for which ``match(node, scope)`` holds."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _nodes(child, match, f"{scope}.{child.name}".lstrip("."))
            continue
        if match(child, scope):
            found.append((scope, child.lineno))
        found += _nodes(child, match, scope)
    return found


def _calls(node: ast.AST, match, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing definition, line) of each call under ``node`` for which ``match(call, scope)`` holds."""
    return _nodes(node, lambda child, scope: isinstance(child, ast.Call) and match(child, scope), scope)


def _package_nodes(match) -> list[tuple[str, str, int]]:
    """(module, enclosing definition, line) of each matching node in the package."""
    return [(name, scope, line) for name, tree in MODULES.items() for scope, line in _nodes(tree, match)]


def _package_calls(match) -> list[tuple[str, str, int]]:
    """(module, enclosing definition, line) of each matching call in the package."""
    return _package_nodes(lambda node, scope: isinstance(node, ast.Call) and match(node, scope))


def _is_code_call(call: ast.Call, scope: str) -> bool:
    """``Code(...)``, or ``cls(...)`` inside ``Code``."""
    return isinstance(call.func, ast.Name) and (
        call.func.id == "Code" or call.func.id == "cls" and scope.startswith("Code."))


def test_code_validated_only_at_trust_boundaries():
    boundaries = {"Code.parse", "load_riwi_map"}
    calls = _package_calls(_is_code_call)
    inside = [f"{name}:{line} {scope}" for name, scope, line in calls if scope not in boundaries]
    assert {scope for _, scope, _ in calls} >= boundaries and inside == []


def _calls_named(*names: str):
    """A call matcher for a bare name or an attribute in ``names``, such as ``gcd(...)`` or ``math.gcd(...)``."""
    return lambda call, scope: getattr(call.func, "id", getattr(call.func, "attr", None)) in names


def _builds_comma_literal(node: ast.AST, scope: str) -> bool:
    """A ``","``-join, or the ``"%d,"`` format that spells the same literal."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "join"
            and isinstance(node.func.value, ast.Constant) and node.func.value.value == ","
            or isinstance(node, ast.Constant) and node.value == "%d,")


def _builds_bead_word(node: ast.AST, scope: str) -> bool:
    """A run of white beads, ``"W" * v``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and any(isinstance(side, ast.Constant) and side.value == "W" for side in (node.left, node.right)))


def test_comma_literals_are_written_once():
    """A code and a necklace print as ``0,0,3`` and as ``BBBWWW`` through one kernel each, which their
    ``__str__``, ``Necklace.word``, ``code_to_word`` and a sigma table's renderers call; nothing else
    re-types either."""
    for builds, kernel, callers in (
        (_builds_comma_literal, "_comma_literal",
         {"Code.__str__", "Necklace.__str__", "BijectionTable.to_csv_rows"}),
        (_builds_bead_word, "_bead_word",
         {"Necklace.word", "code_to_word", "BijectionTable.to_csv_rows", "BijectionTable.to_json_dict"}),
    ):
        assert {scope for _, scope, _ in _package_nodes(builds)} == {kernel}
        assert {scope for _, scope, _ in _package_calls(_calls_named(kernel))} == callers


def test_cell_rules_live_in_the_constructions_table():
    in_sigma_table = [f"bijection.py:{line} {scope}" for scope, line in
                      _calls(MODULES["bijection.py"], _calls_named("is_prime", "gcd")) if scope == "sigma_table"]
    in_certify = [f"certify.py:{line} {scope or '<module>'}" for scope, line in
                  _calls(MODULES["certify.py"], _calls_named("gcd"))]
    assert in_sigma_table == [] and in_certify == []
    assert any(isinstance(node, ast.FunctionDef) and node.name == "sigma_table" for node in MODULES["bijection.py"].body)


def test_riwi_maps_are_judged_through_check_riwi():
    """``verify_riwi`` is called only by ``check_riwi``, and ``cli.py`` names ``check_riwi`` and never
    ``verify_riwi``, so a second verification path for map files cannot return."""
    assert {f"{name} {scope}" for name, scope, _ in _package_calls(_calls_named("verify_riwi"))} == {
        "certify.py check_riwi"}
    tree = MODULES["cli.py"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names = _references(tree) | imported
    assert "check_riwi" in names and "verify_riwi" not in names


def test_certificates_walk_entry_tuples():
    """``certify.py`` sums no code, never names ``enumerate_codes`` and wraps a code in a ``Code`` only for
    a message; ``verify_riwi`` walks its cell through ``_walk``, so neither can fall back to a ``Code`` and
    a fresh sum per code."""
    tree = MODULES["certify.py"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_walk" in imported and "weighted_sum" not in imported | _references(tree)
    assert "enumerate_codes" not in imported | _references(tree)
    trusted = _calls(tree, _calls_named("_trusted"))
    in_messages = [call for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                   for call in _calls(node, _calls_named("_trusted"))]
    assert trusted and len(trusted) == len(in_messages)
    [verify] = [node for node in MODULES["bijection.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "verify_riwi"]
    called = {getattr(node.func, "id", None) for node in ast.walk(verify) if isinstance(node, ast.Call)}
    assert "_walk" in called and "enumerate_codes" not in called


def test_sigma_tables_hold_entry_tuples():
    """``build_sigma`` pairs plain entry tuples: it calls no ``Code._trusted``, ``Necklace`` or
    ``canonicalize``, and ``bijection.py`` does not import ``Necklace``, so no table pair can be
    wrapped again."""
    tree = MODULES["bijection.py"]
    [build] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "build_sigma"]
    assert _calls(build, _calls_named("_trusted", "Necklace", "canonicalize")) == []
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "_generate" in imported and "Necklace" not in imported


def _is_print(call: ast.Call, scope: str) -> bool:
    """``print(...)``, or a ``write``, ``writelines`` or ``writerows`` call on a stream or a CSV writer."""
    return (isinstance(call.func, ast.Name) and call.func.id == "print"
            or isinstance(call.func, ast.Attribute) and call.func.attr in {"write", "writelines", "writerows"})


def test_cli_prints_through_its_printers():
    """Single results print through ``_cmd_show``, enumerations through ``_cmd_enum`` and certificates
    through ``_print_certificates``; only the commands with an output shape of their own print elsewhere."""
    printers = {"_cmd_show", "_print_certificates", "_cmd_count", "_cmd_enum", "_cmd_bijection", "main"}
    calls = _calls(MODULES["cli.py"], _is_print)
    elsewhere = [f"cli.py:{line} {scope}" for scope, line in calls if scope not in printers]
    assert calls and elsewhere == []


def test_cli_operand_types_are_defined_in_cli():
    """Each ``add_argument(type=...)`` names a function of ``cli.py``, so one grammar reads every operand."""
    tree = MODULES["cli.py"]
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    types = [
        (node.lineno, keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for keyword in node.keywords
        if keyword.arg == "type"
    ]
    foreign = [f"cli.py:{line} {ast.unparse(value)}" for line, value in types
               if not (isinstance(value, ast.Name) and value.id in defined)]
    assert types
    assert foreign == []
