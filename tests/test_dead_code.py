"""No dead names in the package: every module-level private name is used
by some module of ``src/onewaysim``, every export is reached by the
package or the acceptance gate, every module-level public function or
class is exported or read outside its own definition, every public
method of a package class is read as an attribute by the package or the
acceptance gate outside its own body, every parameter of a package
function is read in its body, and every import is used by the module
that makes it.

A deletion that leaves a helper, a table or an import behind fails here.
The package's ``__init__`` re-exports what it imports, and
``from __future__`` imports switch on language features; both are exempt
from the import check.
"""

import ast
from collections import Counter
from pathlib import Path

import onewaysim

PACKAGE = Path(onewaysim.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def _read_counts(tree):
    """How often each name is read under ``tree``: bare names, attributes
    and the names it imports from other modules."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            counts.update(alias.name for alias in node.names)
    return counts


def _loaded_names(tree):
    """Every name the module reads (see :func:`_read_counts`)."""
    return set(_read_counts(tree))


def _private_definitions(tree):
    """Module-level private names: functions, classes and assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if name.startswith("_") and not name.endswith("__"))


def _exports():
    """The names the package's ``__init__`` imports and so exports."""
    return {
        alias.name
        for node in MODULES["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_private_name_is_used_in_the_package():
    used = set().union(*map(_loaded_names, MODULES.values()))
    unused = [
        f"{module}.{name}"
        for module, tree in sorted(MODULES.items())
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert unused == []


def test_every_export_is_read_by_the_package_or_the_acceptance_gate():
    exports = _exports()
    trees = [tree for module, tree in MODULES.items() if module != "__init__"]
    trees.append(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    read = set().union(*map(_loaded_names, trees))
    assert sorted(exports - read) == []


def test_every_public_function_and_class_is_exported_or_read():
    exports = _exports()
    # the names each top-level statement reads, so that a definition's
    # reads of its own name (recursion) do not keep it alive
    statements = [node for tree in MODULES.values() for node in tree.body]
    statements.append(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    reads = [(node, _loaded_names(node)) for node in statements]
    dead = [
        f"{module}.{node.name}"
        for module, tree in sorted(MODULES.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exports
        and not any(node.name in names for other, names in reads if other is not node)
    ]
    assert dead == []


def _attribute_reads(tree):
    """How often each attribute name is read under ``tree``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _unread_methods(modules, readers):
    """``module.Class.method`` for each public method of the classes in
    ``modules`` whose name no attribute in the trees ``readers`` reads.  A
    method is only ever read as an attribute, so a bare name (a local
    variable named like it) does not keep it alive, and neither do reads
    inside the method itself (recursion)."""
    reads = Counter()
    for tree in readers:
        reads.update(_attribute_reads(tree))
    return [
        f"{module}.{cls.name}.{method.name}"
        for module, tree in sorted(modules.items())
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not method.name.startswith("_")
        and reads[method.name] == _attribute_reads(method)[method.name]
    ]


def test_every_public_method_is_read_by_the_package_or_the_acceptance_gate():
    trees = [tree for module, tree in MODULES.items() if module != "__init__"]
    trees.append(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    assert _unread_methods(MODULES, trees) == []


def test_a_method_named_like_a_local_variable_is_unread():
    # ``total`` is read only as a local and ``count`` only by itself, so
    # both are unread; ``kept`` is read as an attribute
    source = (
        "class Record:\n"
        "    def total(self):\n"
        "        return 0\n"
        "    def count(self, n):\n"
        "        return self.count(n - 1) if n else 0\n"
        "    def kept(self):\n"
        "        return 1\n"
        "def summary(counts):\n"
        "    total = sum(counts)\n"
        "    return total + Record().kept()\n"
    )
    tree = ast.parse(source)
    assert _unread_methods({"m": tree}, [tree]) == ["m.Record.total", "m.Record.count"]


def test_every_parameter_is_read_in_its_function():
    unread = []
    for module, tree in sorted(MODULES.items()):
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = function.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
            body = function.body if isinstance(function.body, list) else [function.body]
            read = {
                node.id
                for statement in body
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
            }
            name = getattr(function, "name", "<lambda>")
            unread += [f"{module}.{name}({p.arg})" for p in params if p.arg not in read]
    assert unread == []


def test_every_import_is_used_by_its_module():
    unused = []
    for module, tree in sorted(MODULES.items()):
        if module == "__init__":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{module}: {alias.name}")
    assert unused == []
