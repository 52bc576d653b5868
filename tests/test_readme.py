"""The README's public API list names exactly what ``import onewaysim`` exports."""

import ast
import re
import types
from pathlib import Path

import onewaysim

ROOT = Path(__file__).resolve().parent.parent


def _readme_api():
    """module -> names, from the README's ``- `module`: `name`, ...`` list."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    items = re.findall(r"^- `(\w+)`: (.*?)(?=^- |^\s*$)", text, re.M | re.S)
    return {module: re.findall(r"`(\w+)`", names) for module, names in items}


def _package_exports():
    """module -> names, from the relative imports in the package's __init__."""
    tree = ast.parse(Path(onewaysim.__file__).read_text(encoding="utf-8"))
    return {
        node.module: [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


def test_readme_lists_every_export_under_its_module():
    exports = _package_exports()
    public = {
        name
        for name, value in vars(onewaysim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert {name for names in exports.values() for name in names} == public
    listed = _readme_api()
    assert set(listed) == set(exports)
    for module, names in exports.items():
        assert sorted(listed[module]) == sorted(names), module
        assert len(set(listed[module])) == len(listed[module]), module


def test_readme_states_the_export_count():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (count,) = re.findall(r"The public API is the (\d+) names", text)
    assert int(count) == sum(len(names) for names in _package_exports().values())
