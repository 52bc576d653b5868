"""The README's public API list names exactly what ``import onewaysim`` exports."""

import ast
import re
import types
from pathlib import Path

import yaml

import onewaysim
from onewaysim import cli

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


def _readme_config_block():
    """The README's ``yaml`` config block: its parsed mapping, and each
    field line's dotted path with the subcommands of its ``[...]`` note."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```yaml\n(.*?)^```", text, re.M | re.S)
    notes, section = {}, None
    for line in block.splitlines():
        match = re.match(r"^( *)(\w+):\s*([^#]*?)\s*(?:#\s*\[([\w, ]+)\].*)?$", line)
        if match is None:  # a commented-out alternative
            continue
        indent, key, value, commands = match.groups()
        if not indent and not value:
            section = key
            continue
        path = f"{section}.{key}" if indent else key
        notes[path] = tuple(re.split(r",\s*", commands))
    return yaml.safe_load(block), notes


def _flatten(mapping, prefix=""):
    out = {}
    for key, value in mapping.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def test_readme_config_block_lists_every_field_with_its_default_and_commands():
    values, notes = _readme_config_block()
    values = _flatten(values)
    rows = {field.path: field for field in cli._FIELDS}
    assert list(values) == list(notes) == list(rows)
    for path, field in rows.items():
        listed = tuple(cli._COMMANDS) if notes[path] == ("all",) else notes[path]
        assert listed == field.commands, path
        if field.default is None:  # the experiment guard takes the invoked command
            assert values[path] in cli._COMMANDS
        else:  # the same value once checked (the README writes the rate as 12000)
            shown, default = field.check(values[path], path), field.check(field.default, path)
            assert shown == default and type(shown) is type(default), path
