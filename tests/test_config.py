"""Every capacity key is read, and every read names a key.

The package is read with ``ast``: each ``config.CAPS`` key must be the
literal first argument of some ``check_capacity`` call, and each such call
must name a key of ``CAPS``, so that a retired knob cannot linger and a
misspelt key cannot reach run time.
"""

import ast
import pathlib

from toricg import config

_PACKAGE = pathlib.Path(config.__file__).parent


def _capacity_calls():
    """(file, first argument) of every check_capacity call in the package."""
    for path in sorted(_PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "check_capacity":
                yield path.name, node.args[0] if node.args else None


def test_every_cap_is_checked_and_every_check_names_a_cap():
    named = set()
    for filename, key in _capacity_calls():
        assert isinstance(key, ast.Constant) and isinstance(key.value, str), (
            f"{filename}: check_capacity must name its key as a string literal"
        )
        assert key.value in config.CAPS, f"{filename}: unknown capacity key {key.value!r}"
        named.add(key.value)
    assert set(config.CAPS) <= named, f"never checked: {sorted(set(config.CAPS) - named)}"


def test_readme_capacity_table_lists_every_key_at_its_default():
    """The README's "Capacity bounds" table is the one description of the
    keys: its rows name exactly the keys of CAPS, with their defaults."""
    readme = _PACKAGE.parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("### Capacity bounds", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = int(cells[1])
    assert rows == config.CAPS
