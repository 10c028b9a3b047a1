"""The package runs on the standard library alone: every import in
`src/flowspace` names a standard module or `flowspace` itself, and
`pyproject.toml` declares no runtime dependency.  The test extras
(numpy, hypothesis) are installed wherever the tests run, so without
this check a stray third-party import would pass them."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules a source file imports; a
    relative import is of the package itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0] if node.level == 0 else "flowspace")
    return names


def project_dependencies(text: str) -> list[str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one array as text
        section = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
        match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", section, re.M | re.S)
        return re.findall(r"[\"']([^\"']*)[\"']", match.group(1)) if match else []
    return tomllib.loads(text)["project"].get("dependencies", [])


def test_runtime_dependencies_stay_at_none():
    sources = sorted((ROOT / "src" / "flowspace").glob("*.py"))
    assert sources
    foreign = {(path.name, name) for path in sources for name in imported_modules(path)
               if name != "flowspace" and name not in sys.stdlib_module_names}
    assert not foreign
    assert project_dependencies((ROOT / "pyproject.toml").read_text()) == []
