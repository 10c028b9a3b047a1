"""The package runs on the standard library alone: every import in
`src/flowspace` names a standard module or `flowspace` itself, and
`pyproject.toml` declares no runtime dependency.  The test extras
(numpy, hypothesis) are installed wherever the tests run, so without
this check a stray third-party import would pass them.

The console script that `[project.scripts]` declares is checked without
an install: the wrapper an installer writes for it is written here, and
run with `PYTHONPATH` naming `src` alone, it prints the version."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import flowspace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


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


def project_scripts(text: str) -> dict[str, str]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return scripts_from_text(text)
    return tomllib.loads(text)["project"].get("scripts", {})


def scripts_from_text(text: str) -> dict[str, str]:
    """`[project.scripts]`, read as text: one `name = "module:attr"` a line."""
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r"^([\w.-]+)\s*=\s*[\"']([^\"']*)[\"']", section, re.M))


def console_script(directory: Path, name: str = "flowspace") -> Path:
    """The wrapper an installer writes for console script `name`, written
    in `directory`: it imports the entry point that `[project.scripts]`
    names and exits with its return value."""
    module, attr = project_scripts((ROOT / "pyproject.toml").read_text())[name].split(":")
    path = directory / name
    path.write_text("import re\n"
                    "import sys\n"
                    f"from {module} import {attr}\n"
                    "if __name__ == '__main__':\n"
                    "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
                    f"    sys.exit({attr}())\n")
    return path


def run_outside(directory: Path, *argv: str) -> subprocess.CompletedProcess:
    """`python *argv` in `directory`, with `PYTHONPATH` naming `src` alone,
    so the child imports flowspace from the source tree and nothing the
    test process put on its path."""
    return subprocess.run([sys.executable, *argv], cwd=directory, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))


def test_console_script_prints_the_version(tmp_path):
    text = (ROOT / "pyproject.toml").read_text()
    assert project_scripts(text) == scripts_from_text(text) == {"flowspace": "flowspace.cli:main"}
    out = run_outside(tmp_path, str(console_script(tmp_path)), "--version")
    assert (out.returncode, out.stdout, out.stderr) == (0, f"flowspace {flowspace.__version__}\n", "")


def test_runtime_dependencies_stay_at_none():
    sources = sorted((ROOT / "src" / "flowspace").glob("*.py"))
    assert sources
    foreign = {(path.name, name) for path in sources for name in imported_modules(path)
               if name != "flowspace" and name not in sys.stdlib_module_names}
    assert not foreign
    assert project_dependencies((ROOT / "pyproject.toml").read_text()) == []
