"""The package's import layering, checked on the source with ast: the
experiment layer uses only public library names, and scripts reach the
experiments only through the CLI."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPERIMENTS = ROOT / "src" / "projmetrics" / "experiments"


def imports(path: pathlib.Path):
    """(absolute module, imported name or None) for every import in path;
    relative modules are resolved against path's package under src/."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                package = path.relative_to(ROOT / "src").parent.parts
                module = ".".join(filter(None, [*package[:len(package) - node.level + 1],
                                                module]))
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None


def test_experiments_import_no_private_library_name():
    offenders = [f"{path.name}: {module}.{name}"
                 for path in sorted(EXPERIMENTS.glob("*.py"))
                 for module, name in imports(path)
                 if module.startswith("projmetrics") and name and name.startswith("_")]
    assert offenders == []


def test_scripts_reach_experiments_only_through_the_cli():
    offenders = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for module, name in imports(path):
            target = module if name is None else f"{module}.{name}"
            if (target.startswith("projmetrics.experiments")
                    and not f"{target}.".startswith("projmetrics.experiments.cli.")):
                offenders.append(f"{path.name}: {target}")
    assert offenders == []
