"""The package's import layering, checked on the source with ast: the
experiment layer uses only public library names, scripts reach the
experiments only through the CLI, every public library name has a caller
in the library, every default of a public function is overridden by some
library call, qhull is called from one place, one padding rule and one
leading-rows test serve the stacked passes, one helper sizes every row
block, one module formats table cells, every name the benchmark's
traced mode looks up still resolves, and the commands at j <= 2 and the
distance and containment questions in R^3 run without importing scipy."""

import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "projmetrics"
EXPERIMENTS = LIBRARY / "experiments"

# public top-level names that no library code uses, each kept for a reason
KEPT_WITHOUT_CALLER = {
    "gram_schmidt": "a layer that perfbench/spans.py traces by name",
    "line_fiber": "a layer that perfbench/spans.py traces by name",
    "needle_exact_volume": "the closed-form needle volume that exact thm columns are "
                           "checked against",
    "read_csv": "the reader for the CLI's CSV tables",
    "spindle_needle": "the one-needle builder of the spindle kind; the dyadic sequences "
                      "build the same vertices from one transverse frame per sequence",
}

# (public top-level function, defaulted parameter) pairs that no library call
# passes, each kept for a reason
KEPT_DEFAULTS = {
    ("main", "argv"): "the console-script entry point, which reads sys.argv",
    ("mc_volume", "exclusion_radius"): "the one-row case of mc_volume_stack's radii, "
                                       "which the thm2 row-loop reference in the tests "
                                       "passes",
}


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


def test_every_public_library_name_has_a_library_caller():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(LIBRARY.rglob("*.py"))]
    # a use is a name or an attribute in code; imports, re-exports and
    # __all__ strings are not
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    public = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(public - used - KEPT_WITHOUT_CALLER.keys()) == []
    # the allow-list holds only names that exist and still lack a caller
    assert sorted(KEPT_WITHOUT_CALLER.keys() - (public - used)) == []


def test_every_public_default_is_passed_by_a_library_call():
    # a default that no call overrides is a setting nothing varies: drop the
    # parameter, or keep it in KEPT_DEFAULTS with a reason
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(LIBRARY.rglob("*.py"))]
    defaulted = {}  # (function, parameter): its position, None if keyword-only
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for k, arg in enumerate(positional[first:], first):
                    defaulted[node.name, arg.arg] = k
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        defaulted[node.name, arg.arg] = None
    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {kw.arg for kw in call.keywords}  # None: a **mapping
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            passed |= {(fn, param) for (fn, param), k in defaulted.items()
                       if fn == name and (param in keywords or None in keywords or starred
                                          or (k is not None and len(call.args) > k))}
    unpassed = defaulted.keys() - passed
    assert sorted(unpassed - KEPT_DEFAULTS.keys()) == []
    # the allow-list holds only parameters that exist and still lack a call
    assert sorted(KEPT_DEFAULTS.keys() - unpassed) == []


def references(name: str) -> set[tuple[str, str]]:
    """(file, enclosing class/function path) of every use of name in the
    library: a name, an attribute or an import of it; a definition, or an
    assignment to the name, is not a use."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, scope + (child.name,))
                continue
            if ((isinstance(child, ast.Name) and child.id == name
                 and not isinstance(child.ctx, ast.Store))
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.alias) and name in (child.name, child.asname))):
                found.add((path.name, ".".join(scope)))
            visit(child, path, scope)

    for path in sorted(LIBRARY.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return found


def test_qhull_has_one_call_site():
    # every hull in dimension >= 3 comes from a chart: bodies._qhull is used
    # by _Chart.hull alone, and scipy's ConvexHull only inside _qhull
    assert references("_qhull") == {("bodies.py", "_Chart.hull")}
    assert references("ConvexHull") == {("bodies.py", "_qhull")}


def test_stacked_passes_keep_one_padding_rule_and_one_leading_rows_test():
    # bodies._charts alone pads vertex sets into stacks, and three metrics
    # passes alone ask whether vertex lists agree on their common head
    assert references("_pad_groups") == {("bodies.py", "_charts")}
    assert references("_padded_stack") == {("bodies.py", "_charts")}
    assert references("_heads_agree") == {("metrics.py", "delta_j_stack"),
                                          ("metrics.py", "hausdorff_stack"),
                                          ("metrics.py", "fiber_profile")}


def test_one_helper_sizes_row_blocks():
    # every (rows x facets) product is row-blocked by bodies._row_blocks,
    # the one reader of the block size; metrics keeps no block size of its own
    assert references("_FACET_BLOCK") == {("bodies.py", "_row_blocks")}
    tree = ast.parse((LIBRARY / "metrics.py").read_text(encoding="utf-8"))
    constants = {target.id for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets if isinstance(target, ast.Name)}
    assert {c for c in constants if "BLOCK" in c or "CHUNK" in c} == set()


def test_one_module_formats_table_cells():
    # experiments/tables.py alone imports csv, and within the experiment
    # layer it alone calls format(): the runners hand values over, so no
    # second emission path can grow there
    csv_users = {path.name for path in sorted(LIBRARY.rglob("*.py"))
                 for module, _ in imports(path) if module == "csv"}
    assert csv_users == {"tables.py"}
    formatters = {path.name for path in sorted(EXPERIMENTS.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "format"}
    assert formatters == {"tables.py"}


def test_benchmark_trace_names_resolve():
    # perfbench/spans.py swaps each (module, attribute) of LAYERS, and
    # metrics.ProcessPoolExecutor, for a wrapper: read its table, import
    # nothing else from perfbench/
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for _, module, attr, _ in spans.LAYERS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    metrics = importlib.import_module("projmetrics.metrics")
    assert callable(getattr(metrics, "ProcessPoolExecutor", None))


def test_paths_at_j2_import_no_scipy(tmp_path):
    # the exact 2-D oracles and the in-flat charts serve every command at
    # j <= 2, so none of them pays the scipy import
    (tmp_path / "a.body").write_text("d 2\nn 4\n0 0\n1 0\n1 1\n0 1\n")
    (tmp_path / "b.body").write_text("d 2\nn 3\n0.2 0.1\n2 0.5\n0.5 1.5\n")
    small = ["-d", "3", "-j", "2", "--steps", "3", "--subspaces", "50", "--points", "100"]
    pair = ["--body-a", "a.body", "--body-b", "b.body"]
    runs = [["thm1", *small, "--out", "t1.csv"], ["thm2", *small, "--out", "t2.csv"],
            ["thm3", *small, "--out", "t3.csv"],
            ["lemma", "-d", "4", "-j", "2", "--samples", "100", "--out", "l.csv"],
            ["reproduce", "--out-dir", "rep"], ["hausdorff", *pair],
            ["metric", *pair, "-j", "1", "--subspaces", "50"],
            ["metric", *pair, "-j", "2"],
            ["intrinsic", "--body", "b.body", "-j", "1", "--subspaces", "50"],
            ["intrinsic", "--body", "b.body", "-j", "2"]]
    assert_no_scipy(runs, tmp_path)


def test_distance_questions_import_no_scipy(tmp_path):
    # a distance or containment question builds no qhull hull: hausdorff on
    # two fresh bodies in R^3, then fibers on a pair in R^3 whose rows do
    # not lead (a cube around its half-size copy, rows reversed), so the
    # containment check runs
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    bodies = {"cube": cube, "inner": [tuple(0.5 * c + 0.25 for c in v) for v in cube[::-1]],
              "tetra": [(0.5, 0.5, 2.0), (2.0, 0.2, 0.3), (-0.5, 0.4, 0.6), (0.3, -1.0, 0.5)]}
    for name, rows in bodies.items():
        (tmp_path / f"{name}.body").write_text(
            f"d 3\nn {len(rows)}\n" + "".join(" ".join(map(str, v)) + "\n" for v in rows))
    runs = [["hausdorff", "--body-a", "cube.body", "--body-b", "tetra.body"],
            ["fibers", "--body-a", "cube.body", "--body-b", "inner.body", "--grid", "50",
             "--out", "f.csv"]]
    assert_no_scipy(runs, tmp_path)


def assert_no_scipy(runs: list[list[str]], cwd: pathlib.Path) -> None:
    """Run the CLI commands in turn in one fresh interpreter, and name the
    first that fails or after which scipy is loaded."""
    code = ("import sys\n"
            "from projmetrics.experiments.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    code = main(argv)\n"
            "    if code or 'scipy' in sys.modules:\n"
            "        sys.exit(f'{argv[0]}: exit {code}, scipy loaded: {\"scipy\" in sys.modules}')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
