"""Every public name in src/stepbias has a caller outside the tests.

A public module-level def, class or assignment counts as called when it
is loaded by name or read as an attribute in the rest of src/ (the
re-exports of __init__.py do not count), in the README's Library
example or in tests/test_acceptance.py, or when it is a key of
perfbench/tracer.py's TRACED table, which the benchmark wraps by name.
"""

import ast
import contextlib
import importlib.util
import io
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example():
    """The python block under the README's '## Library' heading, as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert found, "README.md has no python block under '## Library'"
    return found.group(1)


def _definitions(tree):
    """(name, node) for each public def, class and assignment at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _referenced(nodes):
    """The names that nodes load or read as attributes."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _traced():
    """The 'module.function' keys of perfbench/tracer.py's TRACED table."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TRACED" for t in node.targets
        ):
            return {ast.literal_eval(key) for key in node.value.keys}
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def uncalled_names():
    """'module.name' for each public module-level name of src/stepbias with no caller."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "stepbias").glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = _referenced(
        [
            ast.parse(library_example()),
            ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")),
        ]
    )
    traced = _traced()
    # The names each top-level statement of src references, and how many
    # statements reference each name.
    refs = {node: _referenced([node]) for tree in trees.values() for node in tree.body}
    statements = Counter(name for names in refs.values() for name in names)
    uncalled = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            # Another statement must reference it; its own definition does not count.
            in_src = statements[name] - (name in refs[node])
            if not in_src and name not in outside and f"{module}.{name}" not in traced:
                uncalled.append(f"{module}.{name}")
    return uncalled


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_names() == []


def test_the_library_example_runs_as_written():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(library_example(), "README.md", "exec"), namespace)
    assert namespace["cert"].verdict_final
    assert printed.getvalue().startswith("True ")


def test_the_benchmark_tracer_reads_the_real_package():
    """perfbench/tracer.py's hooks, installed on stepbias, read what the one-row views return.

    No benchmark workload calls run_to_level_set, certify,
    check_assumptions or random_instance, so the README example and one
    check_assumptions call do: every hook reads its counters off the real
    results (steps, stop_status, loss_trace, verdict_final).
    """
    import stepbias.experiments  # noqa: F401  (loads every traced module)

    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        namespace = {}
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(library_example(), "README.md", "exec"), namespace)
        inst = namespace["inst"]
        namespace["regimes"].check_assumptions(
            inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha
        )
    finally:
        tracer.uninstall()
    counters = tracer.counters
    runs = counters["gd.run_to_level_set"]
    assert runs["calls"] == runs["hits"] == 2
    assert runs["steps"] > 0 and runs["trace_bytes"] == 8 * runs["steps"]
    assert counters["regimes.certify"] == {"calls": 1, "passes": 1}
    assert counters["regimes.check_assumptions"] == {"calls": 1}
    assert counters["instances.random_instance"] == {"calls": 1}
    assert tracer.absent == ["quadratic.from_kernel"]
