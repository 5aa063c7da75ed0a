"""Package layering: everything below the broker imports downward only.

``repro.metasearch`` and ``repro.serving`` sit on top of the library
packages; none of those may import them back — at module level or nested
in a function — or the package graph grows a cycle.  The same holds one
level up: the broker layer never imports the serving layer (what both
need, like the request deadline scope, lives in the lower of the two).
And on top there is one search pipeline (``SearchPipeline`` in ``metasearch/broker.py``), not
one per topology.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
LOWER = ("core", "corpus", "engine", "fleet", "index", "obs",
         "representatives", "stats", "text", "vsm")
UPPER = ("repro.metasearch", "repro.serving")
PIPELINE_ENTRY_POINTS = (
    "estimate_all", "estimate_batch", "select", "search", "search_batch"
)


def imported_names(node, module):
    """Absolute dotted names an import statement in ``module`` binds from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = module.split(".")[: -node.level] if node.level else []
        stem = ".".join(base + ([node.module] if node.module else []))
        return [stem] + [f"{stem}.{alias.name}" for alias in node.names]
    return []


def upward_imports(packages=LOWER, uppers=UPPER):
    found = []
    for package in packages:
        assert (ROOT / package).is_dir(), package
        for path in sorted((ROOT / package).rglob("*.py")):
            relative = path.relative_to(ROOT.parent)
            module = ".".join(relative.with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if any(
                    name == upper or name.startswith(upper + ".")
                    for name in imported_names(node, module)
                    for upper in uppers
                ):
                    found.append(f"{relative}:{node.lineno}")
    return found


def test_lower_packages_never_import_the_broker_or_serving_layers():
    assert upward_imports() == []


def test_the_broker_layer_never_imports_the_serving_layer():
    assert upward_imports(("metasearch",), ("repro.serving",)) == []


def test_there_is_one_search_pipeline():
    """A second pipeline cannot grow back: only the pipeline itself and the
    wire decoder build a ``MetasearchResponse``, and ``ShardedFleet`` — a
    backend of two steps — defines none of the pipeline's entry points."""
    builders, redefined = [], []
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "MetasearchResponse"
            ):
                builders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name == "ShardedFleet":
                redefined += [
                    f"{path.relative_to(ROOT)}:{item.lineno} {item.name}"
                    for item in node.body
                    if getattr(item, "name", None) in PIPELINE_ENTRY_POINTS
                ]
    assert [b.rsplit(":", 1)[0] for b in builders] == [
        "metasearch/broker.py", "serving/wire.py"
    ], builders
    assert redefined == []
