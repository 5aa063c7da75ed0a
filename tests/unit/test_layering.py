"""Package layering: everything below the broker imports downward only.

``repro.metasearch`` and ``repro.serving`` sit on top of the library
packages; none of those may import them back — at module level or nested
in a function — or the package graph grows a cycle.  The same holds one
level up: the broker layer never imports the serving layer (what both
need, like the request deadline scope, lives in the lower of the two).
And on top there is one search pipeline (``SearchPipeline`` in ``metasearch/broker.py``), not
one per topology.  Every module is reached from an entry point: code no
command, server or registered estimator imports is deleted, not kept.
Every production estimate comes off the batched kernel: the scalar
expansion is the paper's reference, called only by the estimators
themselves and the kernel's overflow demotion.  And an estimate row stays
arrays from the kernel to the selection policy: no per-engine object is
built on the way.  The same holds one level down: every public function
or method has a caller outside ``tests/``, or an entry in ``UNCALLED``
saying why it stays.
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
#: The scalar estimation entry points (``GenFunc.product`` aside).
SCALAR_ESTIMATION = ("estimate", "estimate_many", "expand")
#: Where the scalar expansion may be called: the estimators themselves
#: (the reference algorithms) and the kernel's overflow demotion.
SCALAR_CALLERS = (
    "core/base.py", "core/basic_estimator.py", "core/binary_estimator.py",
    "core/gloss.py", "core/prev_estimator.py", "core/subrange_estimator.py",
    "core/vectorized.py:_demote_rows",
)
# Modules no entry point imports, kept because the tests read them.
REFERENCES = (
    # The Cosine oracle tests/unit/test_search_engine.py compares engine
    # scores against.
    "repro.vsm.similarity",
)

#: Where a public function's callers may live: everything but ``tests/``.
CALLER_ROOTS = ("src", "bench", "benchmarks", "examples")
#: Public functions and methods (``path:Qualname`` under ``src/repro``)
#: that nothing outside ``tests/`` names, and why each stays.
UNCALLED = {
    "core/base.py:UsefulnessEstimator.estimate_many":
        "the scalar oracle's batch entry; goes with the scalar path (item 5)",
    "core/base.py:ExpansionEstimator.estimate_many":
        "the scalar oracle's batch entry; goes with the scalar path (item 5)",
    "serving/http.py:_AppRequestHandler.do_GET":
        "BaseHTTPRequestHandler dispatches to it by the request's method",
    "serving/http.py:_AppRequestHandler.do_POST":
        "BaseHTTPRequestHandler dispatches to it by the request's method",
    "serving/http.py:_AppRequestHandler.log_message":
        "BaseHTTPRequestHandler override: the stdlib logs through it",
    "serving/http.py:_AppRequestHandler.version_string":
        "BaseHTTPRequestHandler override: the stdlib's Server header",
    "serving/http.py:_AppRequestHandler.parse_request":
        "BaseHTTPRequestHandler override: the stdlib's request-line parse",
    "serving/remote_engine.py:GatewayClient.healthz":
        "the client half of a gateway's /healthz route (public client API)",
    "serving/remote_engine.py:GatewayClient.metrics_text":
        "the client half of a gateway's /metrics route (public client API)",
    "metasearch/broker.py:MetasearchBroker.engine_of":
        "public broker API: a registered engine by name (its host, say)",
    "corpus/collection.py:Collection.index_of":
        "public corpus API: the inverse of Collection.doc_id",
    "corpus/synth/newsgroups.py:NewsgroupModel.generate_all":
        "public corpus API: every synthetic group in one call",
    "text/pipeline.py:TextPipeline.terms_joined":
        "public text API: the pipeline over several fields at once",
    "vsm/vector.py:SparseVector.from_counts":
        "public vector API: a raw tf vector from a token-id stream",
    "vsm/vector.py:SparseVector.to_mapping":
        "public vector API: the inverse of SparseVector.from_mapping",
    "index/inverted.py:InvertedIndex.idf_factor":
        "public index API: the idf factor the index applied to a term",
    "evaluation/metrics.py:ThresholdMetrics.match_rate":
        "public metrics API: the share of useful queries also estimated so",
    "evaluation/paper_reference.py:paper_table":
        "public reference API: the paper's published rows by table id",
}


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


def _modules():
    """``{dotted name: (syntax tree, name relative imports resolve
    against)}`` for every module under ``repro``; a package is keyed by its
    own name and resolves against ``<package>.__init__``."""
    modules = {}
    for path in ROOT.rglob("*.py"):
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        key = parts[:-1] if parts[-1] == "__init__" else parts
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules[".".join(key)] = (tree, ".".join(parts))
    return modules


def _is_package(modules, name):
    return modules[name][1].endswith("__init__")


def _reached_by(name, modules):
    """The module an imported dotted ``name`` reaches, or None.  A name a
    package ``__init__`` re-exports reaches only the module defining it."""
    if name in modules and not _is_package(modules, name):
        return name
    package, __, attr = name.rpartition(".")
    if package not in modules:
        return None
    if not _is_package(modules, package):
        return package
    tree, module = modules[package]
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias, full in zip(node.names, imported_names(node, module)[1:]):
                if (alias.asname or alias.name) == attr:
                    return _reached_by(full, modules)
    return None


def unreached_modules():
    """Modules no import chain from a ``__main__`` module (``python -m
    repro``, ``python -m repro.cli``) or an estimator plug-in (a module
    calling ``register_estimator``) reaches, following imports at any
    depth of the module."""
    modules = _modules()
    pending = [
        name
        for name, (tree, __) in modules.items()
        if name.endswith(".__main__")
        or any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "register_estimator"
            for node in ast.walk(tree)
        )
    ]
    seen = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        tree, module = modules[name]
        for node in ast.walk(tree):
            for imported in imported_names(node, module):
                target = _reached_by(imported, modules)
                if target is not None:
                    pending.append(target)
    return sorted(
        name
        for name in modules
        if name not in seen and not _is_package(modules, name)
    )


def test_every_module_is_reached_from_an_entry_point():
    unreached = unreached_modules()
    islands = [name for name in unreached if name not in REFERENCES]
    assert islands == [], f"no entry point reaches {islands}"
    # An exemption nothing needs any more goes too.
    assert sorted(REFERENCES) == [name for name in unreached if name in REFERENCES]


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


def scalar_expansion_calls():
    """``path[:function]:line`` of every call to a scalar estimation entry
    point or ``GenFunc.product`` under ``src/repro``."""
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ):
                continue
            func = node.func
            if func.attr in SCALAR_ESTIMATION or (
                func.attr == "product"
                and getattr(func.value, "id", None) == "GenFunc"
            ):
                found.append((relative, owner.get(node), node.lineno))
    return found


def test_scalar_expansion_has_no_production_caller():
    calls = scalar_expansion_calls()
    assert any(path == "core/vectorized.py" for path, __, __ in calls)
    stray = [
        f"{path}:{function}:{line}"
        for path, function, line in calls
        if path not in SCALAR_CALLERS
        and f"{path}:{function}" not in SCALAR_CALLERS
    ]
    assert stray == [], f"scalar expansion called from production: {stray}"


def constructor_calls(name):
    """``{path: [line, ...]}`` of every call to a class called ``name``
    (bare or as an attribute) under ``src/repro``."""
    found = {}
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.setdefault(path.relative_to(ROOT).as_posix(), []).append(
                    node.lineno
                )
    return found


def test_estimate_path_builds_no_per_engine_objects():
    """The kernel answers in ``(nodoc, avgsim)`` arrays, the broker and the
    coordinator rank them into an ``EstimateRow``, and the policies read
    its arrays: an ``EstimatedUsefulness`` is built only by the row's lazy
    materialisation and the wire decoder."""
    assert "core/vectorized.py" not in constructor_calls("Usefulness")
    builders = constructor_calls("EstimatedUsefulness")
    assert "metasearch/broker.py" not in builders
    assert "serving/coordinator.py" not in builders
    assert sorted(builders) == ["metasearch/selection.py", "serving/wire.py"]


def test_serving_frames_http_in_one_place():
    """The serving layer frames HTTP itself: the server reads request
    heads with ``serving/http.py``'s reader and the client writes requests
    on the socket, so no serving module makes requests through
    ``http.client`` or ``urllib.request``."""
    stdlib_clients = ("http.client", "urllib.request")
    found = []
    for path in sorted((ROOT / "serving").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if any(
                name == client or name.startswith(client + ".")
                for name in imported_names(node, module)
                for client in stdlib_clients
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def _is_docstring(node, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                            ast.AsyncFunctionDef))
        and bool(parent.body) and parent.body[0] is node
    )


def referenced_names():
    """Every identifier named anywhere under :data:`CALLER_ROOTS` — as a
    name, an attribute, an import, or inside a string (``getattr`` by name,
    ``module:function`` entry points) — docstrings and ``__all__`` lists
    aside, since naming a function there calls nothing."""
    repo = ROOT.parents[1]
    names = set()
    for root in CALLER_ROOTS:
        assert (repo / root).is_dir(), root
        for path in (repo / root).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = set()
            for parent in ast.walk(tree):
                for node in ast.iter_child_nodes(parent):
                    if isinstance(node, ast.Expr) and _is_docstring(node, parent):
                        skipped.add(node.value)
                if isinstance(parent, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__"
                    for target in parent.targets
                ):
                    skipped.update(ast.walk(parent.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node not in skipped
                ):
                    names.update(
                        node.value.replace(":", " ").replace(".", " ").split()
                    )
    return names


def uncalled_public_functions():
    """``path:Qualname`` of every public function, method and class under
    ``src/repro`` that no name under :data:`CALLER_ROOTS` refers to (its
    own definition does not count)."""
    names = referenced_names()
    found = []

    def visit(body, relative, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_") and node.name not in names:
                    found.append(f"{relative}:{owner}{node.name}")
            if isinstance(node, ast.ClassDef):
                visit(node.body, relative, f"{owner}{node.name}.")

    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, path.relative_to(ROOT).as_posix(), "")
    return found


def test_every_public_function_has_a_caller_outside_the_tests():
    uncalled = uncalled_public_functions()
    stray = [name for name in uncalled if name not in UNCALLED]
    assert stray == [], f"no caller outside tests/: {stray}"
    # An exemption nothing needs any more goes too.
    assert sorted(UNCALLED) == sorted(uncalled)
