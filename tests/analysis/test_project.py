"""Call-graph construction: the resolution forms RL008 relies on."""

from repro.analysis import SourceFile
from repro.analysis.project import ProjectGraph


def build(*named_sources: tuple[str, str]) -> ProjectGraph:
    sources = [
        SourceFile.from_source(text, relpath=relpath)
        for relpath, text in named_sources
    ]
    return ProjectGraph.build(sources)


def callee_names(graph: ProjectGraph, qualname: str) -> set[str]:
    return {
        callee
        for site in graph.calls.get(qualname, [])
        for callee in site.callees
    }


def test_local_and_module_function_calls_resolve():
    graph = build(
        (
            "core/a.py",
            "def helper(value):\n"
            "    return value\n"
            "\n"
            "def entry(value):\n"
            "    return helper(value)\n",
        )
    )
    assert callee_names(graph, "core/a.py::entry") == {"core/a.py::helper"}


def test_imported_symbol_calls_resolve_across_modules():
    graph = build(
        ("core/b.py", "def shared(value):\n    return value\n"),
        (
            "core/a.py",
            "from .b import shared\n"
            "\n"
            "def entry(value):\n"
            "    return shared(value)\n",
        ),
    )
    assert callee_names(graph, "core/a.py::entry") == {"core/b.py::shared"}


def test_relative_import_across_packages_resolves():
    graph = build(
        ("net/wire.py", "def loads(raw):\n    return raw\n"),
        (
            "smr/replica.py",
            "from ..net import wire\n"
            "\n"
            "def decode(raw):\n"
            "    return wire.loads(raw)\n",
        ),
    )
    assert callee_names(graph, "smr/replica.py::decode") == {"net/wire.py::loads"}


def test_self_method_calls_resolve_through_base_classes():
    graph = build(
        (
            "core/a.py",
            "class Base:\n"
            "    def shared(self):\n"
            "        return 1\n"
            "\n"
            "class Derived(Base):\n"
            "    def entry(self):\n"
            "        return self.shared()\n",
        )
    )
    assert callee_names(graph, "core/a.py::Derived.entry") == {
        "core/a.py::Base.shared"
    }


def test_field_type_inference_resolves_attribute_method_calls():
    graph = build(
        (
            "core/abc.py",
            "class AtomicBroadcast:\n"
            "    def on_message(self, ctx, sender, message):\n"
            "        return message\n",
        ),
        (
            "smr/replica.py",
            "from ..core.abc import AtomicBroadcast\n"
            "\n"
            "class Replica:\n"
            "    def __init__(self):\n"
            "        self.abc = AtomicBroadcast()\n"
            "\n"
            "    def on_message(self, ctx, sender, message):\n"
            "        self.abc.on_message(ctx, sender, message)\n",
        ),
    )
    assert "core/abc.py::AtomicBroadcast.on_message" in callee_names(
        graph, "smr/replica.py::Replica.on_message"
    )


def test_closures_are_graph_nodes_and_their_calls_resolve():
    graph = build(
        (
            "core/a.py",
            "def record(value):\n"
            "    return value\n"
            "\n"
            "class Proto:\n"
            "    def on_start(self, ctx):\n"
            "        ctx.spawn(on_output=lambda value: record(value))\n",
        )
    )
    [closure] = graph.contains["core/a.py::Proto.on_start"]
    assert callee_names(graph, closure) == {"core/a.py::record"}


def test_nested_functions_do_not_leak_into_module_namespace():
    graph = build(
        (
            "core/a.py",
            "def outer():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
            "\n"
            "def other():\n"
            "    return inner()\n",  # no module-level `inner` exists
        )
    )
    assert callee_names(graph, "core/a.py::other") == set()
