"""Call graph construction and interprocedural reachability."""

import pytest

from repro.devtools.callgraph import CallGraph, kernel_reachable, module_unit

from tests.devtools.test_symbols import build_tree, load_project


def project_from(tmp_path, files):
    build_tree(tmp_path, files)
    return load_project(tmp_path / "pkg")


class TestDirectEdges:
    def test_imported_call_reachable(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg.b import worker\n"
                         "def entry():\n"
                         "    return worker()\n"),
            "pkg/b.py": "def worker():\n    return 1\n",
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.b.worker" in reach

    def test_same_module_call_without_import(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("def helper():\n"
                         "    return 1\n"
                         "def entry():\n"
                         "    return helper()\n"),
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.a.helper" in reach

    def test_uncalled_function_not_reachable(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("def entry():\n"
                         "    return 1\n"
                         "def unused():\n"
                         "    return 2\n"),
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.a.unused" not in reach


class TestCallbackReferences:
    def test_bare_function_reference_counts_as_call(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg.b import on_timer\n"
                         "def schedule(cb):\n"
                         "    return cb\n"
                         "def entry():\n"
                         "    return schedule(on_timer)\n"),
            "pkg/b.py": "def on_timer():\n    return 1\n",
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.b.on_timer" in reach

    def test_self_method_callback(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("class Agent:\n"
                         "    def start(self):\n"
                         "        return self._emit\n"
                         "    def _emit(self):\n"
                         "        return 1\n"),
        })
        reach = CallGraph(project).reachable_from(["pkg.a.Agent.start"])
        assert "pkg.a.Agent._emit" in reach


class TestLiveClasses:
    def test_instantiation_reaches_init_and_dynamic_methods(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg.b import Queue\n"
                         "def entry():\n"
                         "    q = Queue()\n"
                         "    return q.drain()\n"),
            "pkg/b.py": ("class Queue:\n"
                         "    def __init__(self):\n"
                         "        self.items = []\n"
                         "    def drain(self):\n"
                         "        return self.items\n"),
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.b.Queue.__init__" in reach
        assert "pkg.b.Queue.drain" in reach
        assert "pkg.b.Queue" in reach.live_classes

    def test_dynamic_name_does_not_reach_dead_class(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg.b import Live\n"
                         "def entry(obj):\n"
                         "    live = Live()\n"
                         "    return obj.drain()\n"),
            "pkg/b.py": ("class Live:\n"
                         "    def drain(self):\n"
                         "        return 1\n"
                         "\n"
                         "class Dead:\n"
                         "    def drain(self):\n"
                         "        return 2\n"),
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.b.Live.drain" in reach
        assert "pkg.b.Dead.drain" not in reach

    def test_ancestor_methods_live_with_subclass(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg.b import Child\n"
                         "def entry(obj):\n"
                         "    c = Child()\n"
                         "    return obj.greet()\n"),
            "pkg/b.py": ("class Base:\n"
                         "    def greet(self):\n"
                         "        return 'hi'\n"
                         "\n"
                         "class Child(Base):\n"
                         "    pass\n"),
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert "pkg.b.Base.greet" in reach


class TestModuleBodies:
    def test_import_closure_seeds_module_bodies(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg import b\n"
                         "def entry():\n"
                         "    return 1\n"),
            "pkg/b.py": ("from pkg.c import setup\n"
                         "REGISTRY = {'setup': setup}\n"),
            "pkg/c.py": "def setup():\n    return 1\n",
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        assert module_unit("pkg.b") in reach
        # The module body references setup, so it is live too.
        assert "pkg.c.setup" in reach

    def test_module_body_excludes_function_bodies(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("def entry():\n"
                         "    return inner()\n"
                         "def inner():\n"
                         "    return 1\n"),
        })
        reach = CallGraph(project).reachable_from([module_unit("pkg.a")],
                                                  seed_import_closure=False)
        # The module body defines entry/inner but calls neither.
        assert "pkg.a.entry" not in reach
        assert "pkg.a.inner" not in reach


class TestQueries:
    def test_chain_gives_provenance_from_root(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from pkg.b import middle\n"
                         "def entry():\n"
                         "    return middle()\n"),
            "pkg/b.py": ("from pkg.c import leaf\n"
                         "def middle():\n"
                         "    return leaf()\n"),
            "pkg/c.py": "def leaf():\n    return 1\n",
        })
        reach = CallGraph(project).reachable_from(["pkg.a.entry"])
        chain = reach.chain("pkg.c.leaf")
        assert chain[0] == "pkg.a.entry"
        assert chain[-1] == "pkg.c.leaf"
        assert "pkg.b.middle" in chain

    def test_unknown_root_raises(self, tmp_path):
        project = project_from(tmp_path, {"pkg/__init__.py": ""})
        with pytest.raises(KeyError):
            CallGraph(project).reachable_from(["pkg.missing.entry"])

    def test_module_name_as_root(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "X = 1\n",
        })
        reach = CallGraph(project).reachable_from(["pkg.a"])
        assert module_unit("pkg.a") in reach

    def test_kernel_reachable_none_without_roots(self, tmp_path):
        project = project_from(tmp_path, {"pkg/__init__.py": ""})
        assert kernel_reachable(project, ("pkg.missing.entry",)) is None

    def test_kernel_reachable_with_present_root(self, tmp_path):
        project = project_from(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def entry():\n    return 1\n",
        })
        result = kernel_reachable(project, ("pkg.a.entry", "pkg.gone.f"))
        assert result is not None
        _, reach = result
        assert "pkg.a.entry" in reach
