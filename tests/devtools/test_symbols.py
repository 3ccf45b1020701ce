"""Project symbol table: indexing, resolution, import closure."""

import pytest

from repro.devtools.audit import _parse_contexts, iter_python_files
from repro.devtools.symbols import Project, module_name_for_path


def build_tree(tmp_path, files):
    """Write ``{relative_path: source}`` under tmp_path, mkdirs included."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


def load_project(package_dir):
    """Index every file under ``package_dir`` the way ``repro-audit`` does.

    Files that do not parse are left out of the project (the audit
    reports them as ``PARSE001``).
    """
    contexts, _ = _parse_contexts(iter_python_files([str(package_dir)]))
    return Project.from_contexts(contexts)


@pytest.fixture
def project(tmp_path):
    build_tree(tmp_path, {
        "pkg/__init__.py": "from pkg.util import helper\n",
        "pkg/util.py": ("def helper(x):\n"
                        "    return x\n"
                        "\n"
                        "class Base:\n"
                        "    def greet(self):\n"
                        "        return 'hi'\n"),
        "pkg/mod.py": ("from pkg.util import Base, helper as h\n"
                       "\n"
                       "class Child(Base):\n"
                       "    def run(self):\n"
                       "        return h(1)\n"),
        "pkg/sub/__init__.py": "",
        "pkg/sub/deep.py": ("from .. import helper\n"
                            "\n"
                            "def local_import():\n"
                            "    from pkg import mod\n"
                            "    return mod\n"),
    })
    return load_project(tmp_path / "pkg")


class TestModuleNames:
    def test_plain_module(self, tmp_path):
        build_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": ""})
        assert module_name_for_path(tmp_path / "pkg" / "mod.py") == "pkg.mod"

    def test_package_init(self, tmp_path):
        build_tree(tmp_path, {"pkg/__init__.py": "",
                              "pkg/sub/__init__.py": ""})
        path = tmp_path / "pkg" / "sub" / "__init__.py"
        assert module_name_for_path(path) == "pkg.sub"

    def test_file_outside_any_package_is_none(self, tmp_path):
        loose = tmp_path / "loose.py"
        loose.write_text("")
        assert module_name_for_path(loose) is None


class TestIndexing:
    def test_modules_functions_classes(self, project):
        assert {"pkg", "pkg.util", "pkg.mod", "pkg.sub",
                "pkg.sub.deep"} == set(project.modules)
        assert "pkg.util.helper" in project.functions
        assert "pkg.util.Base" in project.classes
        assert "pkg.mod.Child" in project.classes

    def test_methods_indexed_with_class_qualname(self, project):
        info = project.functions["pkg.util.Base.greet"]
        assert info.class_qualname == "pkg.util.Base"
        assert project.classes["pkg.util.Base"].methods == {
            "greet": "pkg.util.Base.greet"}

    def test_base_classes_resolved_through_imports(self, project):
        assert project.classes["pkg.mod.Child"].bases == ["pkg.util.Base"]

    def test_unparseable_files_are_skipped(self, tmp_path):
        build_tree(tmp_path, {"pkg/__init__.py": "",
                              "pkg/ok.py": "def f():\n    return 1\n",
                              "pkg/broken.py": "def broken(:\n"})
        proj = load_project(tmp_path / "pkg")
        assert "pkg.ok" in proj.modules
        assert "pkg.broken" not in proj.modules


class TestResolve:
    def test_direct_definition(self, project):
        assert project.resolve("pkg.util.helper") == "pkg.util.helper"

    def test_reexport_through_init(self, project):
        assert project.resolve("pkg.helper") == "pkg.util.helper"

    def test_alias_hop(self, project):
        assert project.resolve("pkg.mod.h") == "pkg.util.helper"

    def test_method_access_on_class(self, project):
        assert project.resolve("pkg.util.Base.greet") == "pkg.util.Base.greet"

    def test_inherited_method_access(self, project):
        assert project.resolve("pkg.mod.Child.greet") == "pkg.util.Base.greet"

    def test_external_and_unknown_are_none(self, project):
        assert project.resolve("os.path.join") is None
        assert project.resolve("pkg.util.nothing") is None
        assert project.resolve(None) is None

    def test_resolve_method_walks_bases(self, project):
        assert project.resolve_method("pkg.mod.Child", "greet") == \
            "pkg.util.Base.greet"
        assert project.resolve_method("pkg.mod.Child", "absent") is None

    def test_class_and_ancestors(self, project):
        assert project.class_and_ancestors("pkg.mod.Child") == [
            "pkg.mod.Child", "pkg.util.Base"]


class TestImportClosure:
    def test_includes_ancestor_packages(self, project):
        closure = project.import_closure("pkg.sub.deep")
        assert "pkg" in closure and "pkg.sub" in closure

    def test_function_local_imports_count(self, project):
        # pkg.sub.deep imports pkg.mod only inside a function body.
        assert "pkg.mod" in project.import_closure("pkg.sub.deep")

    def test_relative_imports_resolve(self, project):
        # ``from .. import helper`` in pkg/sub/deep.py pulls in pkg.
        assert "pkg" in project.modules["pkg.sub.deep"].imported_modules

    def test_unknown_entry_raises(self, project):
        with pytest.raises(KeyError):
            project.import_closure("pkg.nope")

    def test_closure_is_sorted(self, project):
        closure = project.import_closure("pkg.sub.deep")
        assert closure == sorted(closure)

    def test_type_checking_imports_count(self, tmp_path):
        build_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from typing import TYPE_CHECKING\n"
                         "if TYPE_CHECKING:\n"
                         "    from pkg import b\n"),
            "pkg/b.py": "",
        })
        proj = load_project(tmp_path / "pkg")
        assert "pkg.b" in proj.import_closure("pkg.a")
