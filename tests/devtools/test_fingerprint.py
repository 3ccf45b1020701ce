"""The campaign cache salt: a digest of the package's source bytes.

The salt is computed by :func:`repro.experiments.cache._source_salt`; the
tests run it on copies of the real tree and on a small synthetic tree.
Any edit to a salted file changes it, comments and docstrings included;
edits under :data:`~repro.experiments.cache.SALT_EXCLUDE_PREFIXES` do
not.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import AnalysisError
from repro.experiments import cache as cache_module
from repro.experiments.cache import SALT_EXCLUDE_PREFIXES, _source_salt

from tests.devtools.test_symbols import build_tree, load_project

PACKAGE_ROOT = Path(repro.__file__).parent

SALT_PREFIX = "repro-cell-v3-"


@pytest.fixture
def salt_tree(tmp_path):
    build_tree(tmp_path, {
        "repro/__init__.py": "",
        "repro/kernel.py": "def step():\n    return 1\n",
        "repro/devtools/__init__.py": "",
        "repro/devtools/lint.py": "def rule():\n    return 3\n",
    })
    return tmp_path / "repro"


class TestDerivedSalt:
    def test_prefix_and_stability(self, salt_tree):
        first = _source_salt(salt_tree)
        assert first.startswith(SALT_PREFIX)
        assert first == _source_salt(salt_tree)

    def test_missing_package_dir_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="no package sources"):
            _source_salt(tmp_path / "nope")

    def test_exclude_prefixes(self, salt_tree):
        base = _source_salt(salt_tree)
        (salt_tree / "devtools" / "lint.py").write_text(
            "def rule():\n    return 99\n")
        (salt_tree / "devtools" / "extra.py").write_text("X = 1\n")
        assert _source_salt(salt_tree) == base
        shutil.rmtree(salt_tree / "devtools")
        assert _source_salt(salt_tree) == base

    def test_semantic_edit_to_reachable_module_changes_salt(self, salt_tree):
        base = _source_salt(salt_tree)
        (salt_tree / "kernel.py").write_text("def step():\n    return 99\n")
        assert _source_salt(salt_tree) != base

    def test_new_module_changes_salt(self, salt_tree):
        base = _source_salt(salt_tree)
        (salt_tree / "unrelated.py").write_text("X = 1\n")
        assert _source_salt(salt_tree) != base

    def test_renamed_module_changes_salt(self, salt_tree):
        base = _source_salt(salt_tree)
        (salt_tree / "kernel.py").rename(salt_tree / "engine.py")
        assert _source_salt(salt_tree) != base

    def test_fallback_when_no_sources(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(cache_module, "_salt_cache", None)
        monkeypatch.setattr(cache_module, "_source_salt",
                            lambda root: _source_salt(tmp_path))
        with caplog.at_level("WARNING"):
            assert cache_module.cache_salt() == cache_module._FALLBACK_SALT
        assert "cache-salt-underivable" in caplog.text
        assert "no package sources" in caplog.text
        monkeypatch.setattr(cache_module, "_salt_cache", None)

    def test_equal_in_a_fresh_interpreter(self):
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT.parent))
        result = subprocess.run(
            [sys.executable, "-c",
             "from repro.experiments.cache import cache_salt; "
             "print(cache_salt())"],
            capture_output=True, text=True, check=True, env=env)
        fresh = result.stdout.strip()
        assert fresh.startswith(SALT_PREFIX)
        assert fresh == cache_module.cache_salt()


class TestRealTree:
    """Edits to a copy of the shipped sources."""

    @pytest.fixture
    def tree_copy(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(PACKAGE_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    def test_copy_salts_like_the_shipped_tree(self, tree_copy):
        assert _source_salt(tree_copy) == _source_salt(PACKAGE_ROOT)

    def test_semantic_kernel_edit_changes_salt(self, tree_copy):
        base = _source_salt(tree_copy)
        kernel = tree_copy / "sim" / "kernel.py"
        kernel.write_text(kernel.read_text() + "\nKERNEL_TWEAK = 1\n")
        changed = _source_salt(tree_copy)
        assert changed != base
        assert changed.startswith(SALT_PREFIX)

    def test_comment_only_kernel_edit_changes_salt(self, tree_copy):
        # The salt hashes bytes, not syntax trees: a cosmetic edit costs
        # one cold run, and can never produce a stale hit.
        base = _source_salt(tree_copy)
        kernel = tree_copy / "sim" / "kernel.py"
        kernel.write_text(kernel.read_text()
                          + "\n# a trailing comment, purely cosmetic\n")
        assert _source_salt(tree_copy) != base

    def test_lint_rule_edit_keeps_salt(self, tree_copy):
        base = _source_salt(tree_copy)
        rule = tree_copy / "devtools" / "rules_determinism.py"
        rule.write_text(rule.read_text() + "\nRULE_TWEAK = 1\n")
        assert _source_salt(tree_copy) == base

    def test_pool_plumbing_excluded_from_closure(self, tree_copy):
        # The warm-pool dispatcher moves results between processes but
        # computes none of them, so it must not participate in the salt.
        base = _source_salt(tree_copy)
        (tree_copy / "experiments" / "pool.py").unlink()
        assert _source_salt(tree_copy) == base

    def test_comment_only_dispatcher_edit_keeps_salt(self, tree_copy):
        base = _source_salt(tree_copy)
        dispatcher = tree_copy / "experiments" / "pool.py"
        dispatcher.write_text(dispatcher.read_text()
                              + "\n# cosmetic dispatcher note\n")
        assert _source_salt(tree_copy) == base

    def test_semantic_dispatcher_edit_keeps_salt(self, tree_copy):
        # Even real code changes to the lease/transport plumbing leave
        # cached physics valid, because the transports are proven
        # byte-exact separately.
        base = _source_salt(tree_copy)
        dispatcher = tree_copy / "experiments" / "pool.py"
        dispatcher.write_text(dispatcher.read_text()
                              + "\nLEASES_PER_WORKER = 8\n")
        assert _source_salt(tree_copy) == base

    def test_salt_covers_the_campaign_import_closure(self, tree_copy):
        # Soundness: every module the campaign worker can import feeds
        # the salt, so hashing the package is never narrower than the
        # import closure it replaced.
        project = load_project(tree_copy)
        closure = [name for name
                   in project.import_closure("repro.experiments.campaign")
                   if not any(name == prefix or name.startswith(prefix + ".")
                              for prefix in SALT_EXCLUDE_PREFIXES)]
        assert "repro.sim.kernel" in closure
        salt = _source_salt(tree_copy)
        for name in closure:
            path = Path(project.modules[name].path)
            path.write_bytes(path.read_bytes() + b"\n# touched\n")
            touched = _source_salt(tree_copy)
            assert touched != salt, name
            salt = touched
