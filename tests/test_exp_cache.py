"""Tests for the content-addressed result cache."""

import json
import os
import re
import shutil

import pytest

import repro
from repro.exp.cache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    code_version,
    default_cache_dir,
)

KEY = "a" * 64


class TestDefaultDir:
    def test_env_var_overrides(self, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"

    def test_falls_back_to_dot_dir(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir() == DEFAULT_CACHE_DIR

    def test_cache_picks_up_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "via-env"))
        cache = ResultCache()
        cache.put(KEY, {"result": 1})
        assert (tmp_path / "via-env").exists()


class TestRoundtrip:
    def test_get_miss_returns_none(self, tmp_path):
        assert ResultCache(str(tmp_path)).get(KEY) is None

    def test_put_then_get(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEY, {"result": {"forward_progress": 5}, "wall_s": 0.25})
        entry = cache.get(KEY)
        assert entry["result"] == {"forward_progress": 5}
        assert entry["wall_s"] == 0.25
        assert entry["key"] == KEY
        assert entry["code_version"] == cache.version

    def test_contains_len_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert KEY not in cache
        cache.put(KEY, {"result": 1})
        cache.put("b" * 64, {"result": 2})
        assert KEY in cache
        assert len(cache) == 2
        assert cache.keys() == sorted([KEY, "b" * 64])

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEY, {"result": 1})
        with open(cache.path(KEY), "w") as handle:
            handle.write("{torn write")
        assert cache.get(KEY) is None

    def test_entries_are_pretty_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put(KEY, {"result": 1})
        with open(path) as handle:
            assert json.load(handle)["result"] == 1


class TestVersionNamespace:
    def test_versions_do_not_share_entries(self, tmp_path):
        old = ResultCache(str(tmp_path), version="1.0.0")
        new = ResultCache(str(tmp_path), version="2.0.0")
        old.put(KEY, {"result": "old-physics"})
        assert new.get(KEY) is None
        new.put(KEY, {"result": "new-physics"})
        assert old.get(KEY)["result"] == "old-physics"
        assert new.get(KEY)["result"] == "new-physics"

    def test_default_version_is_code_version(self, tmp_path):
        version = ResultCache(str(tmp_path)).version
        assert version == code_version()
        assert re.fullmatch(
            re.escape(repro.__version__) + r"\+[0-9a-f]{12}", version
        )

    def test_clear_only_touches_own_version(self, tmp_path):
        old = ResultCache(str(tmp_path), version="1.0.0")
        new = ResultCache(str(tmp_path), version="2.0.0")
        old.put(KEY, {"result": 1})
        new.put(KEY, {"result": 2})
        assert new.clear() == 1
        assert new.get(KEY) is None
        assert old.get(KEY)["result"] == 1


class TestModelCodeVersion:
    """The namespace follows the model sources, not just the version."""

    @staticmethod
    def _copy_package(dest):
        source = os.path.dirname(os.path.abspath(repro.__file__))
        shutil.copytree(
            source, dest, ignore=shutil.ignore_patterns("__pycache__")
        )
        return str(dest)

    @staticmethod
    def _flip_last_byte(path):
        with open(path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(b" " if last != b" " else b"\n")

    def test_copy_hashes_like_the_package(self, tmp_path):
        copy = self._copy_package(tmp_path / "repro")
        assert code_version(copy) == code_version()

    def test_one_byte_model_edit_is_a_cache_miss(self, tmp_path):
        old_tree = self._copy_package(tmp_path / "old" / "repro")
        new_tree = self._copy_package(tmp_path / "new" / "repro")
        self._flip_last_byte(os.path.join(new_tree, "core", "nvp.py"))
        old_version = code_version(old_tree)
        new_version = code_version(new_tree)
        assert old_version != new_version
        root = str(tmp_path / "cache")
        old = ResultCache(root, version=old_version)
        old.put(KEY, {"result": "old-physics"})
        new = ResultCache(root, version=new_version)
        assert new.directory != old.directory
        assert new.get(KEY) is None
        assert old.get(KEY)["result"] == "old-physics"

    def test_edit_outside_the_model_keeps_the_namespace(self, tmp_path):
        tree = self._copy_package(tmp_path / "repro")
        self._flip_last_byte(os.path.join(tree, "cli.py"))
        assert code_version(tree) == code_version()

    def test_ledger_records_the_code_version(self):
        from repro.obs.ledger import make_record

        record = make_record("simulate", "ok", 0.0, 1.0)
        assert record["code_version"] == code_version()


class TestKeys:
    @pytest.mark.parametrize("bad", ["", "../escape", "a/b", ".hidden"])
    def test_invalid_keys_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path)).path(bad)

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(KEY, {"result": 1})
        names = os.listdir(cache.directory)
        assert names == [f"{KEY}.json"]
