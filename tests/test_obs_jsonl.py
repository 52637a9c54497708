"""Tests for the shared torn-line-tolerant JSONL reader."""

import pytest

from repro.obs.jsonl import read_jsonl


def test_objects_in_order_and_skips_counted(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text(
        '{"a": 1}\n'
        "\n"
        "[1, 2]\n"
        '{"b": 2}\n'
        '{"c": 3, "torn'
    )
    records, skipped = read_jsonl(str(path))
    assert records == [{"a": 1}, {"b": 2}]
    assert skipped == 2  # the array line and the torn tail; blanks are free


def test_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        read_jsonl(str(tmp_path / "absent.jsonl"))
