"""Crash-safe writes: :func:`repro.ioutils.atomic_write_text`.

Regression coverage for the fixed ``.tmp`` temp name that once let
concurrent writers replace each other's half-written files. Artifact
bundles (:mod:`repro.index.artifacts`) persist every component through
this function.
"""

import json
import threading

import pytest

from repro.ioutils import atomic_write_text


class TestAtomicWriteText:
    def test_writes_and_returns_path(self, tmp_path):
        target = tmp_path / "deep" / "out.txt"
        assert atomic_write_text(target, "hello") == target
        assert target.read_text() == "hello"

    def test_replaces_existing_content_completely(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "x" * 1000)
        atomic_write_text(target, "short")
        assert target.read_text() == "short"

    def test_no_temp_litter_after_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "data")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_keeps_old_file_and_cleans_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "original")

        import repro.ioutils as ioutils

        def exploding_replace(src, dst):
            raise OSError("simulated crash at the commit point")

        monkeypatch.setattr(ioutils.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "replacement")
        monkeypatch.undo()
        # the old complete file survives and the temp file is unlinked
        assert target.read_text() == "original"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_concurrent_writers_never_publish_partial_files(self, tmp_path):
        # the old fixed "<name>.tmp" temp name let writer B os.replace a
        # file A was still filling; unique mkstemp names make every
        # published version one writer's complete text
        target = tmp_path / "shared.json"
        texts = [json.dumps({"writer": index, "pad": "x" * 4096}) for index in range(4)]
        errors = []

        def write(text):
            try:
                for _ in range(25):
                    atomic_write_text(target, text)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(text,)) for text in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert json.loads(target.read_text())["pad"] == "x" * 4096
        assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]
