"""Tests for repro.utils validation, config, serialization and logging."""

import logging
import os
import stat

import numpy as np
import pytest

from repro.utils.config import ConfigError, validate_choice
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 3) == 3

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive("x", value)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -0.5)

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_check_probability_accepts(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, float("nan")])
    def test_check_probability_rejects(self, value):
        with pytest.raises(ValueError):
            check_probability("p", value)


class TestConfigHelpers:
    def test_validate_choice_accepts(self):
        assert validate_choice("mode", "a", ["a", "b"]) == "a"

    def test_validate_choice_rejects(self):
        with pytest.raises(ConfigError):
            validate_choice("mode", "c", ["a", "b"])


class TestSerialization:
    def test_array_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "arrays")
        arrays = {"w": np.arange(6).reshape(2, 3), "b": np.ones(3)}
        written = save_arrays(path, arrays)
        assert written.endswith(".npz")
        loaded = load_arrays(written)
        assert set(loaded) == {"w", "b"}
        assert np.array_equal(loaded["w"], arrays["w"])

    def test_empty_arrays_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_arrays(os.path.join(tmp_path, "x"), {})

    def test_json_roundtrip_with_numpy_types(self, tmp_path):
        path = os.path.join(tmp_path, "result.json")
        payload = {"acc": np.float64(0.5), "n": np.int64(3), "arr": np.arange(3)}
        save_json(path, payload)
        loaded = load_json(path)
        assert loaded["acc"] == 0.5
        assert loaded["n"] == 3
        assert loaded["arr"] == [0, 1, 2]

    def test_json_creates_directories(self, tmp_path):
        path = os.path.join(tmp_path, "nested", "dir", "x.json")
        save_json(path, {"ok": True})
        assert load_json(path) == {"ok": True}

    def test_load_arrays_accepts_path_without_suffix(self, tmp_path):
        path = os.path.join(tmp_path, "weights")
        save_arrays(path, {"w": np.arange(4)})
        assert np.array_equal(load_arrays(path)["w"], np.arange(4))

    def test_json_encodes_numpy_float32_and_bool(self, tmp_path):
        path = os.path.join(tmp_path, "flags.json")
        save_json(path, {"x": np.float32(0.25), "ok": np.bool_(True)})
        loaded = load_json(path)
        assert loaded == {"x": 0.25, "ok": True}
        assert type(loaded["ok"]) is bool

    def test_json_rejects_unserialisable_values(self, tmp_path):
        with pytest.raises(TypeError):
            save_json(os.path.join(tmp_path, "bad.json"), {"x": object()})

    def test_atomic_write_replaces_document(self, tmp_path):
        path = os.path.join(tmp_path, "doc.json")
        save_json(path, {"v": 1}, atomic=True)
        save_json(path, {"v": 2}, atomic=True)
        assert load_json(path) == {"v": 2}
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_array_write_replaces_archive(self, tmp_path):
        path = os.path.join(tmp_path, "weights.npz")
        save_arrays(path, {"w": np.zeros(2)})
        save_arrays(path, {"w": np.ones(2)})
        assert np.array_equal(load_arrays(path)["w"], np.ones(2))
        assert os.listdir(tmp_path) == ["weights.npz"]

    def test_failed_array_write_keeps_old_archive_and_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        path = os.path.join(tmp_path, "weights.npz")
        save_arrays(path, {"w": np.arange(4)})

        def torn(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise OSError("killed mid-save")

        monkeypatch.setattr(np, "savez_compressed", torn)
        with pytest.raises(OSError, match="killed mid-save"):
            save_arrays(path, {"w": np.zeros(4)})
        monkeypatch.undo()
        assert np.array_equal(load_arrays(path)["w"], np.arange(4))
        assert os.listdir(tmp_path) == ["weights.npz"]

    def test_atomic_writes_take_their_mode_from_the_umask(self, tmp_path):
        """A weight cache shared through group permissions stays readable."""
        archive = os.path.join(tmp_path, "weights.npz")
        document = os.path.join(tmp_path, "doc.json")
        previous = os.umask(0o027)
        try:
            save_arrays(archive, {"w": np.arange(2)})
            save_json(document, {"v": 1}, atomic=True)
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(archive).st_mode) == 0o640
        assert stat.S_IMODE(os.stat(document).st_mode) == 0o640

    def test_failed_atomic_write_keeps_old_document_and_no_temp_file(self, tmp_path):
        path = os.path.join(tmp_path, "doc.json")
        save_json(path, {"v": 1}, atomic=True)
        with pytest.raises(TypeError):
            save_json(path, {"v": object()}, atomic=True)
        assert load_json(path) == {"v": 1}
        assert os.listdir(tmp_path) == ["doc.json"]


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("nn").name == "repro.nn"
        assert get_logger().name == "repro"
        assert get_logger("repro.snn").name == "repro.snn"

    def test_set_verbosity(self):
        set_verbosity("debug")
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity("warning")
        assert logging.getLogger("repro").level == logging.WARNING

    def test_unknown_verbosity(self):
        with pytest.raises(ValueError):
            set_verbosity("loud")

    def test_one_shared_handler_without_propagation(self):
        get_logger("nn")
        get_logger("snn")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
        assert root.propagate is False
