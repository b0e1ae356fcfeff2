"""The result store's on-disk format, pinned by literal documents.

One cell, one shard and one conversion document are written here as the
literal JSON a store holds, at their literal paths.  Each must read back
through the public getters, and each ``put*`` must write the same parsed
JSON at the same path -- so a store written by an earlier version keeps
resuming, and a conversion document keeps being served instead of being
silently recomputed.
"""

import json
import os

import pytest

from repro.core.pipeline import EvaluationResult
from repro.execution.store import ResultStore

CELL = "ab" + "1" * 62
SHARD = "cd" + "2" * 62
KEY = "ef" + "3" * 62

CELL_DOCUMENT = """{
  "version": 1,
  "fingerprint": "ab11111111111111111111111111111111111111111111111111111111111111",
  "result": {
    "accuracy": 0.75,
    "total_spikes": 1234,
    "spikes_per_sample": 308.5,
    "coding": "ttas",
    "deletion": 0.5,
    "jitter": 0.0,
    "weight_scaling_factor": 2.0,
    "num_samples": 4
  },
  "plan": {
    "method": {"coding": "ttas", "target_duration": 5},
    "noise_kind": "deletion",
    "level": 0.5,
    "eval_size": 4,
    "schema": 6
  }
}
"""

SHARD_DOCUMENT = """{
  "version": 1,
  "cell": "ab11111111111111111111111111111111111111111111111111111111111111",
  "fingerprint": "cd22222222222222222222222222222222222222222222222222222222222222",
  "result": {
    "accuracy": 0.5,
    "total_spikes": 600,
    "spikes_per_sample": 300.0,
    "coding": "ttas",
    "deletion": 0.5,
    "jitter": 0.0,
    "weight_scaling_factor": 2.0,
    "num_samples": 2
  },
  "plan": {
    "method": {"coding": "ttas", "target_duration": 5},
    "noise_kind": "deletion",
    "level": 0.5,
    "eval_size": 4,
    "schema": 6,
    "shard": [0, 2]
  }
}
"""

CONVERSION_DOCUMENT = """{
  "version": 1,
  "key": "ef33333333333333333333333333333333333333333333333333333333333333",
  "conversion": {
    "scales": [1.5, 2.25, 3.0],
    "percentile": 99.9,
    "input_scale": 1.0,
    "dnn_accuracy": 0.875,
    "means": [0.5, 0.75, 1.0],
    "maxima": [2.0, 3.0, 4.0],
    "sample_size": 128
  }
}
"""

#: (document, path under the store root) of each kind.
DOCUMENTS = {
    "cell": (CELL_DOCUMENT, os.path.join("cells", "ab", f"{CELL}.json")),
    "shard": (SHARD_DOCUMENT, os.path.join("shards", "ab", CELL, f"{SHARD}.json")),
    "conversion": (CONVERSION_DOCUMENT, os.path.join("workloads", "ef", f"{KEY}.json")),
}


def _plant(root, kind):
    text, relative = DOCUMENTS[kind]
    path = os.path.join(root, relative)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return json.loads(text), path


def _read(store, kind):
    if kind == "cell":
        return store.get(CELL)
    if kind == "shard":
        return store.get_shard(CELL, SHARD)
    return store.get_workload_conversion(KEY)


def _put(store, kind, document):
    if kind == "cell":
        return store.put(
            CELL, EvaluationResult.from_dict(document["result"]), document["plan"]
        )
    if kind == "shard":
        return store.put_shard(
            CELL, SHARD, EvaluationResult.from_dict(document["result"]),
            document["plan"],
        )
    return store.put_workload_conversion(KEY, document["conversion"])


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_literal_document_reads_back(tmp_path, kind):
    root = str(tmp_path / "store")
    document, _ = _plant(root, kind)
    loaded = _read(ResultStore(root), kind)
    if kind == "conversion":
        assert loaded == document["conversion"]
    else:
        assert loaded == EvaluationResult.from_dict(document["result"])
        assert loaded.as_dict() == document["result"]


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_put_writes_the_literal_document(tmp_path, kind):
    planted_root = str(tmp_path / "planted")
    document, planted = _plant(planted_root, kind)
    root = str(tmp_path / "store")
    path = _put(ResultStore(root), kind, document)
    assert os.path.relpath(path, root) == os.path.relpath(planted, planted_root)
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == document
