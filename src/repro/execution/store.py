"""Content-addressed on-disk store for evaluated sweep cells.

The store keeps three kinds of small JSON document, each fanned out over
two-hex-digit prefix directories to keep directory listings cheap at
scale::

    <root>/cells/<fp[:2]>/<fp>.json
    <root>/shards/<cell_fp[:2]>/<cell_fp>/<shard_fp>.json
    <root>/workloads/<key[:2]>/<key>.json

* **Cells** hold one evaluated sweep cell, keyed by the plan fingerprint
  (see :meth:`repro.execution.plan.EvaluationPlan.fingerprint` -- it covers
  the network hash, scale, seed, method, noise cell, backends and
  batch/eval sizes).
* **Shards** hold one sample shard of a cell the engine split across
  workers, under the *cell's* fingerprint, until every shard has landed and
  the merged cell document is written; the shard documents are then
  deleted.  A killed sharded run therefore resumes at shard granularity.
* **Workloads** hold the deterministic products of preparing a workload
  that are expensive to recompute but tiny to persist (activation scales,
  input scale, analog DNN accuracy), keyed by
  :func:`repro.experiments.workloads.conversion_key` over the dataset,
  every scale field, the seed, the trained weights' hash, the calibration
  size and the scale percentile.  With the conversion cached, a re-run
  skips the calibration forward passes and the analog accuracy
  evaluation.  ``prepare_workload`` keeps this document in the caller's
  store and in a store rooted at the trained-weight cache directory, so
  a run without a store finds it beside the weights.

Every document goes through one path builder (:meth:`ResultStore._path`),
one writer (:meth:`ResultStore._write`: atomic, temp file + rename, so a
killed run never leaves a half-written document) and one reader
(:meth:`ResultStore._read`): a missing document is a silent miss, and an
unreadable or malformed one is a miss with a warning naming the file, so a
corrupt store can only cost a re-evaluation, never correctness.
:meth:`ResultStore.gc` is the one inventory: it counts every section and
collects what can never be served again.

Because the key is a content address, the store gives three properties for
free:

* **resume** -- an interrupted sweep re-run skips every cell whose document
  already exists and evaluates only the remainder,
* **incremental re-runs** -- cells shared between figures and tables (same
  fingerprint) are evaluated once and reused everywhere,
* **invalidation** -- any change that could alter a result (new trained
  weights, different seed/scale/backend/batch size) changes the fingerprint,
  so stale documents are simply never read again.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

from repro.core.pipeline import EvaluationResult
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, save_json

logger = get_logger("execution.store")

T = TypeVar("T")

#: Store format version, embedded in every document; bump on layout changes.
STORE_VERSION = 1

#: Payload fields a conversion document must carry to be servable --
#: exactly what :func:`repro.experiments.workloads.prepare_workload` needs
#: to rebuild the network without re-running calibration.
_REQUIRED_WORKLOAD_FIELDS = ("scales", "percentile", "input_scale", "dnn_accuracy")


def _result(document) -> EvaluationResult:
    """The result of a cell or shard document."""
    return EvaluationResult.from_dict(document["result"])


def _conversion(document) -> dict:
    """The payload of a conversion document, with every required field."""
    payload = document["conversion"]
    if not isinstance(payload, dict):
        raise TypeError("conversion is not a mapping")
    for name in _REQUIRED_WORKLOAD_FIELDS:
        if name not in payload:
            raise KeyError(name)
    return payload


def _size(path: str) -> int:
    """Bytes of ``path``; 0 when it cannot be sized."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _listdir(directory: str) -> List[str]:
    """Sorted entries of ``directory``; empty when it is missing."""
    try:
        return sorted(os.listdir(directory))
    except FileNotFoundError:
        return []


def _remove(path: str) -> int:
    """Unlink one file; 1 when removed, 0 (with a warning) when not."""
    try:
        os.unlink(path)
        return 1
    except OSError as error:
        logger.warning("cannot remove store document %s (%s)", path, error)
        return 0


@dataclass
class ResultStore:
    """Content-addressed JSON store of cell, shard and conversion documents."""

    root: str

    # -- the one path builder, reader and writer ---------------------------------
    def _path(self, section: str, *keys: str, ext: str = ".json") -> str:
        """``<root>/<section>/<keys[0][:2]>/<keys...>`` plus ``ext``.

        ``("cells", fp)`` is a cell document, ``("shards", cell, shard)`` a
        shard document and ``("shards", cell, ext="")`` its cell's shard
        directory, ``("workloads", key)`` a conversion document.
        """
        return os.path.join(self.root, section, keys[0][:2], *keys) + ext

    def _read(self, path: str, parse: Callable[[dict], T]) -> Optional[T]:
        """Load and parse one document; ``None`` (a miss) when unusable.

        A missing document is a silent miss.  A truncated, non-JSON or
        malformed one (e.g. from a crash predating atomic writes) is a miss
        with a warning naming the file: the caller recomputes and the
        document is overwritten.
        """
        try:
            document = load_json(path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as error:
            logger.warning("ignoring unreadable store document %s (%s)", path, error)
            return None
        try:
            return parse(document)
        except (KeyError, TypeError, ValueError) as error:
            logger.warning("ignoring malformed store document %s (%s)", path, error)
            return None

    def _write(self, path: str, fields: dict) -> str:
        """Persist one versioned document atomically; returns the path."""
        save_json(path, {"version": STORE_VERSION, **fields}, atomic=True)
        return path

    # -- cells ---------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[EvaluationResult]:
        """Load a stored cell result; ``None`` (a miss) when absent or unusable."""
        return self._read(self._path("cells", fingerprint), _result)

    def put(
        self,
        fingerprint: str,
        result: EvaluationResult,
        plan_description: Optional[dict] = None,
    ) -> str:
        """Persist a cell result document atomically; returns the path written."""
        fields = {"fingerprint": fingerprint, "result": result.as_dict()}
        if plan_description is not None:
            fields["plan"] = plan_description
        return self._write(self._path("cells", fingerprint), fields)

    # -- sample shards -----------------------------------------------------------
    def get_shard(
        self, cell_fingerprint: str, shard_fingerprint: str
    ) -> Optional[EvaluationResult]:
        """Load a stored shard result; ``None`` (a miss) when absent or unusable."""
        return self._read(
            self._path("shards", cell_fingerprint, shard_fingerprint), _result
        )

    def put_shard(
        self,
        cell_fingerprint: str,
        shard_fingerprint: str,
        result: EvaluationResult,
        plan_description: Optional[dict] = None,
    ) -> str:
        """Persist one shard result atomically; returns the path written."""
        fields = {
            "cell": cell_fingerprint,
            "fingerprint": shard_fingerprint,
            "result": result.as_dict(),
        }
        if plan_description is not None:
            fields["plan"] = plan_description
        return self._write(
            self._path("shards", cell_fingerprint, shard_fingerprint), fields
        )

    def delete_shards(self, cell_fingerprint: str) -> int:
        """Delete every file of a cell's shard directory; returns the count.

        Called once a cell's shards merged and the cell document was written
        -- the shard documents are then redundant.  Best-effort like every
        store write: filesystem errors degrade to a warning, and
        :meth:`gc` collects the leftovers.
        """
        directory = self._path("shards", cell_fingerprint, ext="")
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return 0
        except OSError as error:
            logger.warning("cannot list shard directory %s (%s)", directory, error)
            return 0
        removed = sum(_remove(os.path.join(directory, name)) for name in names)
        try:
            os.rmdir(directory)
        except OSError:
            pass  # non-empty (a remove failed) or already gone
        return removed

    # -- workload conversions --------------------------------------------------
    def get_workload_conversion(self, key: str) -> Optional[dict]:
        """Load a stored conversion payload; ``None`` (a miss) when absent or
        unusable (unreadable, or missing a field ``prepare_workload`` needs)."""
        return self._read(self._path("workloads", key), _conversion)

    def put_workload_conversion(self, key: str, payload: dict) -> str:
        """Persist a conversion payload atomically; returns the path written."""
        return self._write(
            self._path("workloads", key), {"key": key, "conversion": dict(payload)}
        )

    # -- inventory -----------------------------------------------------------------
    def gc(self) -> Dict[str, int]:
        """Count every shard and conversion document and collect the orphans.

        A shard document is *orphaned* once its cell's merged document
        exists (a run died between the cell write and the shard cleanup);
        its whole directory is removed, stray files included.  A conversion
        document is orphaned when :meth:`get_workload_conversion` would
        refuse to serve it.  Live shards of an unmerged cell and servable
        conversions are never touched, so gc is safe to run any time.
        Reclaimed bytes are the orphaned ``.json`` documents' sizes, taken
        before removal.
        """
        counts = dict.fromkeys((
            "shard_cells", "shard_docs", "orphaned_shard_docs",
            "collected_shard_docs", "reclaimed_shard_bytes",
            "workload_docs", "orphaned_workload_docs",
            "collected_workload_docs", "reclaimed_workload_bytes",
        ), 0)
        for cell, directory in self._entries("shards"):
            try:
                names = os.listdir(directory)
            except OSError:
                continue  # not a cell directory, or unlistable
            documents = [name for name in names if name.endswith(".json")]
            counts["shard_cells"] += 1
            counts["shard_docs"] += len(documents)
            if not os.path.exists(self._path("cells", cell)):
                continue  # live in-flight shards of an unmerged cell
            counts["orphaned_shard_docs"] += len(documents)
            counts["reclaimed_shard_bytes"] += sum(
                _size(os.path.join(directory, name)) for name in documents
            )
            counts["collected_shard_docs"] += self.delete_shards(cell)
        for name, path in self._entries("workloads"):
            if not name.endswith(".json"):
                continue
            counts["workload_docs"] += 1
            if self._read(path, _conversion) is not None:
                continue
            counts["orphaned_workload_docs"] += 1
            counts["reclaimed_workload_bytes"] += _size(path)
            counts["collected_workload_docs"] += _remove(path)
        return counts

    def _entries(self, section: str) -> Iterator[Tuple[str, str]]:
        """``(name, path)`` of each entry of each prefix directory of a section."""
        top = os.path.join(self.root, section)
        for prefix in _listdir(top):
            prefix_dir = os.path.join(top, prefix)
            if os.path.isdir(prefix_dir):
                for name in _listdir(prefix_dir):
                    yield name, os.path.join(prefix_dir, name)


def resolve_store(store) -> Optional[ResultStore]:
    """Normalise a store selection.

    Accepts a ready :class:`ResultStore`, a directory path (string), or
    ``None`` / ``False`` for no store.
    """
    if store is None or store is False:
        return None
    if isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, os.PathLike)):
        return ResultStore(os.fspath(store))
    raise TypeError(
        f"store must be a ResultStore, a directory path, None or False; "
        f"got {type(store).__name__}"
    )
