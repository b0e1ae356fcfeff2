"""Content-addressed on-disk store for evaluated sweep cells.

The store keeps two kinds of small JSON document, each fanned out over
two-hex-digit prefix directories to keep directory listings cheap at
scale::

    <root>/cells/<fp[:2]>/<fp>.json
    <root>/shards/<cell_fp[:2]>/<cell_fp>/<shard_fp>.json

* **Cells** hold one evaluated sweep cell, keyed by the plan fingerprint
  (see :meth:`repro.execution.plan.EvaluationPlan.fingerprint` -- it covers
  the network hash, scale, seed, method, noise cell, backends and
  batch/eval sizes).
* **Shards** hold one sample shard of a cell the engine split across
  workers, under the *cell's* fingerprint, until every shard has landed and
  the merged cell document is written; the shard documents are then
  deleted.  A killed sharded run therefore resumes at shard granularity.

A workload's conversion products live beside its trained weights, not here
(:func:`repro.experiments.workloads.prepare_workload`).  A store written
before that move keeps resuming, since no cell reads the conversion
document; its ``workloads/`` directory is no longer read and can be deleted
by hand.

Every document goes through one path builder (:meth:`ResultStore._path`),
one writer (:meth:`ResultStore._write`: atomic, temp file + rename, so a
killed run never leaves a half-written document) and one reader
(:meth:`ResultStore._read`): a missing document is a silent miss, and an
unreadable or malformed one is a miss with a warning naming the file, so a
corrupt store can only cost a re-evaluation, never correctness.
:meth:`ResultStore.gc` is the one inventory: it counts the shard documents
and collects those that can never be served again.

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
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.pipeline import EvaluationResult
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, save_json

logger = get_logger("execution.store")

#: Store format version, embedded in every document; bump on layout changes.
STORE_VERSION = 1


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
    """Content-addressed JSON store of cell and shard documents."""

    root: str

    # -- the one path builder, reader and writer ---------------------------------
    def _path(self, section: str, *keys: str, ext: str = ".json") -> str:
        """``<root>/<section>/<keys[0][:2]>/<keys...>`` plus ``ext``.

        ``("cells", fp)`` is a cell document, ``("shards", cell, shard)`` a
        shard document and ``("shards", cell, ext="")`` its cell's shard
        directory.
        """
        return os.path.join(self.root, section, keys[0][:2], *keys) + ext

    def _read(self, path: str) -> Optional[EvaluationResult]:
        """The result of one document; ``None`` (a miss) when unusable.

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
            return EvaluationResult.from_dict(document["result"])
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
        return self._read(self._path("cells", fingerprint))

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
        return self._read(self._path("shards", cell_fingerprint, shard_fingerprint))

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

    # -- inventory -----------------------------------------------------------------
    def gc(self) -> Dict[str, int]:
        """Count every shard document and collect the orphans.

        A shard document is *orphaned* once its cell's merged document
        exists (a run died between the cell write and the shard cleanup);
        its whole directory is removed, stray files included.  Live shards
        of an unmerged cell are never touched, so gc is safe to run any
        time.  Reclaimed bytes are the orphaned ``.json`` documents' sizes,
        taken before removal.
        """
        counts = dict.fromkeys((
            "shard_cells", "shard_docs", "orphaned_shard_docs",
            "collected_shard_docs", "reclaimed_shard_bytes",
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
