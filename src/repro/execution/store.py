"""Content-addressed on-disk store for evaluated sweep cells.

Every cell result is stored as one small JSON document under a cache
directory, keyed by the plan fingerprint (see
:meth:`repro.execution.plan.EvaluationPlan.fingerprint` -- it covers the
network hash, scale, seed, method, noise cell, backends and batch/eval
sizes).  The layout fans the documents out over 256 two-hex-digit shard
directories to keep directory listings cheap at scale::

    <root>/cells/<fp[:2]>/<fingerprint>.json

Alongside the cells, the store keeps **workload conversion** documents --
the deterministic products of preparing a workload that are expensive to
recompute but tiny to persist (activation scales, input scale, analog DNN
accuracy), keyed by a fingerprint over (dataset, scale, seed, trained
weights)::

    <root>/workloads/<key[:2]>/<key>.json

When the engine splits a cell into sample shards, each shard's result is
persisted individually under the *cell's* fingerprint until every shard of
the cell has landed and the merged cell document is written (the shard
documents are then garbage-collected)::

    <root>/shards/<cell_fp[:2]>/<cell_fp>/<shard_fp>.json

A killed sharded run therefore resumes at shard granularity -- only the
shards that never completed are re-evaluated.

First-run multi-dataset tables prepare every workload in the parent before
dispatching cells; with the conversion cached, a re-run (or a sweep over
the same workloads with different methods/levels) skips the calibration
forward passes and the analog accuracy evaluation entirely.  Same
invalidation logic as cells: retrained weights change the key, so stale
conversions are simply never read.

Because the key is a content address, the store gives three properties for
free:

* **resume** -- an interrupted sweep re-run skips every cell whose document
  already exists and evaluates only the remainder,
* **incremental re-runs** -- cells shared between figures and tables (same
  fingerprint) are evaluated once and reused everywhere,
* **invalidation** -- any change that could alter a result (new trained
  weights, different seed/scale/backend/batch size) changes the fingerprint,
  so stale documents are simply never read again.

Writes are atomic (temp file + rename) so a killed run never leaves a
half-written document behind.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.core.pipeline import EvaluationResult
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, save_json

logger = get_logger("execution.store")

#: Store format version, embedded in every document; bump on layout changes.
STORE_VERSION = 1

#: Payload fields a conversion document must carry to be servable --
#: exactly what :func:`repro.experiments.workloads.prepare_workload` needs
#: to rebuild the network without re-running calibration.
_REQUIRED_WORKLOAD_FIELDS = ("scales", "percentile", "input_scale", "dnn_accuracy")


@dataclass
class StoreStats:
    """Hit/miss/write counters of one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0


@dataclass
class ResultStore:
    """Content-addressed JSON store of :class:`EvaluationResult` documents."""

    root: str
    stats: StoreStats = field(default_factory=StoreStats)

    # -- layout --------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> str:
        """Document path of a fingerprint (two-hex-digit shard dirs)."""
        return os.path.join(self.root, "cells", fingerprint[:2], f"{fingerprint}.json")

    def __contains__(self, fingerprint: str) -> bool:
        return os.path.exists(self.path_for(fingerprint))

    # -- access --------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[EvaluationResult]:
        """Load a stored result; ``None`` (a miss) when absent or unreadable."""
        path = self.path_for(fingerprint)
        try:
            document = load_json(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError) as error:
            # A corrupt document (e.g. from a pre-atomic-write crash) is a
            # miss: the cell is re-evaluated and the document overwritten.
            logger.warning("ignoring unreadable store document %s (%s)", path, error)
            self.stats.misses += 1
            return None
        try:
            result = EvaluationResult.from_dict(document["result"])
        except (KeyError, TypeError, ValueError) as error:
            logger.warning("ignoring malformed store document %s (%s)", path, error)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(
        self,
        fingerprint: str,
        result: EvaluationResult,
        plan_description: Optional[dict] = None,
    ) -> str:
        """Persist a result document atomically; returns the path written."""
        path = self.path_for(fingerprint)
        document = {
            "version": STORE_VERSION,
            "fingerprint": fingerprint,
            "result": result.as_dict(),
        }
        if plan_description is not None:
            document["plan"] = plan_description
        save_json(path, document, atomic=True)
        self.stats.writes += 1
        return path

    # -- sample shards -----------------------------------------------------------
    def shard_dir_for(self, cell_fingerprint: str) -> str:
        """Directory holding the shard documents of one cell."""
        return os.path.join(
            self.root, "shards", cell_fingerprint[:2], cell_fingerprint
        )

    def shard_path_for(self, cell_fingerprint: str, shard_fingerprint: str) -> str:
        """Document path of one sample shard of a cell."""
        return os.path.join(
            self.shard_dir_for(cell_fingerprint), f"{shard_fingerprint}.json"
        )

    def get_shard(
        self, cell_fingerprint: str, shard_fingerprint: str
    ) -> Optional[EvaluationResult]:
        """Load a stored shard result; ``None`` (a miss) when absent.

        Same degradation contract as :meth:`get`: unreadable or malformed
        shard documents are misses (the shard is re-evaluated), never
        errors.
        """
        path = self.shard_path_for(cell_fingerprint, shard_fingerprint)
        try:
            document = load_json(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError) as error:
            logger.warning("ignoring unreadable shard document %s (%s)", path, error)
            self.stats.misses += 1
            return None
        try:
            result = EvaluationResult.from_dict(document["result"])
        except (KeyError, TypeError, ValueError) as error:
            logger.warning("ignoring malformed shard document %s (%s)", path, error)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put_shard(
        self,
        cell_fingerprint: str,
        shard_fingerprint: str,
        result: EvaluationResult,
        plan_description: Optional[dict] = None,
    ) -> str:
        """Persist one shard result atomically; returns the path written.

        Shard documents live under their cell's fingerprint so a killed
        multi-shard cell resumes at shard granularity; once the cell merges,
        :meth:`delete_shards` garbage-collects the whole directory.
        """
        path = self.shard_path_for(cell_fingerprint, shard_fingerprint)
        document = {
            "version": STORE_VERSION,
            "cell": cell_fingerprint,
            "fingerprint": shard_fingerprint,
            "result": result.as_dict(),
        }
        if plan_description is not None:
            document["plan"] = plan_description
        save_json(path, document, atomic=True)
        self.stats.writes += 1
        return path

    def delete_shards(self, cell_fingerprint: str) -> int:
        """Garbage-collect every shard document of a cell; returns the count.

        Called after a cell's shards merged and the cell document was
        written -- the shard documents are then redundant.  Best-effort like
        every store write: filesystem errors degrade to a warning (the
        leftovers are reported by :meth:`shard_stats` as orphans and
        re-collected by :meth:`gc_orphaned_shards`).
        """
        directory = self.shard_dir_for(cell_fingerprint)
        removed = 0
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return 0
        except OSError as error:
            logger.warning("cannot list shard directory %s (%s)", directory, error)
            return 0
        for name in names:
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError as error:
                logger.warning(
                    "cannot remove shard document %s (%s)",
                    os.path.join(directory, name), error,
                )
        try:
            os.rmdir(directory)
        except OSError:
            pass  # non-empty (a remove failed) or already gone
        return removed

    def shard_cells(self) -> Iterator[str]:
        """Iterate over the cell fingerprints that have shard documents."""
        shards = os.path.join(self.root, "shards")
        if not os.path.isdir(shards):
            return
        for prefix in sorted(os.listdir(shards)):
            prefix_dir = os.path.join(shards, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for name in sorted(os.listdir(prefix_dir)):
                if os.path.isdir(os.path.join(prefix_dir, name)):
                    yield name

    def shard_stats(self) -> Dict[str, int]:
        """Shard-document inventory: live and orphaned counts.

        A shard document is *orphaned* when its cell's merged document
        already exists -- the engine normally garbage-collects shards right
        after the merge, so orphans only accumulate when a run died between
        the cell write and the cleanup (or the cleanup hit a filesystem
        error).  ``shard_docs`` counts every shard document, orphaned or
        not.
        """
        shard_cells = 0
        shard_docs = 0
        orphaned = 0
        for cell_fingerprint in self.shard_cells():
            directory = self.shard_dir_for(cell_fingerprint)
            try:
                count = sum(
                    1 for name in os.listdir(directory) if name.endswith(".json")
                )
            except OSError:
                continue
            shard_cells += 1
            shard_docs += count
            if cell_fingerprint in self:
                orphaned += count
        return {
            "shard_cells": shard_cells,
            "shard_docs": shard_docs,
            "orphaned_shard_docs": orphaned,
        }

    def gc_orphaned_shards(self) -> int:
        """Remove shard documents whose merged cell document exists.

        Returns the number of documents collected.  Safe to run any time:
        only cells already persisted in full are touched, so no resume
        information is lost.
        """
        removed = 0
        for cell_fingerprint in list(self.shard_cells()):
            if cell_fingerprint in self:
                removed += self.delete_shards(cell_fingerprint)
        return removed

    # -- workload conversions --------------------------------------------------
    def workload_path_for(self, key: str) -> str:
        """Document path of a workload-conversion key (sharded like cells)."""
        return os.path.join(self.root, "workloads", key[:2], f"{key}.json")

    def _read_workload_document(self, path: str) -> Optional[dict]:
        """Load + validate one conversion document; ``None`` when unusable.

        The single reader behind :meth:`get_workload_conversion` and the
        workload inventory/gc: a document that is truncated, not JSON, or
        missing the fields :func:`repro.experiments.workloads.prepare_workload`
        needs to rebuild the network (``scales``, ``percentile``,
        ``input_scale``, ``dnn_accuracy``) degrades to ``None`` with a
        warning naming the file -- the same chaos-tested contract as cell
        documents, so a crash mid-write can only ever cost a re-conversion.
        Raises :class:`FileNotFoundError` when the document simply does not
        exist (an ordinary miss, not worth a warning).
        """
        try:
            document = load_json(path)
        except FileNotFoundError:
            raise
        except (OSError, ValueError) as error:
            logger.warning(
                "ignoring unreadable workload document %s (%s)", path, error
            )
            return None
        payload = document.get("conversion") if isinstance(document, dict) else None
        if not isinstance(payload, dict):
            logger.warning("ignoring malformed workload document %s", path)
            return None
        for field_name in _REQUIRED_WORKLOAD_FIELDS:
            if field_name not in payload:
                logger.warning(
                    "ignoring malformed workload document %s (missing %r)",
                    path, field_name,
                )
                return None
        return payload

    def get_workload_conversion(self, key: str) -> Optional[dict]:
        """Load a stored conversion payload; ``None`` (a miss) when absent.

        Same degradation contract as :meth:`get`: unreadable, truncated or
        malformed documents are misses (with a warning naming the file), so
        a corrupt store can only cost time (the conversion is recomputed
        and the document overwritten), never correctness.
        """
        path = self.workload_path_for(key)
        try:
            payload = self._read_workload_document(path)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put_workload_conversion(self, key: str, payload: dict) -> str:
        """Persist a conversion payload atomically; returns the path written."""
        path = self.workload_path_for(key)
        document = {
            "version": STORE_VERSION,
            "key": key,
            "conversion": dict(payload),
        }
        save_json(path, document, atomic=True)
        self.stats.writes += 1
        return path

    def workload_documents(self) -> Iterator[str]:
        """Iterate over every conversion-document path in ``workloads/``."""
        workloads = os.path.join(self.root, "workloads")
        if not os.path.isdir(workloads):
            return
        for prefix in sorted(os.listdir(workloads)):
            prefix_dir = os.path.join(workloads, prefix)
            if not os.path.isdir(prefix_dir):
                continue
            for name in sorted(os.listdir(prefix_dir)):
                if name.endswith(".json"):
                    yield os.path.join(prefix_dir, name)

    def workload_stats(self) -> Dict[str, int]:
        """Conversion-document inventory: total and orphaned counts/bytes.

        A conversion document is *orphaned* when it can never be served
        again -- truncated by a crash predating atomic writes, not JSON, or
        missing required payload fields.  :meth:`get_workload_conversion`
        degrades such documents to misses, so they are pure dead bytes: the
        next ``prepare_workload`` recomputes the conversion and overwrites
        them.  ``workload_bytes``/``orphaned_workload_bytes`` report their
        on-disk footprint for the ``store gc`` CLI.
        """
        docs = 0
        orphaned = 0
        total_bytes = 0
        orphaned_bytes = 0
        for path in self.workload_documents():
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            docs += 1
            total_bytes += size
            try:
                payload = self._read_workload_document(path)
            except FileNotFoundError:  # pragma: no cover - raced unlink
                continue
            if payload is None:
                orphaned += 1
                orphaned_bytes += size
        return {
            "workload_docs": docs,
            "orphaned_workload_docs": orphaned,
            "workload_bytes": total_bytes,
            "orphaned_workload_bytes": orphaned_bytes,
        }

    def gc_orphaned_workloads(self) -> int:
        """Remove unreadable/malformed conversion documents; returns the count.

        Safe to run any time: only documents :meth:`get_workload_conversion`
        would already refuse to serve are touched, so no cached conversion
        is lost -- the reclaimed space is exactly the
        ``orphaned_workload_bytes`` of :meth:`workload_stats`.
        """
        removed = 0
        for path in list(self.workload_documents()):
            try:
                payload = self._read_workload_document(path)
            except FileNotFoundError:
                continue
            if payload is not None:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError as error:
                logger.warning(
                    "cannot remove workload document %s (%s)", path, error
                )
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(root={self.root!r}, stats={self.stats})"


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
