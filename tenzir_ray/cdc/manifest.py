"""Two-phase-commit manifest + lineage/checkpoint store for the Parquet lake.

The reference's durability discipline — write store files, then atomically
rename, then merge the partition synopsis into the catalog
(libtenzir/src/posix_filesystem.cpp:29-36,85-98;
libtenzir/src/active_partition.cpp:103-187;
libtenzir/include/tenzir/catalog.hpp:83-88) — generalized to an atomic
manifest swap:

1. tasks write ``part=<k>/epoch-<id>-<uuid>.parquet`` data files;
2. the driver appends one epoch record (applied lsn range and, per
   touched partition, what the epoch changed — the lineage record) and
   publishes it.

A lineage record is a base-plus-delta action, not a copy of the table
state (Delta-Lake add/remove actions; the catalog's per-partition
synopsis updates). Each ``partitions[k]`` entry either ADDS files
(``add: [...]``, append/delta epochs; ``rows``/``delta_rows``/
``tombstones`` are increments) or REPLACES the partition's file set
(``files: [...]``, full rewrites, compaction, restore; counters are the
new values). ``file_stats`` covers only the files the entry names, so a
record's size tracks the epoch, not the history. :meth:`Manifest.fold`
is the one rule that turns records into state: log replay, time travel
(:meth:`state_as_of`), restore and the ``truncate_lineage`` base all
fold. Records written before this format (cumulative counters and
stats, full file sets in a top-level ``files`` map, a duplicate
``state`` block in log records) are replacements and fold as such.

Readers only see files listed in the manifest's ``partitions`` map, so a
crash between (1) and (2) leaves orphaned files, never corruption — and a
replay of the same epoch id is a no-op (exactly-once under Ray's
at-least-once task retries). ``lsn_high`` per partition is the
resume-from-offset checkpoint.

Multi-writer optimistic concurrency (round 4, Delta-Lake commit-protocol
analog): commits are serialized through a versioned log directory
``_log/v<version>.json``. A writer claims version ``V+1`` by
``os.link``-ing a fully-written temp file to the log name — atomic
create-with-content on POSIX, so a half-written record can never be
observed and exactly ONE writer wins each version (``FileExistsError``
is the CAS failure). The log record is the only metadata file a commit
writes. ``_manifest.json`` is a CHECKPOINT: the folded state up to some
version, written by the commit that creates the table and by
:meth:`truncate_lineage` (which then deletes the records it folds).
:meth:`load` reads the checkpoint and folds the records after it;
:meth:`reload` folds only the records after this instance's version
(Flink's checkpoint plus change log, VLDB 2017). Conflicts
(:meth:`commit_epoch`): ``add`` entries compose with concurrent commits
under LWW and retry unchanged; a replacement of a partition a
concurrent commit touched raises :class:`ConcurrentModificationError`.
Schema-registry deltas ride the log record and fold via the evolve
lattice join (commutative), so two writers adding different columns
converge.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field
from typing import Any

MANIFEST_NAME = "_manifest.json"
REGISTRY_NAME = "_registry.json"
LOG_DIR = "_log"


def _identity(st: os.stat_result) -> tuple:
    return st.st_ino, st.st_mtime_ns, st.st_size


class ConcurrentModificationError(RuntimeError):
    """Another writer committed a conflicting change between this writer's
    read of the table state and its commit attempt (Delta-Lake
    ``ConcurrentModificationException`` analog). The losing epoch was NOT
    committed; re-running it is safe (idempotent by epoch id) and will
    recompute against the new base."""


@dataclass
class Manifest:
    root: str
    num_partitions: int
    # current live state, folded from lineage: partition id (str) ->
    # {"files", "rows", "delta_rows", "tombstones", "lsn_high", "file_stats"}
    partitions: dict[str, dict[str, Any]] = field(default_factory=dict)
    # lineage: one record per committed epoch
    epochs: list[dict[str, Any]] = field(default_factory=list)
    # commit-log version: count of committed log records folded into this
    # state (0 = fresh table). The CAS claim for the next commit is
    # version+1.
    version: int = 0
    # schema-registry JSON folded from commit records (lattice join of
    # every writer's evolve) — None on legacy roots whose registry only
    # lives in _registry.json
    registry_json: str | None = None
    # identity (inode, mtime, size) of the checkpoint this instance last
    # read or wrote, None if there was none: while it holds, reload()
    # folds only newer log records; a changed one means truncate_lineage
    # may have folded and deleted records, so reload() loads in full
    _checkpoint: "tuple | None" = field(default=None, init=False,
                                        repr=False, compare=False)

    @property
    def path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    @property
    def log_dir(self) -> str:
        return os.path.join(self.root, LOG_DIR)

    def _checkpoint_on_disk(self) -> "tuple | None":
        try:
            return _identity(os.stat(self.path))
        except FileNotFoundError:
            return None

    def _record_path(self, version: int) -> str:
        return os.path.join(self.log_dir, f"v{version:020d}.json")

    @classmethod
    def load(cls, root: str) -> "Manifest | None":
        """The published state: the checkpoint plus every log record after
        it, or the log alone when no checkpoint was written (a crash
        between the first commit's link and its checkpoint). None if
        ``root`` holds no table."""
        try:
            with open(os.path.join(root, MANIFEST_NAME)) as f:
                ckpt = _identity(os.fstat(f.fileno()))
                d = json.load(f)
        except FileNotFoundError:
            m = cls(root=root, num_partitions=0)
            try:
                with open(m._record_path(1)) as f:
                    m.num_partitions = json.load(f)["num_partitions"]
            except FileNotFoundError:
                return None
        else:
            m = cls(
                root=root,
                num_partitions=d["num_partitions"],
                partitions=d["partitions"],
                epochs=d["epochs"],
                # legacy snapshot (pre-OCC): no log records existed when it
                # was written, so its effective version is arbitrary as long
                # as it is consistent across loads — len(epochs) is
                version=d.get("version", len(d["epochs"])),
                registry_json=d.get("registry_json"),
            )
            m._checkpoint = ckpt
        m._fold_log()
        return m

    def _fold_log(self) -> None:
        """Fold ``v<version+1>``, ``v<version+2>``, … until one is missing:
        versions are claimed by CAS, so the log has no gaps."""
        while True:
            try:
                with open(self._record_path(self.version + 1)) as f:
                    rec = json.load(f)
            except FileNotFoundError:
                return
            self._apply_record(rec)

    def _apply_record(self, rec: dict[str, Any]) -> None:
        self.fold(self.partitions, rec["epoch"])
        self.epochs.append(rec["epoch"])
        if rec.get("registry"):
            self._fold_registry(rec["registry"])
        self.version = rec["version"]

    def _fold_registry(self, reg_json: str) -> None:
        if self.registry_json is None or self.registry_json == reg_json:
            self.registry_json = reg_json
            return
        from tenzir_ray.cdc.registry import SchemaRegistry

        cur = SchemaRegistry.from_json(self.registry_json)
        cur.evolve(SchemaRegistry.from_json(reg_json).schema)
        self.registry_json = cur.to_json()

    def reload(self) -> None:
        """Catch up with the published state: fold the log records newer
        than this instance's version. Falls back to a full :meth:`load`
        only when the checkpoint is not the one this instance last read
        or wrote — a ``truncate_lineage`` may have folded and deleted
        records under it."""
        if self._checkpoint_on_disk() == self._checkpoint:
            self._fold_log()
            return
        m = Manifest.load(self.root) or Manifest(self.root, self.num_partitions)
        self.partitions = m.partitions
        self.epochs = m.epochs
        self.version = m.version
        self.registry_json = m.registry_json
        self.num_partitions = m.num_partitions
        self._checkpoint = m._checkpoint

    def touched_since(self, version: int) -> set[str]:
        """Partition ids touched by commits newer than ``version`` — the
        conflict-detection input after a lost CAS (records without a
        version are from a pre-OCC snapshot, i.e. older than any load)."""
        out: set[str] = set()
        for e in self.epochs:
            if e.get("version", -1) > version:
                out.update(e.get("partitions", {}))
        return out

    def committed_epoch_ids(self) -> set[str]:
        return {e["epoch_id"] for e in self.epochs}

    def next_seq(self) -> int:
        """Next absolute apply-sequence number: monotone across
        truncate_lineage() (unlike a lineage index, which shrinks)."""
        return max(
            (e.get("seq", i) for i, e in enumerate(self.epochs)), default=-1
        ) + 1

    def epoch_seq(self, epoch_id: str) -> int:
        """Absolute apply-sequence number of a committed epoch (falls back
        to the lineage index for pre-seq records)."""
        for i, e in enumerate(self.epochs):
            if e["epoch_id"] == epoch_id:
                return e.get("seq", i)
        raise KeyError(f"epoch {epoch_id!r} not in lineage")

    def resolve_epoch(self, as_of: "str | int") -> int:
        """Index into ``epochs`` for an epoch id (str) or positional index
        (int, negatives count from the end) — the time-travel version
        resolver (Delta-Lake ``versionAsOf`` analog)."""
        if isinstance(as_of, bool):
            raise TypeError("as_of must be an epoch id or index")
        if isinstance(as_of, int):
            n = len(self.epochs)
            idx = as_of + n if as_of < 0 else as_of
            if not 0 <= idx < n:
                raise IndexError(
                    f"epoch index {as_of} out of range ({n} epochs retained; "
                    "truncate_lineage() drops old snapshots)")
            return idx
        for i, e in enumerate(self.epochs):
            if e["epoch_id"] == as_of:
                return i
        raise KeyError(
            f"epoch {as_of!r} not in lineage ({len(self.epochs)} epochs "
            "retained; truncate_lineage() drops old snapshots)")

    @staticmethod
    def fold(parts: dict[str, dict[str, Any]], epoch: dict[str, Any]) -> None:
        """Fold one lineage record into ``parts`` (partition id → state) —
        the one rule for how a partition's state moves from one epoch to
        the next. An ``add`` entry appends its files and stats to the
        prior state and adds its counters; any other entry replaces the
        state with its ``files`` and counters. ``tombstones`` is None
        after a replacement that does not record it (pre-round-4 lineage:
        readers must then assume tombstones may exist)."""
        recs = epoch.get("partitions", {})
        if "files" in epoch:
            # legacy record: the full file sets sit in a top-level map and
            # the entries carry cumulative counters — a replacement
            recs = {k: {**recs.get(k, {}), "files": files}
                    for k, files in epoch["files"].items()}
        for k, r in recs.items():
            if "add" in r:
                prev = parts.get(k, {})
                parts[k] = {
                    "files": [*prev.get("files", ()), *r["add"]],
                    **{c: (prev.get(c) or 0) + r.get(c, 0)
                       for c in ("rows", "delta_rows", "tombstones")},
                    "lsn_high": max(prev.get("lsn_high", -1), r["lsn_high"]),
                    "file_stats": {**(prev.get("file_stats") or {}),
                                   **(r.get("file_stats") or {})},
                }
            else:
                parts[k] = {
                    "files": list(r["files"]),
                    "rows": r.get("rows", 0),
                    "delta_rows": r.get("delta_rows", 0),
                    "tombstones": r.get("tombstones"),
                    "lsn_high": r.get("lsn_high", -1),
                    "file_stats": r.get("file_stats") or {},
                }

    def state_as_of(self, as_of: "str | int") -> dict[str, dict[str, Any]]:
        """Reconstruct the per-partition live state as of a committed epoch
        (inclusive) by folding the lineage prefix (:meth:`fold`). Returns
        the same shape as :attr:`partitions`. Snapshots reference
        historical data files — they stay readable until
        ``optimize()``/``gc()`` collect superseded files (VACUUM
        semantics)."""
        parts: dict[str, dict[str, Any]] = {}
        for e in self.epochs[: self.resolve_epoch(as_of) + 1]:
            self.fold(parts, e)
        return parts

    def lsn_high(self) -> int:
        """Global applied-LSN high watermark (resume-from-offset checkpoint)."""
        return max((e["lsn_max"] for e in self.epochs), default=-1)

    def live_files(self, parts: list[str] | None = None) -> list[str]:
        out: list[str] = []
        for k, info in sorted(self.partitions.items(), key=lambda kv: int(kv[0])):
            if parts is None or k in parts:
                out.extend(os.path.join(self.root, f) for f in info["files"])
        return out

    def _epoch_record(
        self,
        epoch_id: str,
        lsn_min: int,
        lsn_max: int,
        part_results: dict[str, dict[str, Any]],
        meta: dict[str, Any] | None,
        version: int,
    ) -> dict[str, Any]:
        return {
            "epoch_id": epoch_id,
            "seq": self.next_seq(),
            "version": version,
            "lsn_min": lsn_min,
            "lsn_max": lsn_max,
            **({"meta": meta} if meta else {}),
            "committed_at": time.time(),
            "partitions": part_results,
        }

    def try_commit_epoch(
        self,
        epoch_id: str,
        lsn_min: int,
        lsn_max: int,
        part_results: dict[str, dict[str, Any]],
        meta: dict[str, Any] | None = None,
        registry_json: str | None = None,
    ) -> bool:
        """CAS-commit one epoch at version ``self.version + 1``.
        ``part_results`` are the epoch's lineage entries per partition
        (see :meth:`fold`).

        Returns True on success (state updated). On a lost race — another
        writer claimed the version first — reloads the published state and
        returns False; the CALLER decides whether to rebase (append/delta
        epochs compose under LWW), skip (epoch id already committed by the
        winner) or raise :class:`ConcurrentModificationError` (overlapping
        full rewrite).

        ``registry_json`` (if the epoch evolved the schema) rides the
        record and folds commutatively on replay, so concurrent writers
        adding different columns converge."""
        claim = self.version + 1
        rec = {
            "version": claim,
            "num_partitions": self.num_partitions,
            "epoch": self._epoch_record(
                epoch_id, lsn_min, lsn_max, part_results, meta, claim),
            **({"registry": registry_json} if registry_json else {}),
        }
        os.makedirs(self.log_dir, exist_ok=True)
        tmp = os.path.join(self.log_dir, f".tmp-{uuid.uuid4().hex}")
        with open(tmp, "w") as f:
            f.write(json.dumps(rec))
            f.flush()
            os.fsync(f.fileno())
        final = self._record_path(claim)
        try:
            # atomic create-with-content: link fails iff the name exists,
            # and the content is already durable — no half-written record
            # is ever observable under the final name
            os.link(tmp, final)
        except FileExistsError:
            os.unlink(tmp)
            self.reload()
            return False
        os.unlink(tmp)
        # folded-history guard: a truncate_lineage that replaced the
        # checkpoint since this instance read it deletes the records it
        # folds, so a stale writer could re-claim a folded number — its
        # record would then be invisible to replay (replay starts after
        # the checkpoint's version). Undo the link and retry.
        if self._checkpoint_on_disk() != self._checkpoint:
            os.unlink(final)
            self.reload()
            return False
        self._apply_record(rec)
        if claim == 1:
            self._atomic_write()  # the table's first checkpoint
        return True

    def commit_epoch(
        self,
        epoch_id: str,
        lsn_min: int,
        lsn_max: int,
        part_results: dict[str, dict[str, Any]],
        meta: dict[str, Any] | None = None,
        registry_json: str | None = None,
    ) -> bool:
        """Publish an epoch, retrying lost CAS races. Returns True once
        this call committed it, False if another writer committed the same
        epoch id first (exactly-once: the caller's output is orphaned).

        Conflict rule: ``add`` entries compose with any concurrent commit
        (new files on top of whatever the partition holds; LWW-by-lsn
        resolves the merge), so the same record retries. A replacement
        entry was computed from a base that a concurrent commit to its
        partition has since changed — publishing it would drop that
        commit's changes — so it raises :class:`ConcurrentModificationError`
        instead."""
        while True:
            base_version = self.version
            if self.try_commit_epoch(epoch_id, lsn_min, lsn_max,
                                     part_results, meta=meta,
                                     registry_json=registry_json):
                return True
            if epoch_id in self.committed_epoch_ids():
                return False
            conflicted = sorted(
                k for k in self.touched_since(base_version) & set(part_results)
                if "add" not in part_results[k])
            if conflicted:
                raise ConcurrentModificationError(
                    f"epoch {epoch_id!r}: partitions {conflicted} were "
                    "modified by a concurrent writer since this epoch read "
                    "them; re-run it (idempotent by epoch id) to recompute "
                    "against the new base")

    def truncate_lineage(self, keep_epochs: int) -> list[dict[str, Any]]:
        """Fold all but the last ``keep_epochs`` lineage records into one
        base record of replacement entries (the state as of the horizon,
        so time travel to any retained epoch stays complete), write the
        checkpoint, then delete the log records it folds. Returns the
        dropped records."""
        dropped = max(0, len(self.epochs) - keep_epochs)
        if not dropped:
            return []
        prefix = self.epochs[:dropped]
        base = {
            "epoch_id": f"_base-{prefix[-1]['epoch_id']}",
            "seq": max(e.get("seq", i) for i, e in enumerate(prefix)),
            # the newest folded version: a writer whose state predates it
            # sees every partition as touched (touched_since), so its
            # replacement entries conflict instead of dropping folded
            # commits
            "version": max(e.get("version", 0) for e in prefix),
            "lsn_min": -1,
            "lsn_max": -1,
            "meta": {"_compaction": True, "_lineage_base": True},
            "committed_at": time.time(),
            "partitions": self.state_as_of(dropped - 1),
        }
        self.epochs = [base] + self.epochs[dropped:]
        self._atomic_write()
        logd = self.log_dir
        for fn in os.listdir(logd) if os.path.isdir(logd) else ():
            try:
                if int(fn[1:-5]) <= self.version:
                    os.remove(os.path.join(logd, fn))
            except (ValueError, FileNotFoundError):
                continue
        return prefix

    def _atomic_write(self) -> None:
        """Write the checkpoint (write-then-rename) and remember its
        identity."""
        tmp = self.path + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            # json.dumps, not json.dump: only the one-shot call without
            # indent runs the C encoder (about 4x faster on a large checkpoint)
            f.write(json.dumps({
                "num_partitions": self.num_partitions,
                "partitions": self.partitions,
                "epochs": self.epochs,
                "version": self.version,
                **({"registry_json": self.registry_json}
                   if self.registry_json else {}),
            }))
            f.flush()
            os.fsync(f.fileno())
            ckpt = _identity(os.fstat(f.fileno()))
        os.replace(tmp, self.path)
        self._checkpoint = ckpt


import sys as _sys
from tenzir_ray._ship import ship_by_value as _ship
_ship(_sys.modules[__name__])
