"""Load generator: seeded change logs, their parquet epoch layout, and the
``naive_apply`` oracle answers the benchmark checks every result against.

Everything here is the client's cost, never the system's: it runs before
Ray starts and is cached on disk per (workload shape, seed), so a repeated
seed skips the slow pure-Python oracle.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.oracle import naive_apply

#: bump when the generated layout or oracle format changes (invalidates caches)
CACHE_VERSION = 2

#: input files per large epoch: several files so Ray Data reads in parallel
#: tasks, as a real binlog export would arrive
FILES_PER_EPOCH = 8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the shape of its log and how it is applied.

    ``tail_epochs == 0`` applies the whole log as one epoch. Otherwise the
    first ``events - tail_epochs * tail_events`` LSNs form a base epoch and
    the rest of the log arrives as ``tail_epochs`` consecutive LSN ranges.
    ``lookups`` point lookups follow every epoch after the base (the only
    epoch, when there is no tail)."""

    name: str
    why: str
    events: int
    tail_epochs: int = 0
    tail_events: int = 0
    lookups: int = 300

    def scaled(self, scale: float) -> "Workload":
        """The same workload with every count multiplied by ``scale`` (the
        benchmark's own tests run it tiny)."""
        if scale == 1.0:
            return self
        tail = max(1, int(self.tail_events * scale)) if self.tail_epochs else 0
        return Workload(
            self.name, self.why,
            events=max(200, int(self.events * scale)),
            tail_epochs=self.tail_epochs,
            tail_events=tail,
            lookups=max(5, int(self.lookups * scale)),
        )

    @property
    def epoch_bounds(self) -> list[tuple[int, int]]:
        """``[lo, hi)`` LSN range of every epoch, base first."""
        base_end = self.events - self.tail_epochs * self.tail_events
        if base_end < int(self.events * 0.7):
            # gen_changes puts every insert before the first update/delete;
            # the base must hold all inserts so tail epochs are mutations
            raise ValueError(f"{self.name}: tail overlaps the insert range")
        bounds = [(0, base_end)]
        for e in range(self.tail_epochs):
            lo = base_end + e * self.tail_events
            bounds.append((lo, lo + self.tail_events))
        return bounds


@dataclass
class Inputs:
    """A workload's generated inputs for one seed, loaded from the cache."""

    log: pa.Table              # the full shuffled change log
    oracle: pa.Table           # naive_apply(log): the final table
    epoch_dirs: list[str]      # parquet input directory per epoch
    epoch_events: list[int]    # events per epoch
    epoch_convs: list[list[str]]   # distinct conv_ids per epoch
    lookup_convs: list[list[str]]  # lookup batch after each epoch ([] = none)
    lookup_expected: list[dict[str, pa.Table]]  # oracle rows per looked-up conv
    last_epoch_oracle: pa.Table  # naive_apply of the last epoch's events alone


def _write_epoch(tbl: pa.Table, dest: str, files: int) -> None:
    os.makedirs(dest)
    step = max(1, -(-tbl.num_rows // files))
    for i in range(0, max(1, tbl.num_rows), step):
        pq.write_table(tbl.slice(i, step),
                       os.path.join(dest, f"part-{i // step:02d}.parquet"))


def _lsn_range(log: pa.Table, lo: int, hi: int) -> pa.Table:
    lsn = log["lsn"]
    return log.filter(pc.and_(pc.greater_equal(lsn, lo), pc.less(lsn, hi)))


def _log_and_oracle(cache: str, w: Workload, seed: int) -> tuple[str, str]:
    """Cached log + oracle, shared by workloads with the same log shape."""
    key = f"log-n{w.events}-s{seed}-v{CACHE_VERSION}"
    final = os.path.join(cache, key)
    if not os.path.exists(os.path.join(final, "oracle.parquet")):
        tmp = os.path.join(cache, f".tmp-{key}-{uuid.uuid4().hex[:8]}")
        os.makedirs(tmp)
        log = gen_changes(w.events, seed=seed)
        pq.write_table(log, os.path.join(tmp, "log.parquet"))
        pq.write_table(naive_apply(log), os.path.join(tmp, "oracle.parquet"))
        _publish(tmp, final)
    return os.path.join(final, "log.parquet"), os.path.join(final, "oracle.parquet")


def _publish(tmp: str, final: str) -> None:
    """Rename a finished cache entry into place; a concurrent run that got
    there first wins and ours is discarded."""
    try:
        os.rename(tmp, final)
    except OSError:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.path.isdir(final):
            raise


def _lookup_plan(log: pa.Table, oracle: pa.Table, w: Workload, seed: int
                 ) -> tuple[list[list[str]], list[pa.Table]]:
    """Seeded lookup batches and the oracle's rows for each looked-up conv.

    The expected rows after epoch j are ``naive_apply`` over the looked-up
    conversations' events with ``lsn < hi_j``: keys never interact, so the
    oracle over a key subset equals that subset of the full oracle."""
    rng = np.random.default_rng([seed, 1])
    convs = pc.unique(log["conv_id"]).to_pylist()
    bounds = w.epoch_bounds
    batches, expected = [], []
    for j, (_lo, hi) in enumerate(bounds):
        if w.tail_epochs and j == 0:
            batches.append([])
            expected.append(oracle.slice(0, 0))
            continue
        batch = [str(c) for c in rng.choice(convs, size=w.lookups)]
        wanted = pa.array(sorted(set(batch)), pa.string())
        if hi >= w.events:
            exp = oracle.filter(pc.is_in(oracle["conv_id"], wanted))
        else:
            sub = log.filter(pc.and_(pc.is_in(log["conv_id"], wanted),
                                     pc.less(log["lsn"], hi)))
            exp = naive_apply(sub)
        batches.append(batch)
        expected.append(exp)
    return batches, expected


def prepare(cache: str, w: Workload, seed: int) -> Inputs:
    """Generate (or load from ``cache``) the inputs of ``w`` for ``seed``."""
    os.makedirs(cache, exist_ok=True)
    log_path, oracle_path = _log_and_oracle(cache, w, seed)
    log = pq.read_table(log_path)
    oracle = pq.read_table(oracle_path)
    key = (f"{w.name}-n{w.events}-t{w.tail_epochs}x{w.tail_events}"
           f"-l{w.lookups}-s{seed}-v{CACHE_VERSION}")
    final = os.path.join(cache, key)
    bounds = w.epoch_bounds
    if not os.path.exists(os.path.join(final, "plan.json")):
        tmp = os.path.join(cache, f".tmp-{key}-{uuid.uuid4().hex[:8]}")
        os.makedirs(tmp)
        for j, (lo, hi) in enumerate(bounds):
            files = FILES_PER_EPOCH if j == 0 else 1
            _write_epoch(_lsn_range(log, lo, hi),
                         os.path.join(tmp, f"epoch-{j:03d}"), files)
        batches, expected = _lookup_plan(log, oracle, w, seed)
        for j, exp in enumerate(expected):
            pq.write_table(exp, os.path.join(tmp, f"expected-{j:03d}.parquet"))
        last = (oracle if len(bounds) == 1
                else naive_apply(_lsn_range(log, *bounds[-1])))
        pq.write_table(last, os.path.join(tmp, "last-epoch-oracle.parquet"))
        with open(os.path.join(tmp, "plan.json"), "w") as f:
            json.dump({"lookups": batches}, f)
        _publish(tmp, final)
    with open(os.path.join(final, "plan.json")) as f:
        batches = json.load(f)["lookups"]
    lookup_expected = []
    for j in range(len(bounds)):
        exp = pq.read_table(os.path.join(final, f"expected-{j:03d}.parquet"))
        lookup_expected.append(split_by_conv(exp))
    epoch_events, epoch_convs = [], []
    for lo, hi in bounds:
        part = _lsn_range(log, lo, hi)
        epoch_events.append(part.num_rows)
        epoch_convs.append(pc.unique(part["conv_id"]).to_pylist())
    return Inputs(
        log=log, oracle=oracle,
        epoch_dirs=[os.path.join(final, f"epoch-{j:03d}")
                    for j in range(len(bounds))],
        epoch_events=epoch_events,
        epoch_convs=epoch_convs,
        lookup_convs=batches,
        lookup_expected=lookup_expected,
        last_epoch_oracle=pq.read_table(
            os.path.join(final, "last-epoch-oracle.parquet")),
    )


def split_by_conv(tbl: pa.Table) -> dict[str, pa.Table]:
    """Oracle rows grouped by conv_id, each group in (conv_id, turn_idx)
    order — the order ``naive_apply`` and ``LakeTable.lookup`` return."""
    if tbl.num_rows == 0:
        return {}
    tbl = tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    conv = tbl["conv_id"].to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
    ends = np.r_[starts[1:], len(conv)]
    return {str(conv[s]): tbl.slice(int(s), int(e - s))
            for s, e in zip(starts, ends)}
