"""Kafka-shape broker: segmented log, consumer groups, rebalance, and
exactly-once partitioned-log → lake consumption (kill mid-stream,
resume with zero loss / zero duplication)."""

import json
import os
import shutil

import pyarrow as pa
import pytest

from tenzir_ray.cdc.broker import (
    FileBroker,
    GroupConsumer,
    consume_partitioned,
)
from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import LakeTable
from tenzir_ray.cdc.manifest import Manifest
from tenzir_ray.cdc.oracle import naive_apply

PAYLOAD = ["conv_id", "turn_idx", "role", "text"]


def _encode(tbl: pa.Table) -> tuple[list[bytes], list[bytes]]:
    """Change rows → (values, keys): JSON payloads keyed by conv_id so a
    conversation's events stay in one partition (ordering per key)."""
    rows = tbl.select(["lsn", "op", *PAYLOAD]).to_pylist()
    values = [json.dumps(r, default=str).encode() for r in rows]
    keys = [r["conv_id"].encode() for r in rows]
    return values, keys


def _parse(recs) -> pa.Table:
    rows = [json.loads(v) for (_off, _k, v) in recs]
    return pa.table({
        "lsn": pa.array([r["lsn"] for r in rows], pa.int64()),
        "op": pa.array([r["op"] for r in rows]),
        "conv_id": pa.array([r["conv_id"] for r in rows]),
        "turn_idx": pa.array([r["turn_idx"] for r in rows], pa.int32()),
        "role": pa.array([r["role"] for r in rows]),
        "text": pa.array([r["text"] for r in rows]),
    })


def test_broker_segments_and_offsets(tmp_path):
    b = FileBroker(str(tmp_path / "b"), segment_records=16)
    b.create_topic("t", partitions=2)
    vals = [f"m{i}".encode() for i in range(50)]
    b.produce_many("t", vals, partition_of=lambda i: i % 2)
    assert b.end_offsets("t") == {0: 25, 1: 25}
    # multiple segments exist (16-record segments, 25 records)
    segs = [f for f in os.listdir(tmp_path / "b" / "t" / "p00000")
            if f.startswith("segment-")]
    assert len(segs) == 2
    # seek into the middle of the second segment
    got = b.read("t", 0, 20, max_records=100)
    assert [o for o, _, _ in got] == list(range(20, 25))
    assert got[0][2] == b"m40"  # partition 0 holds even i; offset 20 ↔ i=40
    # bounded fetch
    assert len(b.read("t", 1, 0, max_records=7)) == 7
    # end-of-log
    assert b.read("t", 0, 25) == []
    # keyed produce is deterministic
    p1, o1 = b.produce("t", b"v", key=b"alpha")
    p2, o2 = b.produce("t", b"w", key=b"alpha")
    assert p1 == p2 and o2 == o1 + 1
    # null-key framing round-trips
    p3, o3 = b.produce("t", b"nokey", partition=0)
    (rec,) = b.read("t", p3, o3)
    assert rec[1] is None and rec[2] == b"nokey"


def test_group_rebalance_assignment(tmp_path):
    b = FileBroker(str(tmp_path / "b"))
    b.create_topic("t", partitions=5)
    a = GroupConsumer(b, "t", "g", "a")
    assert a.assignment == [0, 1, 2, 3, 4]
    c = GroupConsumer(b, "t", "g", "c")
    a.rebalance()
    # deterministic disjoint cover, range-style
    assert sorted(a.assignment + c.assignment) == [0, 1, 2, 3, 4]
    assert a.assignment == [0, 1, 2] and c.assignment == [3, 4]
    # a leaves → c takes everything
    a.leave()
    c.rebalance()
    assert c.assignment == [0, 1, 2, 3, 4]
    # dead member (stale heartbeat) is evicted at the timeout
    t = [1000.0]
    d = GroupConsumer(b, "t", "g2", "d", session_timeout_s=5, clock=lambda: t[0])
    e = GroupConsumer(b, "t", "g2", "e", session_timeout_s=5, clock=lambda: t[0])
    assert d.assignment and e.assignment
    t[0] += 100  # d never heartbeats again
    e.heartbeat()
    e.rebalance()
    assert e.assignment == [0, 1, 2, 3, 4]


def test_consume_partitioned_exactly_once_kill_resume(ray_session, tmp_path):
    changes = gen_changes(4000, seed=11)
    b = FileBroker(str(tmp_path / "b"), segment_records=512)
    b.create_topic("chat", partitions=4)
    vals, keys = _encode(changes)
    b.produce_many("chat", vals, keys=keys)
    assert sum(b.end_offsets("chat").values()) == 4000

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)

    # phase 1: consumer dies mid-stream (after 3 applied chunks, with
    # partitions at unequal positions)
    c1 = GroupConsumer(b, "chat", "g", "c1")
    r1 = consume_partitioned(lake, c1, _parse, max_records=500, max_chunks=3)
    assert len(r1) == 3 and not any(r.get("skipped") for r in r1)

    # ...and its broker-side offset cache is lost too (worst case): the
    # lake manifest alone must carry the resume point
    shutil.rmtree(tmp_path / "b" / "_groups" / "g" / "chat" / "offsets")

    # phase 2: two NEW members join the group and drain the topic
    c2 = GroupConsumer(b, "chat", "g", "c2")
    c3 = GroupConsumer(b, "chat", "g", "c3")
    c1.leave()
    c2.rebalance(), c3.rebalance()
    assert sorted(c2.assignment + c3.assignment) == [0, 1, 2, 3]
    r2 = consume_partitioned(lake, c2, _parse, max_records=500, idle_limit=1,
                             poll_s=0)
    r3 = consume_partitioned(lake, c3, _parse, max_records=500, idle_limit=1,
                             poll_s=0)

    # zero loss, zero dup: final table == LWW oracle over the full log
    want = naive_apply(changes.select(["lsn", "op", *PAYLOAD]))
    got = lake.final_table()
    assert got.num_rows == want.num_rows
    g = got.select(PAYLOAD).to_pandas()
    w = want.select(PAYLOAD).to_pandas()
    for c in PAYLOAD:
        assert g[c].tolist() == w[c].tolist(), f"column {c} differs"

    # every applied chunk committed exactly once; offsets in lineage reach
    # the end of every partition
    metas = [e["meta"] for e in lake.manifest.epochs if e.get("meta")]
    eids = [e["epoch_id"] for e in lake.manifest.epochs]
    assert len(eids) == len(set(eids))
    tops = {}
    for m in metas:
        tops[m["partition"]] = max(tops.get(m["partition"], 0), m["next"])
    assert tops == b.end_offsets("chat")

    # phase 3: replaying the whole log through a fresh consumer group
    # member with wiped caches is a pure no-op (idempotence by epoch id
    # + manifest offsets)
    c4 = GroupConsumer(b, "chat", "g", "c4")
    c2.leave(), c3.leave()
    c4.rebalance()
    r4 = consume_partitioned(lake, c4, _parse, max_records=500, idle_limit=1,
                             poll_s=0)
    assert r4 == []
    assert lake.final_table().num_rows == want.num_rows


def test_consume_commits_offsets_transactionally(ray_session, tmp_path):
    """The offset checkpoint IS the commit: an epoch's meta and data
    commit in one atomic log-record link."""
    changes = gen_changes(600, seed=5)
    b = FileBroker(str(tmp_path / "b"))
    b.create_topic("t", partitions=2)
    vals, keys = _encode(changes)
    b.produce_many("t", vals, keys=keys)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    c = GroupConsumer(b, "t", "g", "c")
    consume_partitioned(lake, c, _parse, max_records=10_000, idle_limit=1,
                        poll_s=0)
    man = Manifest.load(str(tmp_path / "lake"))
    metas = [e["meta"] for e in man.epochs if e.get("meta")]
    assert metas and all(
        m["topic"] == "t" and m["group"] == "g" and m["next"] > m["start"] >= 0
        for m in metas
    )
