"""M0/M1: CDC core — generator determinism, oracle equivalence,
exactly-once idempotence, crash recovery, multi-epoch resume, hot keys,
schema evolution (SURVEY.md §7.2-§7.4)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tenzir_ray.cdc.generate import gen_changes, gen_transcripts
from tenzir_ray.cdc.lake import LakeTable
from tenzir_ray.cdc.manifest import Manifest
from tenzir_ray.cdc.oracle import naive_apply

PAYLOAD = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _assert_tables_equal(got: pa.Table, want: pa.Table, cols=None):
    cols = cols or want.column_names
    assert got.num_rows == want.num_rows, (got.num_rows, want.num_rows)
    g = got.select(cols).to_pandas().reset_index(drop=True)
    w = want.select(cols).to_pandas().reset_index(drop=True)
    for c in cols:
        assert g[c].equals(w[c]), f"column {c} differs"


def test_generate_deterministic():
    a = gen_changes(2000, seed=7)
    b = gen_changes(2000, seed=7)
    assert a.equals(b)
    c = gen_changes(2000, seed=8)
    assert not a.equals(c)
    # op mix roughly 70/20/10
    ops = a.column("op").to_pylist()
    assert 0.6 < ops.count("insert") / len(ops) < 0.8
    assert ops.count("delete") > 0
    t = gen_transcripts(50, seed=3)
    assert t.equals(gen_transcripts(50, seed=3))
    assert t.column_names == PAYLOAD


def test_apply_matches_oracle(ray_session, tmp_path):
    changes = gen_changes(10_000, seed=42)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    res = lake.apply_changes(changes, epoch_id="e1")
    assert res["lsn_max"] == 9_999
    want = naive_apply(changes)
    got = lake.final_table()
    _assert_tables_equal(got, want, cols=PAYLOAD)


def test_apply_idempotent_epoch_replay(ray_session, tmp_path):
    changes = gen_changes(3_000, seed=5)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1")
    first = lake.final_table()
    res2 = lake.apply_changes(changes, epoch_id="e1")  # replay same epoch
    assert res2.get("skipped") is True
    _assert_tables_equal(lake.final_table(), first)


def test_overlapping_replay_converges(ray_session, tmp_path):
    """Even a re-application of overlapping lsn ranges under a NEW epoch id
    converges (LWW by lsn is idempotent)."""
    changes = gen_changes(3_000, seed=5)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1")
    lake.apply_changes(changes, epoch_id="e2-dup")
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


def test_multi_epoch_and_resume(ray_session, tmp_path):
    changes = gen_changes(6_000, seed=11)
    lsn = changes.column("lsn")
    e1 = changes.filter(pa.compute.less(lsn, 3000))
    e2 = changes.filter(pa.compute.greater_equal(lsn, 3000))
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(e1, epoch_id="e1")
    assert lake.resume_lsn() == 3000
    # reopen (fresh process analog) and resume from checkpoint
    lake2 = LakeTable(root)
    assert lake2.resume_lsn() == 3000
    lake2.apply_changes(e2, epoch_id="e2")
    _assert_tables_equal(lake2.final_table(), naive_apply(changes), cols=PAYLOAD)
    # lineage records present for both epochs
    assert [e["epoch_id"] for e in lake2.manifest.epochs] == ["e1", "e2"]
    for e in lake2.manifest.epochs:
        for k, p in e["partitions"].items():
            assert p["rows"] >= 0 and "checksum" in p


def test_crash_partial_files_ignored(ray_session, tmp_path):
    """Simulated crash: data files written without a manifest commit must
    be invisible; a clean re-apply converges to the oracle state."""
    changes = gen_changes(2_000, seed=9)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1")
    # orphan files: pretend a crashed epoch wrote files but never committed
    orphan = os.path.join(root, "part=0", "epoch-crashed-deadbeef.parquet")
    pq.write_table(lake.final_table().slice(0, 1).append_column(
        "_lsn", pa.array([999999], pa.int64())), orphan)
    lake2 = LakeTable(root)
    _assert_tables_equal(lake2.final_table(), naive_apply(changes), cols=PAYLOAD)
    assert orphan not in lake2.manifest.live_files()


@pytest.mark.parametrize("transport", ["fs", "object"])
def test_hot_key_skew(ray_session, tmp_path, transport):
    """Few conversations → hot keys: the per-batch LWW combiner is the
    only skew defense, one exchange bucket per partition, and the result
    equals the oracle. The lineage's exchange stats are the post-combine
    totals and nothing per partition."""
    changes = gen_changes(8_000, seed=13, n_convs=20)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    res = lake.apply_changes(changes, epoch_id="e1", transport=transport)
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)
    assert "num_salts" not in res and "salted_parts" not in res
    ex = lake.manifest.epochs[-1]["meta"]["_exchange"]
    assert set(ex) == {"rows", "max_part_rows"}
    assert ex["rows"] >= ex["max_part_rows"] > 0


def test_num_salts_ignored_with_warning(ray_session, tmp_path):
    """``num_salts`` is accepted and ignored: the epoch applies exactly as
    without it, and the caller is warned."""
    changes = gen_changes(4_000, seed=13, n_convs=20)
    plain = LakeTable(str(tmp_path / "plain"), num_partitions=4)
    plain.apply_changes(changes, epoch_id="e1")
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    with pytest.warns(DeprecationWarning, match="num_salts"):
        lake.apply_changes(changes, epoch_id="e1", num_salts=8)
    _assert_tables_equal(lake.final_table(), plain.final_table())
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


def test_lineage_with_salt_stats_reopens(ray_session, tmp_path):
    """A lake whose lineage still carries the old per-partition exchange
    stats (``num_salts``, ``part_rows``) reopens and applies on."""
    import json

    changes = gen_changes(6_000, seed=11, n_convs=20)
    lsn = changes.column("lsn")
    e1 = changes.filter(pa.compute.less(lsn, 3000))
    e2 = changes.filter(pa.compute.greater_equal(lsn, 3000))
    root = str(tmp_path / "lake")
    LakeTable(root, num_partitions=4).apply_changes(e1, epoch_id="e1")
    old = {"num_salts": 8, "part_rows": {"0": 900, "2": 40}}
    paths = [os.path.join(root, "_manifest.json"),
             *glob.glob(os.path.join(root, "_log", "v*.json"))]
    for path in paths:
        with open(path) as f:
            d = json.load(f)
        for e in d.get("epochs", []) + ([d["epoch"]] if "epoch" in d else []):
            e["meta"]["_exchange"].update(old)
        with open(path, "w") as f:
            json.dump(d, f)
    lake = LakeTable(root)
    assert lake.manifest.epochs[-1]["meta"]["_exchange"]["part_rows"] == \
        old["part_rows"]
    lake.apply_changes(e2, epoch_id="e2")
    _assert_tables_equal(LakeTable(root).final_table(), naive_apply(changes),
                         cols=PAYLOAD)


def test_schema_evolution(ray_session, tmp_path):
    """v2 events add `lang` and widen turn_idx int32→int64 mid-log; split
    into two epochs so the lake itself must evolve between commits."""
    changes = gen_changes(4_000, seed=21, schema_evolution=True, evolution_frac=0.5)
    lsn = changes.column("lsn")
    e1 = changes.filter(pa.compute.less(lsn, 2000)).drop_columns(["lang"])
    e1 = e1.set_column(
        e1.schema.get_field_index("turn_idx"),
        "turn_idx",
        e1.column("turn_idx").cast(pa.int32()),
    )
    e2 = changes.filter(pa.compute.greater_equal(lsn, 2000))
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(e1, epoch_id="e1")
    assert lake.registry.schema.field("turn_idx").type == pa.int32()
    assert "lang" not in lake.registry.schema.names
    lake.apply_changes(e2, epoch_id="e2")
    assert lake.registry.schema.field("turn_idx").type == pa.int64()
    assert "lang" in lake.registry.schema.names
    want = naive_apply(changes)  # oracle over the full widened log
    got = lake.final_table()
    _assert_tables_equal(got, want, cols=PAYLOAD + ["lang"])


def test_manifest_atomic_and_lineage(ray_session, tmp_path):
    changes = gen_changes(1_000, seed=1)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=2)
    lake.apply_changes(changes, epoch_id="e1")
    m = Manifest.load(root)
    assert m.epochs[0]["lsn_min"] == 0
    assert m.epochs[0]["lsn_max"] == 999
    assert not glob.glob(os.path.join(root, "_manifest.json.tmp*"))


def test_tail_directory_resume(ray_session, tmp_path):
    """Binlog-segment tailing: new segments apply, committed ones skip."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    changes = gen_changes(4_000, seed=17)
    lsn = changes.column("lsn")
    logdir = tmp_path / "binlog"
    logdir.mkdir()
    pq.write_table(changes.filter(pc.less(lsn, 2000)), str(logdir / "seg-000.parquet"))
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    r1 = lake.tail_directory(str(logdir))
    assert len(r1) == 1 and not r1[0].get("skipped")
    # a new segment arrives; re-tail applies only it
    pq.write_table(
        changes.filter(pc.greater_equal(lsn, 2000)), str(logdir / "seg-001.parquet")
    )
    r2 = lake.tail_directory(str(logdir))
    assert r2[0].get("skipped") is True and not r2[1].get("skipped")
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


@pytest.mark.parametrize("source", ["table", "parquet_dir"])
@pytest.mark.parametrize("transport", ["fs", "object"])
def test_task_retry_convergence(ray_session, tmp_path, monkeypatch,
                                transport, source):
    """At-least-once execution: a stage-1 exchange task that CRASHES
    once (first attempt, after its output is packed) must not corrupt
    the lake — Ray retries the task (worker death is a system failure),
    the exchange index names only the successful attempt's output, and
    the final state equals the oracle. Inputs: an in-memory table and a
    multi-file ``read_parquet`` directory."""
    import ray

    import tenzir_ray.stages.exchange as ex_mod

    changes = gen_changes(4_000, seed=31)
    marker = str(tmp_path / "fail-once-marker")
    if source == "table":
        src = changes
    else:
        d = tmp_path / "src"
        d.mkdir()
        for i in range(4):
            pq.write_table(changes.slice(i * 1_000, 1_000),
                           str(d / f"part-{i}.parquet"))
        src = ray.data.read_parquet(str(d))

    orig_task = ex_mod._exchange_task

    def flaky_task(*args):
        out = orig_task(*args)  # output packed BEFORE the crash
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)  # hard worker death → Ray retries the task
        return out

    monkeypatch.setattr(ex_mod, "_exchange_task", flaky_task)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(src, epoch_id="e1", transport=transport)
    monkeypatch.undo()
    assert os.path.exists(marker)  # the writer really died once
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


def test_stage2_task_retry_convergence(ray_session, tmp_path, monkeypatch):
    """A stage-2 group task that dies once, after it has written its first
    partition's file: the retry converges to the oracle, and the dead
    attempt's file is an orphan the manifest never names."""
    import tenzir_ray.cdc.lake as lake_mod

    changes = gen_changes(6_000, seed=37)
    marker = str(tmp_path / "dead-attempt-file")
    orig_reduce = lake_mod._PartitionReducer._reduce_one

    def flaky_reduce(self, part, raw):
        res = orig_reduce(self, part, raw)  # the file is on disk now
        try:  # exactly one attempt, of one task, dies
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return res
        os.write(fd, res["entry"]["new_file"].encode())
        os.close(fd)
        os._exit(1)

    monkeypatch.setattr(lake_mod._PartitionReducer, "_reduce_one",
                        flaky_reduce)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=8)  # > the session's 4 CPUs
    res = lake.apply_changes(changes, epoch_id="e1")
    monkeypatch.undo()
    assert res["timings"]["stage2_tasks"] == 4
    with open(marker) as f:
        dead = f.read()
    assert os.path.exists(os.path.join(root, dead))
    fresh = LakeTable(root)
    assert os.path.join(root, dead) not in fresh.manifest.live_files()
    _assert_tables_equal(fresh.final_table(), naive_apply(changes),
                         cols=PAYLOAD)


def test_failed_epoch_removes_staging(ray_session, tmp_path):
    """An epoch that raises mid-apply leaves no exchange files behind."""
    changes = gen_changes(2_000, seed=3)  # has updates/deletes
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    with pytest.raises(ValueError, match="append_only"):
        lake.apply_changes(changes, epoch_id="e1", append_only=True,
                           transport="fs")
    staged = [f for _, _, files in os.walk(os.path.join(root, "_staging"))
              for f in files]
    assert staged == []
    assert "e1" not in lake.manifest.committed_epoch_ids()


def test_delta_merge_on_read(ray_session, tmp_path):
    """Small epochs against a large base append DELTA files (no base
    rewrite); reads merge-on-read; optimize() compacts back to one file."""
    import numpy as np
    import pyarrow.compute as pc

    base_log = gen_changes(10_000, seed=61)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(base_log, epoch_id="e0")
    assert all(len(i["files"]) == 1 for i in lake.manifest.partitions.values())

    # a tiny follow-up epoch: updates+deletes against existing keys
    upd = base_log.filter(pc.less(base_log.column("lsn"), 120))
    n = upd.num_rows
    upd = upd.set_column(
        upd.schema.get_field_index("lsn"), "lsn",
        pc.add(upd.column("lsn"), 100_000),
    )
    ops = ["delete" if i % 5 == 0 else "update" for i in range(n)]
    upd = upd.set_column(upd.schema.get_field_index("op"), "op",
                         pa.array(ops, pa.string()))
    res = lake.apply_changes(upd, epoch_id="e1")
    # delta files appended, base untouched
    assert any(len(i["files"]) == 2 for i in lake.manifest.partitions.values())
    assert any("delta-" in f for i in lake.manifest.partitions.values()
               for f in i["files"])

    oracle = naive_apply(
        pa.concat_tables([base_log, upd], promote_options="permissive")
    )
    _assert_tables_equal(lake.final_table(), oracle, cols=PAYLOAD)
    # Dataset read path merges too
    got_ds = lake.read().to_pandas().sort_values(
        ["conv_id", "turn_idx"], ignore_index=True
    )
    assert len(got_ds) == oracle.num_rows
    assert got_ds["text"].tolist() == oracle.column("text").to_pylist()

    # compaction: back to one file per partition, state unchanged
    before = lake.final_table()
    lake.optimize()
    assert all(len(i["files"]) == 1 for i in lake.manifest.partitions.values())
    assert LakeTable(root).final_table().equals(before)
    # reopened lake resumes from the delta epoch's watermark
    assert LakeTable(root).resume_lsn() == 100_000 + int(
        pc.max(upd.column("lsn")).as_py() - 100_000
    ) + 1 - 0  # == max lsn + 1


def test_delta_disabled_forces_full(ray_session, tmp_path):
    import pyarrow.compute as pc

    base_log = gen_changes(8_000, seed=62)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(base_log, epoch_id="e0")
    upd = base_log.filter(pc.less(base_log.column("lsn"), 100))
    upd = upd.set_column(upd.schema.get_field_index("lsn"), "lsn",
                         pc.add(upd.column("lsn"), 50_000))
    lake.apply_changes(upd, epoch_id="e1", delta_ratio=0.0)  # disable deltas
    assert all(len(i["files"]) == 1 for i in lake.manifest.partitions.values())
    oracle = naive_apply(pa.concat_tables([base_log, upd], promote_options="permissive"))
    _assert_tables_equal(lake.final_table(), oracle, cols=PAYLOAD)


def test_out_of_order_epochs(ray_session, tmp_path):
    """Segments applied out of lsn order (late segment first) still
    converge — apply order is decided by lsn, never arrival (FIXTURES §2)."""
    import pyarrow.compute as pc

    changes = gen_changes(4_000, seed=77)
    lsn = changes.column("lsn")
    late = changes.filter(pc.greater_equal(lsn, 2000))
    early = changes.filter(pc.less(lsn, 2000))
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(late, epoch_id="seg-B")   # later lsns arrive first
    lake.apply_changes(early, epoch_id="seg-A")
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


@pytest.mark.parametrize("transport", ["fs", "object"])
@pytest.mark.parametrize("col", ["conv_id", "turn_idx", "lsn", "op"])
def test_null_key_lsn_or_op_rejected(ray_session, tmp_path, col, transport):
    """A null key, lsn or op fails the apply loudly and commits nothing:
    it has no place in the LWW order, and a committed null op would break
    every later read of its partition."""
    import pyarrow.compute as pc

    base = gen_changes(2_000, seed=11)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(base, epoch_id="e0")
    tail = base.slice(0, 3)
    tail = tail.set_column(tail.schema.get_field_index("lsn"), "lsn",
                           pc.add(tail.column("lsn"), 10_000))
    tail = tail.set_column(tail.schema.get_field_index("op"), "op",
                           pa.array(["update"] * 3, pa.string()))
    vals = tail.column(col).to_pylist()
    vals[1] = None
    tail = tail.set_column(tail.schema.get_field_index(col), col,
                           pa.array(vals, tail.schema.field(col).type))
    # raised in a stage-1 task; it reaches the caller as a ValueError
    with pytest.raises(ValueError, match=f"null '{col}'"):
        lake.apply_changes(tail, epoch_id="e1", transport=transport)
    fresh = LakeTable(root)
    assert "e1" not in fresh.manifest.committed_epoch_ids()
    _assert_tables_equal(fresh.final_table(), naive_apply(base), cols=PAYLOAD)
    assert fresh.lookup(vals[0] if col == "conv_id"
                        else tail.column("conv_id")[0].as_py()).num_rows > 0


@pytest.mark.parametrize("transport", ["fs", "object"])
@pytest.mark.parametrize("bad_op", ["DELETE", "upsert"])
def test_unknown_op_rejected(ray_session, tmp_path, bad_op, transport):
    """An op outside insert/update/delete fails the apply loudly and
    commits nothing, even when its row loses the LWW combine; the oracle
    rejects it too."""
    import pyarrow.compute as pc

    base = gen_changes(2_000, seed=11)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(base, epoch_id="e0")
    tail = base.slice(0, 3)
    tail = tail.set_column(tail.schema.get_field_index("lsn"), "lsn",
                           pc.add(tail.column("lsn"), 10_000))
    # the bad op's row is the older of two writes to the same key
    tail = pa.concat_tables([tail, tail.slice(0, 1).set_column(
        tail.schema.get_field_index("lsn"), "lsn",
        pc.add(tail.slice(0, 1).column("lsn"), 1))])
    tail = tail.set_column(tail.schema.get_field_index("op"), "op",
                           pa.array([bad_op, "update", "update", "update"]))
    with pytest.raises(ValueError, match=bad_op):
        naive_apply(tail)
    with pytest.raises(ValueError, match=bad_op):
        lake.apply_changes(tail, epoch_id="e1", transport=transport)
    fresh = LakeTable(root)
    assert "e1" not in fresh.manifest.committed_epoch_ids()
    _assert_tables_equal(fresh.final_table(), naive_apply(base), cols=PAYLOAD)
