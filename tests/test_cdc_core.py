"""M0/M1: CDC core — generator determinism, oracle equivalence,
exactly-once idempotence, crash recovery, multi-epoch resume, salting,
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
def test_salted_subpartitioning(ray_session, tmp_path, transport):
    """Skew path: salted pre-reduce must not change the result."""
    changes = gen_changes(8_000, seed=13, n_convs=20)  # few convs → hot keys
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1", num_salts=4,
                       transport=transport)
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


def test_auto_salt_gating(ray_session, tmp_path, monkeypatch):
    """num_salts="auto": epoch 1 runs unsalted (no history) and records
    per-partition exchange volume in the lineage; epoch 2 salts iff the
    recorded hottest partition crossed the threshold — and the result
    equals the naive oracle either way."""
    from tenzir_ray.cdc import lake as lake_mod

    changes = gen_changes(8_000, seed=13, n_convs=20)
    lsn = changes.column("lsn")
    e1 = changes.filter(pa.compute.less(lsn, 4000))
    e2 = changes.filter(pa.compute.greater_equal(lsn, 4000))

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    r1 = lake.apply_changes(e1, epoch_id="e1", num_salts="auto")
    assert r1["num_salts"] == 0  # no history yet
    ex = lake.manifest.epochs[-1]["meta"]["_exchange"]
    assert ex["max_part_rows"] > 0 and ex["rows"] >= ex["max_part_rows"]

    # threshold below last epoch's hottest partition → auto salts now
    monkeypatch.setenv(lake_mod.SALT_THRESHOLD_ENV, "1")
    r2 = lake.apply_changes(e2, epoch_id="e2", num_salts="auto")
    assert r2["num_salts"] == lake_mod.AUTO_NUM_SALTS
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)

    # default threshold (16M) keeps auto OFF at this scale
    monkeypatch.delenv(lake_mod.SALT_THRESHOLD_ENV)
    r3 = lake.apply_changes(e2.slice(0, 100), epoch_id="e3", num_salts="auto")
    assert r3["num_salts"] == 0

    # auto salts on the object transport too (same exchange)
    monkeypatch.setenv(lake_mod.SALT_THRESHOLD_ENV, "1")
    r4 = lake.apply_changes(e2.slice(100, 100), epoch_id="e4",
                            num_salts="auto", transport="object")
    assert r4["num_salts"] == lake_mod.AUTO_NUM_SALTS


@pytest.mark.parametrize("transport", ["fs", "object"])
def test_per_partition_auto_salt(ray_session, tmp_path, monkeypatch,
                                 transport):
    """Per-partition salt gate: with the threshold set between last
    epoch's hottest and second-hottest partition volumes, ONLY the hot
    partition is salted — the rest keep a single exchange bucket in the
    same epoch — and the result still equals the oracle."""
    from tenzir_ray.cdc import lake as lake_mod

    changes = gen_changes(8_000, seed=13, n_convs=20)
    lsn = changes.column("lsn")
    e1 = changes.filter(pa.compute.less(lsn, 4000))
    e2 = changes.filter(pa.compute.greater_equal(lsn, 4000))

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(e1, epoch_id="e1", num_salts="auto",
                       transport=transport)
    ex = lake.manifest.epochs[-1]["meta"]["_exchange"]
    vols = sorted((int(v) for v in ex["part_rows"].values()), reverse=True)
    assert len(vols) >= 2 and vols[0] > vols[1]  # a strict hot/cold gap
    hot = sorted(int(k) for k, v in ex["part_rows"].items()
                 if int(v) > vols[1])

    monkeypatch.setenv(lake_mod.SALT_THRESHOLD_ENV, str(vols[1]))
    r2 = lake.apply_changes(e2, epoch_id="e2", num_salts="auto",
                            transport=transport)
    assert r2["num_salts"] == lake_mod.AUTO_NUM_SALTS
    assert r2["salted_parts"] == hot          # only the hot partition(s)
    assert len(r2["salted_parts"]) < r2["partitions_touched"]  # mixed epoch
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


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


@pytest.mark.parametrize("transport", ["fs", "object"])
def test_task_retry_convergence(ray_session, tmp_path, monkeypatch,
                                transport):
    """At-least-once execution: a stage-1 exchange writer that CRASHES
    once (first attempt, after its output is written) must not corrupt
    the lake — Ray retries the task (worker death is a system failure),
    the exchange index names only the successful attempt's output, and
    the final state equals the oracle."""
    import tenzir_ray.stages.exchange as ex_mod

    changes = gen_changes(4_000, seed=31)
    marker = str(tmp_path / "fail-once-marker")

    def die_once():
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)  # hard worker death → Ray retries the task

    if transport == "fs":
        orig_call = ex_mod.ExchangeWriter.__call__

        def flaky_call(self, batch):
            out = orig_call(self, batch)  # packed file on disk BEFORE the crash
            die_once()
            return out

        monkeypatch.setattr(ex_mod.ExchangeWriter, "__call__", flaky_call)
    else:
        orig_pack = ex_mod._pack_block_sorted

        def flaky_pack(*args):
            out = orig_pack(*args)  # segments packed BEFORE the crash
            die_once()
            return out

        monkeypatch.setattr(ex_mod, "_pack_block_sorted", flaky_pack)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(changes, epoch_id="e1", transport=transport)
    monkeypatch.undo()
    assert os.path.exists(marker)  # the writer really died once
    _assert_tables_equal(lake.final_table(), naive_apply(changes), cols=PAYLOAD)


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


@pytest.mark.parametrize("col", ["conv_id", "turn_idx", "lsn", "op"])
def test_null_key_lsn_or_op_rejected(ray_session, tmp_path, col):
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
    # the ValueError is raised in a stage-1 worker; Ray wraps it
    with pytest.raises(Exception, match=f"null '{col}'"):
        lake.apply_changes(tail, epoch_id="e1")
    fresh = LakeTable(root)
    assert "e1" not in fresh.manifest.committed_epoch_ids()
    _assert_tables_equal(fresh.final_table(), naive_apply(base), cols=PAYLOAD)
    assert fresh.lookup(vals[0] if col == "conv_id"
                        else tail.column("conv_id")[0].as_py()).num_rows > 0
