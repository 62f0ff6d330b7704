"""The commit log is the only metadata a commit writes.

``_log/v<N>.json`` records are the durable truth; ``_manifest.json`` is a
checkpoint written by the commit that creates the table and by
``truncate_lineage``. ``Manifest.reload`` catches up by folding the
records after its version and loads in full only when the checkpoint
changed under it; the folded-history guard undoes a stale writer's
claim of a version a truncation already folded.
"""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import LakeTable
from tenzir_ray.cdc.manifest import ConcurrentModificationError, Manifest
from tenzir_ray.cdc.oracle import naive_apply


def _split(changes: pa.Table, lo: int, hi: int) -> pa.Table:
    lsn = changes.column("lsn")
    return changes.filter(
        pc.and_(pc.greater_equal(lsn, lo), pc.less(lsn, hi)))


def _eq(got: pa.Table, want: pa.Table) -> None:
    cols = want.column_names
    assert got.num_rows == want.num_rows, (got.num_rows, want.num_rows)
    g = got.select(cols).to_pandas().reset_index(drop=True)
    w = want.select(cols).to_pandas().reset_index(drop=True)
    for c in cols:
        assert g[c].equals(w[c]), f"column {c} differs"


def _stat_id(path):
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


def _count_loads(monkeypatch):
    calls = []
    load = Manifest.load.__func__

    def counting(cls, root):
        calls.append(root)
        return load(cls, root)

    monkeypatch.setattr(Manifest, "load", classmethod(counting))
    return calls


def _entry(k, name):
    return {k: {"mode": "append", "add": [f"part={k}/{name}.parquet"],
                "rows": 1, "delta_rows": 0, "tombstones": 0,
                "lsn_high": 0, "checksum": 0}}


def test_commit_writes_one_metadata_file(ray_session, tmp_path):
    changes = gen_changes(2000, seed=3)
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    lake.apply_changes(_split(changes, 0, 1500), epoch_id="base")
    ckpt = os.path.join(root, "_manifest.json")
    logd = os.path.join(root, "_log")
    before = _stat_id(ckpt)
    assert os.listdir(logd) == [f"v{1:020d}.json"]

    def one_record(op):
        logs = set(os.listdir(logd))
        v = lake.manifest.version
        op()
        assert lake.manifest.version == v + 1
        assert set(os.listdir(logd)) - logs == {f"v{v + 1:020d}.json"}
        assert set(os.listdir(logd)) >= logs
        assert _stat_id(ckpt) == before
        assert not os.path.exists(os.path.join(root, "_registry.json"))

    one_record(lambda: lake.apply_changes(_split(changes, 1500, 1560),
                                          epoch_id="delta"))
    assert any(r.get("mode") == "delta"
               for r in lake.manifest.epochs[-1]["partitions"].values())
    one_record(lambda: lake.apply_changes(_split(changes, 1560, 2000),
                                          epoch_id="full", delta_ratio=0))
    one_record(lambda: lake.restore("delta"))
    one_record(lake.optimize)

    fresh = LakeTable(root)
    assert fresh.manifest.version == lake.manifest.version == 5
    assert fresh.manifest.epochs == lake.manifest.epochs
    assert fresh.manifest.partitions == lake.manifest.partitions
    _eq(fresh.final_table(), naive_apply(_split(changes, 0, 1560)))


def test_reload_catches_up_then_full_loads_after_truncate(
        ray_session, tmp_path, monkeypatch):
    changes = gen_changes(1600, seed=5)
    epochs = [(f"e{i}", _split(changes, lo, lo + 200))
              for i, lo in enumerate(range(0, 1600, 200))]
    root = str(tmp_path / "lake")
    a = LakeTable(root, num_partitions=4)
    a.apply_changes(epochs[0][1], epoch_id=epochs[0][0])
    b = LakeTable(root)
    calls = _count_loads(monkeypatch)
    for i, (eid, tbl) in enumerate(epochs[1:6], start=1):
        w = (b, a)[i % 2]
        w.apply_changes(tbl, epoch_id=eid)
        assert [e["epoch_id"] for e in w.manifest.epochs] == [
            e for e, _ in epochs[:i + 1]]
    b.refresh()
    assert calls == []  # both writers caught up from the log alone
    assert a.manifest.version == b.manifest.version == 6
    assert b.manifest.partitions == a.manifest.partitions

    b.truncate_lineage(keep_epochs=1)
    assert calls == []
    a.apply_changes(epochs[6][1], epoch_id=epochs[6][0])
    assert calls == [root]  # the checkpoint changed: one full load
    assert a.manifest.version == 7
    assert a.manifest.epochs[-1]["epoch_id"] == "e6"
    del calls[:]
    a.apply_changes(epochs[7][1], epoch_id=epochs[7][0])
    assert calls == []
    fresh = Manifest.load(root)
    assert fresh.version == 8
    assert fresh.partitions == a.manifest.partitions
    assert [e["epoch_id"] for e in fresh.epochs][1:] == ["e5", "e6", "e7"]
    _eq(LakeTable(root).final_table(), naive_apply(changes))


@pytest.mark.parametrize("checkpoint", [True, False])
def test_folded_history_guard_undoes_stale_claim(tmp_path, monkeypatch,
                                                 checkpoint):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    b = Manifest(root=root, num_partitions=4)
    b.commit_epoch("e1", 0, 0, _entry("0", "f1"))
    if not checkpoint:
        # a crash between the first link and its checkpoint
        os.remove(b.path)
    a = Manifest.load(root)
    assert a.version == 1
    b = Manifest.load(root)
    b.commit_epoch("e2", 1, 1, _entry("1", "f2"))
    b.commit_epoch("e3", 2, 2, _entry("2", "f3"))
    b.truncate_lineage(keep_epochs=1)  # checkpoint at 3, records ≤ 3 gone
    logd = os.path.join(root, "_log")
    assert os.listdir(logd) == []

    links = []
    real_link = os.link

    def link(src, dst):
        real_link(src, dst)
        links.append(os.path.basename(dst))

    monkeypatch.setattr(os, "link", link)
    assert a.commit_epoch("e4", 3, 3, _entry("3", "f4")) is True
    monkeypatch.undo()
    # the stale claim of v2 linked, was undone, and the retry landed at 4
    assert links == [f"v{2:020d}.json", f"v{4:020d}.json"]
    assert os.listdir(logd) == [f"v{4:020d}.json"]
    assert a.version == 4
    fresh = Manifest.load(root)
    assert fresh.version == 4
    assert [e["epoch_id"] for e in fresh.epochs] == ["_base-e2", "e3", "e4"]
    assert set(fresh.partitions) == {"0", "1", "2", "3"}
    assert fresh.partitions == a.partitions


def test_stale_replacement_conflicts_after_truncate(tmp_path):
    root = str(tmp_path / "lake")
    os.makedirs(root)

    def full(k, name):
        return {k: {"mode": "full", "files": [f"part={k}/{name}.parquet"],
                    "rows": 1, "delta_rows": 0, "tombstones": 0,
                    "lsn_high": 0, "checksum": 0}}

    b = Manifest(root=root, num_partitions=4)
    b.commit_epoch("e1", 0, 0, full("0", "f1"))
    a = Manifest.load(root)
    b.commit_epoch("e2", 1, 1, full("0", "f2"))  # rewrites what a read
    b.commit_epoch("e3", 2, 2, full("1", "g3"))
    b.truncate_lineage(keep_epochs=1)  # e2 folds into the base record
    with pytest.raises(ConcurrentModificationError):
        a.commit_epoch("a1", 3, 3, full("0", "fa"))
    assert Manifest.load(root).partitions["0"]["files"] == [
        "part=0/f2.parquet"]


def test_clone_refuses_a_lake_without_checkpoint(ray_session, tmp_path):
    src = LakeTable(str(tmp_path / "src"), num_partitions=2)
    src.apply_changes(gen_changes(200, seed=1), epoch_id="e1")
    dest = str(tmp_path / "dest")
    os.makedirs(dest)
    # a crash before the first commit's checkpoint leaves only _log/v1
    m = Manifest(root=dest, num_partitions=2)
    m.commit_epoch("x1", 0, 0, _entry("0", "f"))
    os.remove(m.path)
    assert os.listdir(os.path.join(dest, "_log")) == [f"v{1:020d}.json"]
    with pytest.raises(FileExistsError):
        src.clone(dest)
    assert Manifest.load(dest).version == 1
