"""Multi-writer optimistic concurrency for the lake commit protocol.

The manifest's versioned commit log (cdc/manifest.py: ``_log/v<N>.json``
claimed via atomic ``os.link`` CAS) serializes concurrent writers the way
Delta Lake's commit protocol does: append/delta epochs compose under
LWW-by-lsn and rebase automatically; full rewrites of a partition another
writer has since replaced raise ConcurrentModificationError; the same
epoch id applied by two processes commits exactly once; schema-registry
deltas fold commutatively.
"""

import json
import os
import threading

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from tenzir_ray.cdc.lake import LakeTable, stable_part_of_uniques
from tenzir_ray.cdc.manifest import ConcurrentModificationError, Manifest


# ---------------------------------------------------------------------------
# helpers


def _changes(convs, n_turns, lsn0, text="t", extra=None):
    """A pure-insert change table over the given conv ids."""
    conv, turn, lsn = [], [], []
    i = 0
    for c in convs:
        for t in range(n_turns):
            conv.append(c)
            turn.append(t)
            lsn.append(lsn0 + i)
            i += 1
    cols = {
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(["insert"] * len(conv)),
        "conv_id": pa.array(conv),
        "turn_idx": pa.array(turn, pa.int32()),
        "text": pa.array([f"{text}-{c}-{t}" for c, t in zip(conv, turn)]),
    }
    if extra:
        for name, val in extra.items():
            cols[name] = pa.array([val] * len(conv))
    return pa.table(cols)


def _convs_for_parts(parts, num_partitions, count=2):
    """conv ids that hash into exactly the given partition set."""
    out, want = [], set(parts)
    i = 0
    while len(out) < count:
        cand = f"conv-{i}"
        if stable_part_of_uniques([cand], num_partitions)[0] in want:
            out.append(cand)
        i += 1
    return out


def _expected(tables):
    """LWW-by-lsn oracle over concatenated change tables → sorted rows."""
    tbl = pa.concat_tables(tables, promote_options="permissive")
    best = {}
    order = pc.sort_indices(tbl.column("lsn"))
    for idx in order.to_pylist():
        row = {c: tbl.column(c)[idx].as_py() for c in tbl.column_names}
        best[(row["conv_id"], row["turn_idx"])] = row
    rows = sorted(best.values(), key=lambda r: (r["conv_id"], r["turn_idx"]))
    return [(r["conv_id"], r["turn_idx"], r["text"]) for r in rows]


def _got(lake):
    t = lake.final_table()
    return list(zip(t.column("conv_id").to_pylist(),
                    t.column("turn_idx").to_pylist(),
                    t.column("text").to_pylist()))


def _race_barrier(monkeypatch, n=2):
    """Patch try_commit_epoch so the first call from each of n threads
    meets at a barrier — forcing a true commit race."""
    orig = Manifest.try_commit_epoch
    bar = threading.Barrier(n)
    seen = threading.local()

    def patched(self, *a, **k):
        if not getattr(seen, "done", False):
            seen.done = True
            try:
                bar.wait(timeout=60)
            except threading.BrokenBarrierError:
                pass
        return orig(self, *a, **k)

    monkeypatch.setattr(Manifest, "try_commit_epoch", patched)


# ---------------------------------------------------------------------------
# manifest level (no Ray)


def test_manifest_cas_two_writers_compose(tmp_path):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    a = Manifest(root=root, num_partitions=4)
    b = Manifest(root=root, num_partitions=4)
    res1 = {"1": {"files": ["part=1/f1.parquet"], "rows": 10,
                  "lsn_high": 9, "checksum": 1}}
    res2 = {"2": {"files": ["part=2/f2.parquet"], "rows": 5,
                  "lsn_high": 14, "checksum": 2}}
    a.commit_epoch("ea", 0, 9, res1)
    # b is stale (version 0) but touches a DIFFERENT partition: its lost
    # CAS reloads and retries transparently
    b.commit_epoch("eb", 10, 14, res2)
    m = Manifest.load(root)
    assert m.version == 2
    assert {e["epoch_id"] for e in m.epochs} == {"ea", "eb"}
    assert set(m.partitions) == {"1", "2"}
    # log records exist and are versioned sequentially
    names = sorted(os.listdir(os.path.join(root, "_log")))
    assert names == ["v" + "1".zfill(20) + ".json",
                     "v" + "2".zfill(20) + ".json"]


def test_manifest_conflict_on_overlap(tmp_path):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    a = Manifest(root=root, num_partitions=4)
    b = Manifest(root=root, num_partitions=4)
    res = {"1": {"files": ["part=1/fa.parquet"], "rows": 10,
                 "lsn_high": 9, "checksum": 1}}
    a.commit_epoch("ea", 0, 9, res)
    with pytest.raises(ConcurrentModificationError):
        b.commit_epoch("eb", 10, 14, {
            "1": {"files": ["part=1/fb.parquet"], "rows": 3,
                  "lsn_high": 14, "checksum": 2}})
    # the losing epoch was NOT committed
    m = Manifest.load(root)
    assert [e["epoch_id"] for e in m.epochs] == ["ea"]
    assert m.partitions["1"]["files"] == ["part=1/fa.parquet"]


def test_manifest_same_epoch_twice_is_once(tmp_path):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    a = Manifest(root=root, num_partitions=4)
    b = Manifest(root=root, num_partitions=4)
    res = {"1": {"files": ["part=1/fa.parquet"], "rows": 10,
                 "lsn_high": 9, "checksum": 1}}
    a.commit_epoch("e1", 0, 9, res)
    b.commit_epoch("e1", 0, 9, dict(res))  # same epoch id from a stale peer
    m = Manifest.load(root)
    assert [e["epoch_id"] for e in m.epochs] == ["e1"]
    assert m.version == 1


def test_crash_before_snapshot_recovers_from_log(tmp_path, monkeypatch):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    a = Manifest(root=root, num_partitions=4)
    a.commit_epoch("e1", 0, 9, {"1": {"files": ["part=1/f.parquet"],
                                      "rows": 1, "lsn_high": 0,
                                      "checksum": 0}})
    # crash window: log record lands, snapshot write never happens
    monkeypatch.setattr(Manifest, "_atomic_write", lambda self: None)
    a.commit_epoch("e2", 10, 11, {"2": {"files": ["part=2/g.parquet"],
                                        "rows": 1, "lsn_high": 11,
                                        "checksum": 0}})
    monkeypatch.undo()
    m = Manifest.load(root)
    assert [e["epoch_id"] for e in m.epochs] == ["e1", "e2"]
    assert m.version == 2
    assert set(m.partitions) == {"1", "2"}


def test_crash_before_first_snapshot_bootstraps(tmp_path, monkeypatch):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    monkeypatch.setattr(Manifest, "_atomic_write", lambda self: None)
    a = Manifest(root=root, num_partitions=4)
    a.commit_epoch("e1", 0, 9, {"1": {"files": ["part=1/f.parquet"],
                                      "rows": 1, "lsn_high": 0,
                                      "checksum": 0}})
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(root, "_manifest.json"))
    m = Manifest.load(root)  # bootstrap purely from the log
    assert m is not None and m.version == 1
    assert m.num_partitions == 4
    assert [e["epoch_id"] for e in m.epochs] == ["e1"]


def test_legacy_snapshot_without_version_upgrades(tmp_path):
    root = str(tmp_path / "lake")
    os.makedirs(root)
    a = Manifest(root=root, num_partitions=4)
    a.commit_epoch("e1", 0, 9, {"1": {"files": ["part=1/f.parquet"],
                                      "rows": 1, "lsn_high": 0,
                                      "checksum": 0}})
    # rewrite the snapshot the way pre-OCC code would have written it
    p = os.path.join(root, "_manifest.json")
    with open(p) as f:
        d = json.load(f)
    d.pop("version")
    d["epochs"][0].pop("version")
    with open(p, "w") as f:
        json.dump(d, f)
    import shutil

    shutil.rmtree(os.path.join(root, "_log"))
    m = Manifest.load(root)
    assert m.version == 1  # len(epochs) fallback
    m.commit_epoch("e2", 10, 11, {"2": {"files": ["part=2/g.parquet"],
                                        "rows": 1, "lsn_high": 11,
                                        "checksum": 0}})
    m2 = Manifest.load(root)
    assert m2.version == 2
    assert [e["epoch_id"] for e in m2.epochs] == ["e1", "e2"]


# ---------------------------------------------------------------------------
# lake level (Ray)


def test_cross_instance_visibility(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    a = LakeTable(root, num_partitions=4)
    b = LakeTable(root, num_partitions=4)  # constructed BEFORE a's commit
    e1 = _changes(["c1", "c2", "c3"], 4, lsn0=0)
    a.apply_changes(e1, epoch_id="e1")
    # b's apply reloads the published state: its updates land on a's base
    e2 = _changes(["c1"], 2, lsn0=100, text="upd")
    b.apply_changes(e2, epoch_id="e2")
    fresh = LakeTable(root)
    assert _got(fresh) == _expected([e1, e2])
    # idempotence holds ACROSS instances: a replay of e1 from a is a no-op
    a.manifest.reload()
    assert a.apply_changes(e1, epoch_id="e1")["skipped"] is True


def _apply_in_threads(roots_and_args):
    """Run apply_changes concurrently; return [(result|None, exc|None)]."""
    out = [None] * len(roots_and_args)

    def run(i, lake, tbl, eid):
        try:
            out[i] = (lake.apply_changes(tbl, epoch_id=eid), None)
        except BaseException as e:  # noqa: BLE001 — re-raised by caller
            out[i] = (None, e)

    threads = [threading.Thread(target=run, args=(i, *a))
               for i, a in enumerate(roots_and_args)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    return out


def test_concurrent_disjoint_partitions_both_commit(
        ray_session, tmp_path, monkeypatch):
    root = str(tmp_path / "lake")
    P = 4
    a, b = LakeTable(root, num_partitions=P), LakeTable(root, num_partitions=P)
    ca = _convs_for_parts({0, 1}, P)
    cb = _convs_for_parts({2, 3}, P)
    e1, e2 = _changes(ca, 3, lsn0=0), _changes(cb, 3, lsn0=50)
    _race_barrier(monkeypatch)
    res = _apply_in_threads([(a, e1, "ea"), (b, e2, "eb")])
    for r, exc in res:
        assert exc is None, exc
        assert not r.get("skipped")
    fresh = LakeTable(root)
    assert {e["epoch_id"] for e in fresh.manifest.epochs} == {"ea", "eb"}
    assert _got(fresh) == _expected([e1, e2])


def test_concurrent_full_rewrite_conflicts(ray_session, tmp_path, monkeypatch):
    root = str(tmp_path / "lake")
    P = 4
    conv = _convs_for_parts({0}, P, count=1)[0]
    base = _changes([conv], 8, lsn0=0)
    LakeTable(root, num_partitions=P).apply_changes(base, epoch_id="base")
    a, b = LakeTable(root), LakeTable(root)
    # delta_ratio=0 forces FULL rewrites of the same partition
    e1 = _changes([conv], 2, lsn0=100, text="a")
    e2 = _changes([conv], 2, lsn0=200, text="b")
    _race_barrier(monkeypatch)
    out = [None, None]

    def run(i, lake, tbl, eid):
        try:
            out[i] = (lake.apply_changes(tbl, epoch_id=eid, delta_ratio=0),
                      None)
        except BaseException as e:  # noqa: BLE001
            out[i] = (None, e)

    ts = [threading.Thread(target=run, args=(0, a, e1, "ea")),
          threading.Thread(target=run, args=(1, b, e2, "eb"))]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=300)
    monkeypatch.undo()
    errs = [e for _, e in out if e is not None]
    assert len(errs) == 1 and isinstance(errs[0], ConcurrentModificationError)
    # the loser re-runs and converges (idempotent by epoch id)
    loser = out.index((None, errs[0]))
    lake, tbl, eid = (a, e1, "ea") if loser == 0 else (b, e2, "eb")
    lake.apply_changes(tbl, epoch_id=eid, delta_ratio=0)
    fresh = LakeTable(root)
    assert _got(fresh) == _expected([base, e1, e2])


def test_concurrent_delta_epochs_rebase(ray_session, tmp_path, monkeypatch):
    """Two writers' DELTA epochs against the same partition compose under
    LWW — the lost CAS rebases the counters and retries, nobody fails."""
    root = str(tmp_path / "lake")
    P = 4
    conv = _convs_for_parts({0}, P, count=1)[0]
    base = _changes([conv], 200, lsn0=0)
    LakeTable(root, num_partitions=P).apply_changes(base, epoch_id="base")
    a, b = LakeTable(root), LakeTable(root)
    e1 = _changes([conv], 2, lsn0=1000, text="a")   # 2 ≪ 0.2·200 → delta
    e2 = _changes([conv], 2, lsn0=2000, text="b")
    _race_barrier(monkeypatch)
    res = _apply_in_threads([(a, e1, "ea"), (b, e2, "eb")])
    for r, exc in res:
        assert exc is None, exc
        assert not r.get("skipped")
    fresh = LakeTable(root)
    info = fresh.manifest.partitions[str(stable_part_of_uniques([conv], P)[0])]
    assert len(info["files"]) == 3  # base + two composed delta files
    assert _got(fresh) == _expected([base, e1, e2])
    # and compaction restores the fast path with the same content
    fresh.optimize()
    assert _got(fresh) == _expected([base, e1, e2])


def test_same_epoch_raced_commits_once(ray_session, tmp_path, monkeypatch):
    root = str(tmp_path / "lake")
    a, b = LakeTable(root, num_partitions=4), LakeTable(root, num_partitions=4)
    e1 = _changes(["x", "y"], 3, lsn0=0)
    _race_barrier(monkeypatch)
    res = _apply_in_threads([(a, e1, "e1"), (b, e1, "e1")])
    outcomes = sorted(bool(r.get("skipped")) for r, exc in res
                      if exc is None or pytest.fail(str(exc)))
    assert outcomes == [False, True]  # exactly one winner
    fresh = LakeTable(root)
    assert [e["epoch_id"] for e in fresh.manifest.epochs] == ["e1"]
    assert _got(fresh) == _expected([e1])
    # the loser's orphaned files are collectible
    fresh.gc()
    assert _got(LakeTable(root)) == _expected([e1])


def test_registry_concurrent_columns_converge(ray_session, tmp_path,
                                              monkeypatch):
    root = str(tmp_path / "lake")
    P = 4
    a, b = LakeTable(root, num_partitions=P), LakeTable(root, num_partitions=P)
    ca = _convs_for_parts({0, 1}, P)
    cb = _convs_for_parts({2, 3}, P)
    e1 = _changes(ca, 2, lsn0=0, extra={"alpha": 1})
    e2 = _changes(cb, 2, lsn0=50, extra={"beta": "z"})
    _race_barrier(monkeypatch)
    res = _apply_in_threads([(a, e1, "ea"), (b, e2, "eb")])
    assert all(exc is None for _, exc in res), res
    fresh = LakeTable(root)
    names = set(fresh.registry.schema.names)
    assert {"alpha", "beta"} <= names
    tbl = fresh.final_table()
    assert {"alpha", "beta"} <= set(tbl.column_names)
    # rows from the other writer's epochs read as null in the new columns
    assert tbl.column("alpha").null_count == e2.num_rows
    assert tbl.column("beta").null_count == e1.num_rows


def test_truncate_compacts_log(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=2)
    for i in range(5):
        lake.apply_changes(_changes([f"c{i}"], 2, lsn0=i * 10),
                           epoch_id=f"e{i}")
    logd = os.path.join(root, "_log")
    assert len(os.listdir(logd)) == 5
    lake.truncate_lineage(keep_epochs=2)
    assert os.listdir(logd) == []  # folded into the snapshot
    fresh = LakeTable(root)
    assert fresh.manifest.version == 5  # version survives the fold
    assert _got(fresh) == _expected(
        [_changes([f"c{i}"], 2, lsn0=i * 10) for i in range(5)])
    # commits continue past the fold
    lake.apply_changes(_changes(["c9"], 1, lsn0=99), epoch_id="e9")
    assert LakeTable(root).manifest.version == 6


def _write_legacy(root, snapshot_version):
    """Rewrite a root in the format written before lineage records were
    lean: every record carries its partitions' cumulative state (counters
    and the stats of every live file), the full file sets sit in a
    top-level ``files`` map, and each log record repeats the state in a
    ``state`` block. The snapshot folds only the first
    ``snapshot_version`` records; load replays the rest from the log."""
    m = Manifest.load(root)
    epochs, states = [], []
    for i, e in enumerate(m.epochs):
        st = m.state_as_of(i)
        state = {k: {**st[k], **{f: r[f] for f in ("mode", "new_file",
                                                    "cdf_file", "checksum")
                                  if f in r}}
                 for k, r in e["partitions"].items()}
        epochs.append({
            **e,
            "partitions": {k: {f: v for f, v in r.items() if f != "files"}
                           for k, r in state.items()},
            "files": {k: r["files"] for k, r in state.items()},
        })
        states.append(state)
    logd = os.path.join(root, "_log")
    for v, (e, state) in enumerate(zip(epochs, states), start=1):
        with open(os.path.join(logd, f"v{v:020d}.json"), "w") as f:
            json.dump({"version": v, "num_partitions": m.num_partitions,
                       "epoch": e, "state": state}, f)
    with open(os.path.join(root, "_manifest.json"), "w") as f:
        json.dump({"num_partitions": m.num_partitions,
                   "partitions": m.state_as_of(snapshot_version - 1),
                   "epochs": epochs[:snapshot_version],
                   "version": snapshot_version,
                   "registry_json": m.registry_json}, f)


def test_legacy_cumulative_root_loads_and_folds(ray_session, tmp_path,
                                                monkeypatch):
    root = str(tmp_path / "lake")
    P = 4
    conv = _convs_for_parts({0}, P, count=1)[0]
    other = _convs_for_parts({1}, P, count=1)[0]
    base = _changes([conv, other], 200, lsn0=0)
    e1 = _changes([conv], 2, lsn0=1000, text="d1")  # 2 ≪ 0.2·200 → delta
    lake = LakeTable(root, num_partitions=P)
    lake.apply_changes(base, epoch_id="base")
    lake.apply_changes(e1, epoch_id="e1")
    lean = [lake.manifest.state_as_of(i) for i in range(2)]
    _write_legacy(root, snapshot_version=1)
    with open(os.path.join(root, "_log", f"v{2:020d}.json")) as f:
        legacy = json.load(f)
    part = str(stable_part_of_uniques([conv], P)[0])
    assert legacy["state"] and legacy["epoch"]["files"]
    assert legacy["epoch"]["partitions"][part]["rows"] == 200  # cumulative

    old = LakeTable(root)
    assert old.manifest.version == 2
    assert _got(old) == _expected([base, e1])
    for i, prefix in enumerate([[base], [base, e1]]):
        state = old.manifest.state_as_of(i)
        assert {k: s["files"] for k, s in state.items()} == {
            k: s["files"] for k, s in lean[i].items()}
        t = old.final_table(as_of=i)
        assert list(zip(t.column("conv_id").to_pylist(),
                        t.column("turn_idx").to_pylist(),
                        t.column("text").to_pylist())) == _expected(prefix)

    # two writers' lean delta epochs race on top of the legacy lineage:
    # the lost CAS retries the same additive record
    a, b = LakeTable(root), LakeTable(root)
    e2 = _changes([conv], 2, lsn0=2000, text="a")
    e3 = _changes([conv], 2, lsn0=3000, text="b")
    _race_barrier(monkeypatch)
    res = _apply_in_threads([(a, e2, "e2"), (b, e3, "e3")])
    monkeypatch.undo()
    for r, exc in res:
        assert exc is None, exc
        assert not r.get("skipped")
    fresh = LakeTable(root)
    assert fresh.manifest.version == 4
    assert _got(fresh) == _expected([base, e1, e2, e3])
    for e in fresh.manifest.epochs[2:]:
        assert "files" not in e and set(e["partitions"]) == {part}
        assert e["partitions"][part]["add"] and e["partitions"][part]["rows"] == 0
    assert len(fresh.manifest.partitions[part]["files"]) == 4
    assert fresh.manifest.partitions[part]["rows"] == 200
    # replay of every epoch id is a no-op, old and new
    for tbl, eid in ((base, "base"), (e1, "e1"), (e2, "e2")):
        assert fresh.apply_changes(tbl, epoch_id=eid)["skipped"] is True
    assert _got(LakeTable(root)) == _expected([base, e1, e2, e3])
