"""LakeTable.reshard — partition-count rebuild (cdc/lake.py)."""

import os
import shutil
import signal
import threading

import numpy as np
import pyarrow as pa
import pytest


def _src_lake(tmp_path, n=6000, parts=16):
    import pyarrow.compute as pc

    from tenzir_ray.cdc import LakeTable, gen_changes

    root = str(tmp_path / "src")
    shutil.rmtree(root, ignore_errors=True)
    lake = LakeTable(root, num_partitions=parts,
                     token_bloom_cols=("text",))
    ch = gen_changes(n, seed=7)
    lsn = ch.column("lsn")
    lake.apply_changes(ch.filter(pc.less(lsn, n // 2)), epoch_id="e1")
    lake.apply_changes(ch.filter(pc.greater_equal(lsn, n // 2)),
                       epoch_id="e2")
    return lake


def test_reshard_preserves_state(ray_session, tmp_path):
    lake = _src_lake(tmp_path)
    dest = lake.reshard(str(tmp_path / "dst"), 5)
    a = lake.final_table().to_pandas().reset_index(drop=True)
    b = dest.final_table().to_pandas().reset_index(drop=True)
    assert a.equals(b)
    assert dest.num_partitions == 5
    # resume watermark carries over
    assert dest.resume_lsn() == lake.resume_lsn()


def test_reshard_up_and_down(ray_session, tmp_path):
    lake = _src_lake(tmp_path, n=2000, parts=4)
    up = lake.reshard(str(tmp_path / "up"), 32)
    down = up.reshard(str(tmp_path / "down"), 2)
    a = lake.final_table().to_pandas().reset_index(drop=True)
    assert a.equals(down.final_table().to_pandas().reset_index(drop=True))


def test_reshard_rerun_is_noop(ray_session, tmp_path):
    lake = _src_lake(tmp_path, n=2000)
    dest = lake.reshard(str(tmp_path / "dst"), 3)
    n_epochs = len(dest.manifest.epochs)
    dest2 = lake.reshard(str(tmp_path / "dst"), 3)
    assert len(dest2.manifest.epochs) == n_epochs
    assert dest.final_table().equals(dest2.final_table())


def test_reshard_stale_update_loses_lww(ray_session, tmp_path):
    lake = _src_lake(tmp_path, n=2000)
    dest = lake.reshard(str(tmp_path / "dst"), 3)
    before = dest.final_table().to_pandas()
    # replay a stale UPDATE of a live key (lsn far below the watermark)
    row = before.iloc[0]
    stale = pa.table({
        "lsn": pa.array([1], pa.int64()),
        "op": pa.array(["update"]),
        "conv_id": pa.array([row.conv_id]),
        "turn_idx": pa.array([int(row.turn_idx)], pa.int32()),
        "text": pa.array(["STALE"]),
    })
    dest.apply_changes(stale, epoch_id="stale")
    after = dest.final_table().to_pandas()
    got = after[(after.conv_id == row.conv_id)
                & (after.turn_idx == row.turn_idx)]
    assert got.text.item() != "STALE"  # resharded row's lsn_high wins


def test_reshard_kill_resume(ray_session, tmp_path):
    # kill the reshard loop partway (child process), then resume: the
    # committed per-partition epochs skip and the result converges
    lake = _src_lake(tmp_path, n=4000)
    dst = str(tmp_path / "dst")
    child = os.fork()
    if child == 0:  # noqa: SIM108
        threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGKILL)).start()
        try:
            lake.reshard(dst, 6)
        finally:
            os._exit(0)
    os.waitpid(child, 0)
    dest = lake.reshard(dst, 6)  # resume in this process
    a = lake.final_table().to_pandas().reset_index(drop=True)
    assert a.equals(dest.final_table().to_pandas().reset_index(drop=True))


def test_reshard_propagates_token_blooms(ray_session, tmp_path):
    from tenzir_ray.cdc.manifest import Manifest

    lake = _src_lake(tmp_path, n=2000)
    dest = lake.reshard(str(tmp_path / "dst"), 3)
    man = Manifest.load(dest.root)
    blooms = [1 for info in man.partitions.values()
              for st in (info.get("file_stats") or {}).values()
              if "_bloom:tok:text" in st]
    assert blooms


def test_reshard_bad_args(ray_session, tmp_path):
    lake = _src_lake(tmp_path, n=500)
    with pytest.raises(ValueError):
        lake.reshard(str(tmp_path / "dst"), 0)
