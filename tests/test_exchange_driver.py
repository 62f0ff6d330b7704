"""The one stage-1 driver (``Exchange.run``) and the grouped stage 2.

Stage 1 takes the input's blocks from Ray Data's own iterator, groups
whole blocks up to ``batch_size`` rows and runs one plain Ray task per
group, on both transports. These tests pin what must not change with
that: the combine sees the same batches, operators applied after a read
still run, pandas blocks work, and an oversized block is sliced into
``batch_size`` batches. Stage 2 runs ``min(touched, CPUs)`` tasks.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import (
    BUCKET_COL, META_COLS, LakeTable, _bucket_of, _NormalizeCombine,
)
from tenzir_ray.cdc.oracle import naive_apply
from tenzir_ray.cdc.registry import SchemaRegistry
from tenzir_ray.stages.exchange import Exchange, key_buckets

PAYLOAD = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
TRANSPORTS = ["fs", "object"]


def _write_files(tbl: pa.Table, d, n: int) -> str:
    d.mkdir()
    step = -(-tbl.num_rows // n)
    for i in range(n):
        pq.write_table(tbl.slice(i * step, step), str(d / f"part-{i}.parquet"))
    return str(d)


def _same(got: pa.Table, want: pa.Table):
    assert got.select(PAYLOAD).equals(want.select(PAYLOAD))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_files_within_batch_size_combine_once(ray_session, tmp_path,
                                              transport):
    """Four parquet files that fit one ``batch_size`` are ONE combine
    batch, as ``map_batches`` made them: the per-bucket rows equal one
    combine over the whole input, so the combine ratio is unchanged."""
    import ray

    changes = gen_changes(8_000, seed=5, n_convs=40)
    src = _write_files(changes, tmp_path / "src", 4)
    reg = SchemaRegistry()
    reg.evolve(pa.schema([f for f in changes.schema
                          if f.name not in META_COLS]))
    P = 8
    combine = _NormalizeCombine(reg.to_json(), P)
    ex = Exchange("t_combine", transport)
    _, _, rows = ex.run(ray.data.read_parquet(src), _bucket_of, P, "cdc",
                        transform=combine, batch_size=262_144)
    whole = combine(pq.read_table(src))
    assert whole.num_rows < changes.num_rows  # the combine did reduce
    counts = np.bincount(whole.column(BUCKET_COL).to_numpy(), minlength=P)
    assert rows == {b: int(n) for b, n in enumerate(counts) if n}
    assert ex.stage1_tasks == 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_operator_after_read_is_applied(ray_session, tmp_path, transport):
    """A ``read_parquet(...).map_batches(f)`` input: the exchange must see
    ``f``'s output, never the files behind it."""
    import ray

    changes = gen_changes(6_000, seed=9)
    src = _write_files(changes, tmp_path / "src", 3)

    def drop_deletes(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(b.column("op"), "delete"))

    ds = ray.data.read_parquet(src).map_batches(drop_deletes,
                                                batch_format="pyarrow")
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(ds, epoch_id="e1", transport=transport)
    _same(lake.final_table(), naive_apply(drop_deletes(changes)))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_pandas_blocks(ray_session, tmp_path, transport):
    import ray

    changes = gen_changes(3_000, seed=13)
    ds = ray.data.from_pandas([changes.slice(0, 1_500).to_pandas(),
                               changes.slice(1_500).to_pandas()])
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.apply_changes(ds, epoch_id="e1", transport=transport)
    _same(lake.final_table(), naive_apply(changes))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_blocks_grouped_and_sliced_by_batch_size(ray_session, transport):
    """Small blocks group up to ``batch_size`` rows; a larger block is
    sliced inside its task, so the transform never sees more than
    ``batch_size`` rows at once."""
    import ray

    def tag_batch_rows(b: pa.Table) -> pa.Table:
        return b.append_column("n", pa.array([b.num_rows] * b.num_rows,
                                             pa.int64()))

    small = [pa.table({"k": pa.array(range(i * 300, i * 300 + 300))})
             for i in range(6)]
    big = pa.table({"k": pa.array(range(10_000, 12_500))})
    ds = ray.data.from_arrow([*small, big])
    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    ex = Exchange("t_groups", transport)
    idx, _, rows = ex.run(ds, lambda b, num_buckets: key_buckets(
        b, ["k"], num_buckets), 8, "g", transform=tag_batch_rows,
        batch_size=1_000)
    # 3 + 3 small blocks (900 rows each), then the big block alone
    assert ex.stage1_tasks == 3
    assert sum(rows.values()) == 6 * 300 + 2_500
    out = ex.reader(idx, schema)(sorted(idx))
    assert sorted(out.column("k").to_pylist()) == sorted(
        [*range(1_800), *range(10_000, 12_500)])
    n = out.column("n").to_numpy()
    assert n.max() == 1_000 and set(np.unique(n)) == {500, 900, 1_000}


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_more_groups_than_in_flight_cap(ray_session, transport):
    """30 groups against the cap of 2 in-flight tasks per CPU (8 here):
    the driver waits for tasks before pulling more blocks, and every
    group's rows reach the index exactly once."""
    import ray

    ds = ray.data.from_arrow([pa.table({"k": pa.array(range(i * 50,
                                                            i * 50 + 50))})
                              for i in range(30)])
    ex = Exchange("t_cap", transport)
    idx, _, rows = ex.run(ds, lambda b, num_buckets: key_buckets(
        b, ["k"], num_buckets), 8, "g", batch_size=50)
    assert ex.stage1_tasks == 30
    assert sum(rows.values()) == 1_500
    out = ex.reader(idx, pa.schema([("k", pa.int64())]))(sorted(idx))
    assert sorted(out.column("k").to_pylist()) == list(range(1_500))


def test_stage2_tasks_track_cpus(ray_session, tmp_path):
    """Stage 2 runs min(touched partitions, CPUs) tasks (the session has
    4 CPUs)."""
    changes = gen_changes(6_000, seed=21)
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    res = lake.apply_changes(changes, epoch_id="e1")
    assert res["partitions_touched"] == 8
    assert res["timings"]["stage2_tasks"] == 4
    assert res["timings"]["stage1_tasks"] == 1
    one = changes.filter(pc.equal(changes.column("conv_id"),
                                  changes.column("conv_id")[0]))
    one = one.set_column(one.schema.get_field_index("lsn"), "lsn",
                         pc.add(one.column("lsn"), 100_000))
    res = lake.apply_changes(one, epoch_id="e2")
    assert res["partitions_touched"] == 1
    assert res["timings"]["stage2_tasks"] == 1
    _same(lake.final_table(), naive_apply(pa.concat_tables([changes, one])))
