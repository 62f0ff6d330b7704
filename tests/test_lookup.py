"""Per-file key blooms + point lookup (the O(1)-per-conversation read
path): bloom membership properties, file skipping on reads, and
lookup() exactness across delta files and tombstones."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tenzir_ray.cdc.generate import gen_changes
from tenzir_ray.cdc.lake import (
    LakeTable,
    _bloom_build,
    _bloom_maybe_contains,
    _zone_skip,
    stable_part_of_uniques,
)
from tenzir_ray.cdc.oracle import naive_apply


def test_bloom_no_false_negatives_and_low_fp():
    keys = [f"conv-{i}" for i in range(5000)]
    bl = _bloom_build(keys)
    assert all(_bloom_maybe_contains(bl, k) for k in keys)
    probes = [f"other-{i}" for i in range(5000)]
    fp = sum(_bloom_maybe_contains(bl, p) for p in probes) / len(probes)
    assert fp < 0.05, fp  # ~1% design point, generous bound


def _partition_keys(n: int, part: int = 0, num_partitions: int = 16) -> list[str]:
    """The first ``n`` keys in the generator's ``conv-%08d`` format that
    hash to ``part``: the keys one partition's files hold."""
    keys = [f"conv-{i:08d}" for i in range(n * num_partitions * 2)]
    parts = stable_part_of_uniques(keys, num_partitions)
    return [k for k, p in zip(keys, parts) if p == part][:n]


@pytest.mark.parametrize("n", [12, 24, 2000])
def test_bloom_low_fp_within_one_partition(n):
    # every key of a partition shares crc32 % P, the partition hash; a
    # bloom hashed off the raw crc32 passed 37-100% of these probes
    keys = _partition_keys(n + 5000)
    members, probes = keys[:n], keys[n:]
    bl = _bloom_build(members)
    assert bl["m"] == max(256, 10 * n)  # 12/24 keys: a delta file's 256 bits
    assert all(_bloom_maybe_contains(bl, k) for k in members)
    fp = sum(_bloom_maybe_contains(bl, p) for p in probes) / len(probes)
    assert fp < 0.05, fp


#: ``_bloom_build([f"conv-{i:08d}" for i in range(50)])`` as lakes written
#: before the mixed hash stored it: no ``"h"`` field
LEGACY_BLOOM = {
    "m": 500, "k": 7,
    "b64": "RK3iFwc3Rtuv1Waxb879swtGolvm1zA8Flxv97IafC9zxLKBPztuyojaq2aEfecamu"
           "/ZVuEUdmYg0GzozzpQ",
}
LEGACY_KEYS = [f"conv-{i:08d}" for i in range(50)]


def test_legacy_bloom_has_no_false_negatives():
    assert _bloom_build(LEGACY_KEYS)["h"] == 2
    assert all(_bloom_maybe_contains(LEGACY_BLOOM, k) for k in LEGACY_KEYS)
    stats = {"conv_id": [LEGACY_KEYS[0], LEGACY_KEYS[-1]],
             "_bloom:conv_id": LEGACY_BLOOM}
    for k in LEGACY_KEYS:
        assert not _zone_skip(stats, [("conv_id", "==", k)]), k


def test_mixed_legacy_and_new_blooms_keep_every_holding_file():
    # one partition: the legacy base file, then delta files written with
    # the new hash, each holding a few of the base's keys and new ones
    files = {"epoch-e0": (LEGACY_KEYS, LEGACY_BLOOM)}
    for e in range(1, 9):
        keys = LEGACY_KEYS[e * 5:e * 5 + 4] + [f"conv-{900 + 10 * e + j:08d}"
                                               for j in range(3)]
        files[f"delta-e{e}"] = (keys, _bloom_build(keys))
    every = {k for keys, _ in files.values() for k in keys}
    for k in every:
        kept = {rel for rel, (_, bl) in files.items()
                if not _zone_skip({"_bloom:conv_id": bl}, [("conv_id", "==", k)])}
        holding = {rel for rel, (keys, _) in files.items() if k in keys}
        assert holding <= kept, (k, holding - kept)


def _file_keys(root: str, rel: str) -> set:
    return set(pq.read_table(os.path.join(root, rel),
                             columns=["conv_id"]).column(0).to_pylist())


def test_lookup_opens_only_files_holding_the_key(ray_session, tmp_path):
    # a base epoch (every insert), then 8 small update/delete epochs: each
    # partition's delta files hold 8-20 Zipf-hot conversations
    ch = gen_changes(6400, seed=5, n_convs=400)
    lsn = ch.column("lsn")
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    bounds = [(0, 4480)] + [(4480 + 240 * e, 4720 + 240 * e) for e in range(8)]
    for e, (lo, hi) in enumerate(bounds):
        sel = pc.and_(pc.greater_equal(lsn, lo), pc.less(lsn, hi))
        lake.apply_changes(ch.filter(sel), epoch_id=f"e{e}")
    parts = lake.manifest.partitions
    assert all(len(info["files"]) == 9 for info in parts.values())
    held = {rel: _file_keys(lake.root, rel)
            for info in parts.values() for rel in info["files"]}

    want = naive_apply(ch)
    convs = sorted(set(ch.column("conv_id").to_pylist()))
    excess = []
    for c in convs:
        got = lake.lookup(c)
        exp = want.filter(pc.equal(want.column("conv_id"), c))
        assert got.select(exp.column_names).equals(exp), c
        files = parts[str(int(stable_part_of_uniques([c], 4)[0]))]["files"]
        opened = len(files) - lake._last_lookup_pruned
        holding = sum(c in held[rel] for rel in files)
        assert opened >= holding, c
        excess.append(opened - holding)
    assert sum(excess) / len(excess) < 0.25, excess


def test_bloom_cap_respected(monkeypatch):
    monkeypatch.setenv("TENZIR_RAY_BLOOM_MAX_BYTES", "64")
    bl = _bloom_build([f"k{i}" for i in range(10_000)])
    assert bl["m"] <= 64 * 8
    monkeypatch.setenv("TENZIR_RAY_BLOOM_MAX_BYTES", "0")
    assert _bloom_build(["a"]) is None


def _changes(convs, n_turns, lsn0, op="insert", text="t"):
    conv, turn, lsn = [], [], []
    i = 0
    for c in convs:
        for t in range(n_turns):
            conv.append(c)
            turn.append(t)
            lsn.append(lsn0 + i)
            i += 1
    return pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array([op] * len(conv)),
        "conv_id": pa.array(conv),
        "turn_idx": pa.array(turn, pa.int32()),
        "text": pa.array([f"{text}-{c}-{t}" for c, t in zip(conv, turn)]),
    })


def test_lookup_exact_across_deltas_and_tombstones(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=4)
    base = _changes([f"c{i}" for i in range(20)], 50, lsn0=0)
    lake.apply_changes(base, epoch_id="base")
    # delta epoch: update two turns of c3, delete one turn of c3
    upd = _changes(["c3"], 2, lsn0=10_000, text="upd")
    lake.apply_changes(upd, epoch_id="upd")
    dele = pa.table({
        "lsn": pa.array([20_000], pa.int64()),
        "op": pa.array(["delete"]),
        "conv_id": pa.array(["c3"]),
        "turn_idx": pa.array([5], pa.int32()),
        "text": pa.nulls(1, pa.string()),
    })
    lake.apply_changes(dele, epoch_id="del")
    got = lake.lookup("c3")
    want = lake.final_table().filter(
        pc.equal(lake.final_table().column("conv_id"), "c3"))
    assert got.num_rows == 49  # 50 turns - 1 tombstone
    assert got.select(want.column_names).equals(want)
    # turns 0/1 carry the delta's text (LWW)
    assert got.column("text")[0].as_py() == "upd-c3-0"
    # a conversation that never existed
    assert lake.lookup("nope").num_rows == 0
    # projection
    assert lake.lookup("c3", columns=["conv_id", "text"]).column_names == \
        ["conv_id", "text"]


def test_lookup_bloom_prunes_disjoint_files(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    P = 4
    lake = LakeTable(root, num_partitions=P)
    # 6 append-only epochs with DISJOINT conv sets → every partition gets
    # one file per epoch, each containing different conversations
    groups = [[f"g{e}-{i}" for i in range(30)] for e in range(6)]
    for e, convs in enumerate(groups):
        lake.apply_changes(_changes(convs, 3, lsn0=e * 1000),
                           epoch_id=f"e{e}", append_only=True)
    target = groups[2][0]
    part = int(stable_part_of_uniques([target], P)[0])
    n_files = len(lake.manifest.partitions[str(part)]["files"])
    assert n_files >= 4  # the conv's partition accumulated epoch files
    got = lake.lookup(target)
    assert got.num_rows == 3
    assert lake._last_lookup_pruned >= n_files - 2  # blooms skipped the rest
    # the streaming read path prunes through the same stats
    out = lake.read(filter_expr=f"conv_id == '{target}'")
    assert out.count() == 3
    assert lake._last_read_pruned > 0


def test_lookup_after_optimize_keeps_bloom(ray_session, tmp_path):
    root = str(tmp_path / "lake")
    lake = LakeTable(root, num_partitions=2)
    lake.apply_changes(_changes(["a", "b", "c"], 4, lsn0=0), epoch_id="e0")
    lake.optimize()
    got = lake.lookup("b")
    assert got.num_rows == 4
    # compacted file_stats carry a bloom entry
    stats = next(iter(lake.manifest.partitions[str(
        int(stable_part_of_uniques(["b"], 2)[0]))]["file_stats"].values()))
    assert "_bloom:conv_id" in stats
