"""``python -m tenzir_ray.replay`` — the CDC replay job for
``ray job submit``: tail a binlog/WAL-style change-log directory of
parquet files and apply it into a lake table as exactly-once upserts,
resuming from the lake's lineage checkpoint.

    ray job submit -- python -m tenzir_ray.replay \
        --changes /data/binlog/ --lake /data/transcripts \
        --epoch-id epoch-17 --num-partitions 256

Resume semantics are two-layer and both engine-side:
- a replayed ``--epoch-id`` is a manifest no-op (exactly-once), and
- ``--from-checkpoint`` filters the input to ``lsn >= lake.resume_lsn()``
  so a fresh epoch id over an overlapping log slice applies only the
  unseen suffix.

Prints ONE JSON line of metrics to stdout (rows, lsn range, seconds,
events/s) — the job's machine-readable result. Owns its Ray session only
when launched as a script (``ray job submit`` drivers attach to the
cluster via RAY_ADDRESS automatically).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m tenzir_ray.replay")
    ap.add_argument("--changes", required=True,
                    help="parquet file/dir/glob of change events "
                         "(lsn, op, conv_id, turn_idx, payload columns)")
    ap.add_argument("--lake", required=True, help="lake table root")
    ap.add_argument("--epoch-id", required=True)
    ap.add_argument("--num-partitions", type=int, default=16,
                    help="partition count for a NEW lake (existing lakes "
                         "keep their manifest's count)")
    ap.add_argument("--from-checkpoint", action="store_true",
                    help="filter input to lsn >= lake.resume_lsn()")
    ap.add_argument("--append-only", action="store_true")
    ap.add_argument("--change-feed", choices=("off", "on", "preimages"),
                    default="off")
    ap.add_argument("--batch-size", type=int, default=262144)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only for standalone runs; ray job drivers attach")
    args = ap.parse_args(argv)

    from tenzir_ray._cli import init_ray

    init_ray(args.num_cpus)

    import ray.data

    from tenzir_ray.cdc import LakeTable

    lake = LakeTable(args.lake, num_partitions=args.num_partitions)
    ds = ray.data.read_parquet(args.changes)
    if args.from_checkpoint:
        lo = lake.resume_lsn()
        if lo > 0:
            import pyarrow.compute as pc

            ds = ds.map_batches(
                lambda t, _lo=lo: t.filter(
                    pc.greater_equal(t.column("lsn"), _lo)),
                batch_format="pyarrow")
    feed = {"off": False, "on": True, "preimages": "preimages"}[args.change_feed]
    t0 = time.monotonic()
    stats = lake.apply_changes(
        ds, epoch_id=args.epoch_id, batch_size=args.batch_size, change_feed=feed,
        append_only=args.append_only)
    secs = time.monotonic() - t0
    lo, hi = stats.get("lsn_min", -1), stats.get("lsn_max", -1)
    n_events = (hi - lo + 1) if isinstance(hi, int) and hi >= lo >= 0 else 0
    out = {
        "epoch_id": args.epoch_id,
        "skipped": bool(stats.get("skipped", False)),
        "rows_live": int(stats.get("rows_live", 0) or 0),
        "partitions_touched": stats.get("partitions_touched", 0),
        "lsn_min": lo,
        "lsn_max": hi,
        "seconds": round(secs, 3),
        "events_per_s": round(n_events / secs, 1) if secs > 0 else None,
        "resume_lsn": lake.resume_lsn(),
    }
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    rc = main()
    import ray

    if ray.is_initialized():
        ray.shutdown()
    sys.exit(rc)
