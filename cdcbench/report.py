"""Turn the client's samples into the benchmark's metrics, and record the
environment every run ran in."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
from statistics import median

import numpy as np

#: span names whose self time the traced run reports (``self_s.<name>``)
LAYERS = (
    "bench.run", "bench.setup", "bench.cycle", "ray.init", "ray.shutdown",
    "cdc.lake.open", "cdc.lake.apply", "cdc.lake.apply_salted",
    "cdc.lake.stage1", "cdc.lake.stage2",
    "cdc.manifest.commit", "cdc.manifest.load", "cdc.lake.lookup",
    "cdc.lake.scan", "cdc.lake.optimize", "cdc.lake.final_table",
    "cdc.lake.partition_hash", "ray.data.read", "oracle.check",
)


def tail_percentile(n: int) -> int:
    """The highest whole percentile that still has at least 10 samples
    beyond it; 50 when there are fewer than 20 samples."""
    return max(50, math.floor(100 * (n - 10) / n)) if n >= 20 else 50


def _pct(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def _slope(xs, ys) -> float:
    if len(xs) < 2 or len(set(xs)) < 2:
        return 0.0
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])


def end_to_end(client, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and notes on how the
    percentiles were taken."""
    ap = client.applies
    epochs = [a for a in ap if a["role"] == "epoch"]
    walls_ms = [a["wall_s"] * 1000 for a in epochs]
    p_tail = tail_percentile(len(walls_ms))
    first = [s for s in client.scans if s["kind"] == "merge_on_read"]
    m = {
        "setup_s": (median(s["total_s"] for s in setups), "s"),
        "apply_events_per_s": (sum(a["events"] for a in ap)
                               / sum(a["wall_s"] for a in ap), "1/s"),
        "epoch_apply_p50_ms": (median(walls_ms), "ms"),
        "epoch_apply_tail_ms": (_pct(walls_ms, p_tail), "ms"),
        "lookup_p50_ms": (_pct(client.lookup_ms, 50), "ms"),
        "lookup_p95_ms": (_pct(client.lookup_ms, 95), "ms"),
        "scan_rows_per_s": (sum(s["rows"] for s in first)
                            / sum(s["wall_s"] for s in first), "1/s"),
        "optimize_s": (median(o["wall_s"] for o in client.optimizes), "s"),
        "stored_bytes_per_live_row": (median(
            s["stored_bytes"] / max(1, s["live_rows"]) for s in client.states), "B"),
        "peak_rss_mb": (max(client.rss), "MB"),
    }
    notes = {
        "epoch_apply_tail_ms": {"percentile": p_tail, "epochs": len(walls_ms),
                                "beyond": int(len(walls_ms) * (100 - p_tail) / 100)},
        "lookup_p95_ms": {"lookups": len(client.lookup_ms)},
        "failed_op_ratio": failed_op_ratio(client),
    }
    return m, notes


def failed_op_ratio(client) -> dict:
    """Failed / attempted operations, with the base count."""
    return {"value": client.failed / max(1, client.attempted), "unit": "ratio",
            "failed": client.failed, "attempted": client.attempted}


def per_layer(client, setups: list[dict], tracer, num_partitions: int,
              apply_events_per_s: float) -> dict:
    """Per-layer metrics of the traced run (name -> (value, unit))."""
    ap = client.applies
    epochs = [a for a in ap if a["role"] == "epoch"]

    def med(key, rows=epochs):
        return median(r[key] for r in rows)

    if client.w.tail_epochs:
        xs = [a["epoch"] for a in epochs]  # position in the lake's lineage
    else:
        xs = list(range(len(epochs)))      # one epoch per lake: run order
    compacted = [s for s in client.scans if s["kind"] == "compacted"]
    skew = [a["max_part_rows"] / (a["exchange_rows"] / num_partitions)
            for a in epochs if a["exchange_rows"]]
    m = {
        "lake.stage1_exchange_s": (med("stage1_s"), "s"),
        "lake.salted_stage1_exchange_s": (med("stage1_s", client.salted), "s"),
        "lake.log_read_s": (med("log_read_s"), "s"),
        "lake.partition_hash_ms": (med("partition_hash_ms"), "ms"),
        "lake.combine_ratio": (sum(a["exchange_rows"] for a in ap)
                               / sum(a["events"] for a in ap), "ratio"),
        "lake.partition_skew": (median(skew) if skew else 0.0, "ratio"),
        "lake.stage2_reduce_s": (med("stage2_s"), "s"),
        "lake.partitions_touched": (med("partitions_touched"), "count"),
        "lake.bytes_written": (med("bytes_written"), "B"),
        "lake.files_per_partition_mean": (med("files_per_partition_mean",
                                              client.states), "count"),
        "lake.files_per_partition_max": (med("files_per_partition_max",
                                             client.states), "count"),
        "manifest.commit_s": (med("commit_s"), "s"),
        "manifest.commit_growth_ms_per_epoch": (
            _slope(xs, [a["commit_s"] * 1000 for a in epochs]), "ms/epoch"),
        "manifest.bytes": (med("manifest_bytes", client.states), "B"),
        "manifest.load_ms": (med("manifest_load_ms"), "ms"),
        "lake.apply_prelude_s": (med("prelude_s"), "s"),
        "lake.lookup_files_pruned_ratio": (
            client.lookup_pruned / max(1, client.lookup_files), "ratio"),
        "lake.compacted_scan_rows_per_s": (sum(s["rows"] for s in compacted)
                                           / sum(s["wall_s"] for s in compacted), "1/s"),
        "lake.optimize_bytes_rewritten": (med("bytes_rewritten", client.optimizes), "B"),
        "ray.init_s": (median(s["ray_init_s"] for s in setups), "s"),
        "ray.warmup_apply_s": (median(s["warmup_apply_s"] for s in setups), "s"),
        "trace.apply_events_per_s": (apply_events_per_s, "1/s"),
        "trace.overhead_s": (tracer.overhead_s, "s"),
    }
    self_s = tracer.self_seconds()
    for name in LAYERS:
        m[f"self_s.{name}"] = (self_s.get(name, 0.0), "s")
    return m


# -- environment --------------------------------------------------------
def nproc() -> int:
    """CPU count as ``nproc`` prints it (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
        return int(out.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git (which
    could find an enclosing repository instead); None outside a git tree."""
    gd = os.path.join(root, ".git")
    try:
        with open(os.path.join(gd, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(gd, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(gd, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_steal_s(cpus: list[int]) -> float:
    """Seconds the hypervisor ran other guests while ``cpus`` wanted to
    run, summed since boot (0 where the kernel does not report it). Its
    change over a run tells a run slowed by neighbours from a slow
    program."""
    names = {f"cpu{c}" for c in cpus}
    total = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] in names:
                    total += int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return total / os.sysconf("SC_CLK_TCK")


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def environment(root: str, lake_root: str) -> dict:
    import pyarrow
    import ray

    return {
        "git_sha": git_sha(root),
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "lake_root": lake_root,
        "lake_fs": fs_type(lake_root),
        "flush_policy": ("manifest commit record and snapshot are fsynced on "
                         "every commit; data files are written without fsync"),
    }
