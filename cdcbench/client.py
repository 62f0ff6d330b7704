"""The closed-loop client: one driver thread that calls the lake's public
API one call at a time, times every call, and checks every result against
the ``naive_apply`` oracle.

A *cycle* opens a fresh lake, applies the workload's epochs, then runs
consuming ``read()`` scans, ``optimize()`` and scans of the compacted lake.
The first cycle also looks up a seeded batch of conversations after each
epoch past the base, so every run makes the same number of lookups, and
compacts extra hard-link clones of the lake, for more optimize samples.
"""

from __future__ import annotations

import os
import shutil
import time

import pyarrow as pa

from loadgen import Inputs, Workload

#: scans of each lake state per cycle; the scans only read, so repeating
#: them adds samples without changing what is measured
SCANS_PER_STATE = 2
#: optimize() samples in the first cycle: the pre-compaction lake is cloned
#: (hard links) and each copy is compacted, so a run with one long cycle
#: still has several samples
FIRST_CYCLE_OPTIMIZES = 3
#: salts of the traced run's salted-exchange probe (an operator's setting
#: for a hot table)
PROBE_SALTS = 8


def same_table(actual: pa.Table, expected: pa.Table) -> bool:
    """The correctness gate: equal schema, row order and every value."""
    if actual.column_names != expected.column_names:
        return False
    return actual.equals(expected)


def rss_mb() -> float:
    """Summed RSS of this driver and every process under it (the Ray
    runtime and its workers)."""
    import psutil  # ships with Ray

    me = psutil.Process()
    total = 0
    for p in [me, *me.children(recursive=True)]:
        try:
            total += p.memory_info().rss
        except psutil.Error:
            continue  # exited between listing and sampling
    return total / 2**20


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


class Client:
    def __init__(self, w: Workload, inputs: Inputs, lake_root: str,
                 num_partitions: int, tracer, trace: bool):
        self.w = w
        self.inputs = inputs
        self.lake_root = lake_root
        self.num_partitions = num_partitions
        self.tracer = tracer
        self.trace = trace
        self.applies: list[dict] = []
        self.lookup_ms: list[float] = []
        self.lookup_files = 0
        self.lookup_pruned = 0
        self.scans: list[dict] = []
        self.optimizes: list[dict] = []
        self.salted: list[dict] = []
        self.states: list[dict] = []
        self.rss: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cycles = 0

    # -- bookkeeping ----------------------------------------------------
    def _op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def _sample_rss(self) -> None:
        self.rss.append(rss_mb())

    # -- one cycle --------------------------------------------------------
    def cycle(self) -> None:
        from tenzir_ray.cdc.lake import LakeTable

        c = self.cycles
        self.cycles += 1
        root = os.path.join(self.lake_root, f"cycle-{c:03d}")
        tr = self.tracer
        with tr.span("bench.cycle", cycle=c):
            with tr.span("cdc.lake.open"):
                lake = LakeTable(root, num_partitions=self.num_partitions)
            ok = True
            for j, src in enumerate(self.inputs.epoch_dirs):
                ok = self._apply(lake, c, j, src)
                if not ok:
                    break
                if c == 0 and self.inputs.lookup_convs[j]:
                    self._lookups(lake, j)
            if ok:
                self._state(lake, c)
                with tr.span("cdc.lake.final_table"):
                    final = lake.final_table()
                with tr.span("oracle.check"):
                    good = same_table(final, self.inputs.oracle)
                if not good:
                    # the last apply produced the wrong table
                    self.failed += 1
                    self.failures.append(f"cycle {c}: final_table != oracle")
                for _ in range(SCANS_PER_STATE):
                    self._scan(lake, c, "merge_on_read")
                copies = [lake.clone(f"{root}-copy{k}")
                          for k in range(1, FIRST_CYCLE_OPTIMIZES if c == 0 else 1)]
                self._optimize(lake, c)
                for _ in range(SCANS_PER_STATE):
                    self._scan(lake, c, "compacted")
                for copy in copies:
                    self._optimize(copy, c)
                    shutil.rmtree(copy.root, ignore_errors=True)
            if self.trace:
                self._salted_probe(c)
            self._sample_rss()
            shutil.rmtree(root, ignore_errors=True)

    def _apply(self, lake, c: int, j: int, src: str) -> bool:
        import ray.data

        tr = self.tracer
        events = self.inputs.epoch_events[j]
        try:
            with tr.span("cdc.lake.apply", epoch=j) as sp:
                t0 = time.perf_counter()
                res = lake.apply_changes(ray.data.read_parquet(src),
                                         epoch_id=f"epoch-{j:03d}")
                wall = time.perf_counter() - t0
                s1, s2, cm = self._stage_spans(sp, t0 + wall, res["timings"])
        except Exception as e:  # noqa: BLE001 - a raising op is a failed op
            return self._op(False, f"cycle {c} apply {j}: {type(e).__name__}: {e}")
        rec = lake.manifest.epochs[-1]
        ex = (rec.get("meta") or {}).get("_exchange", {})
        written = sum(
            os.path.getsize(os.path.join(lake.root, p["new_file"]))
            for p in rec["partitions"].values() if p.get("new_file"))
        sample = {
            "cycle": c, "epoch": j,
            "role": "base" if self.w.tail_epochs and j == 0 else "epoch",
            "events": events, "wall_s": wall,
            "stage1_s": s1, "stage2_s": s2, "commit_s": cm,
            "prelude_s": max(0.0, wall - s1 - s2 - cm),
            "exchange_rows": int(ex.get("rows", 0)),
            "max_part_rows": int(ex.get("max_part_rows", 0)),
            "partitions_touched": int(res.get("partitions_touched", 0)),
            "bytes_written": written,
        }
        if self.trace:
            sample.update(self._layer_probes(lake, j))
        self.applies.append(sample)
        self._sample_rss()
        return self._op(not res.get("skipped")
                        and res.get("lsn_max", -1) >= res.get("lsn_min", 0),
                        f"cycle {c} apply {j}: {res}")

    def _stage_spans(self, sp: dict, end: float, t: dict) -> tuple:
        """Child spans of an apply from the stage timings it returned. The
        stages run back to back at the end of the call."""
        s1, s2, cm = t["stage1_exchange_s"], t["stage2_reduce_s"], t["commit_s"]
        tr = self.tracer
        tr.derived(sp, "cdc.lake.stage1", end - cm - s2 - s1, end - cm - s2)
        tr.derived(sp, "cdc.lake.stage2", end - cm - s2, end - cm)
        tr.derived(sp, "cdc.manifest.commit", end - cm, end)
        return s1, s2, cm

    def _layer_probes(self, lake, j: int) -> dict:
        """Traced run only: single-layer calls made beside each apply."""
        import ray.data
        from tenzir_ray.cdc.lake import stable_part_of_uniques
        from tenzir_ray.cdc.manifest import Manifest

        tr = self.tracer
        with tr.span("cdc.manifest.load"):
            t0 = time.perf_counter()
            Manifest.load(lake.root)
            load_ms = (time.perf_counter() - t0) * 1000
        # the apply's own input, read and materialized with no engine work
        with tr.span("ray.data.read"):
            t0 = time.perf_counter()
            ds = ray.data.read_parquet(self.inputs.epoch_dirs[j]).materialize()
            read_s = time.perf_counter() - t0
        del ds
        uniq = self.inputs.epoch_convs[j]
        with tr.span("cdc.lake.partition_hash"):
            t0 = time.perf_counter()
            stable_part_of_uniques(uniq, self.num_partitions)
            hash_ms = (time.perf_counter() - t0) * 1000
        return {"manifest_load_ms": load_ms, "log_read_s": read_s,
                "partition_hash_ms": hash_ms}

    def _salted_probe(self, c: int) -> None:
        """Traced run only: the last epoch applied again into a fresh lake
        with ``num_salts=PROBE_SALTS``, which adds the salted stage-1.5
        pre-reduce (the second exchange layout) to stage 1."""
        import ray.data
        from tenzir_ray.cdc.lake import LakeTable

        root = os.path.join(self.lake_root, f"salted-{c:03d}")
        tr = self.tracer
        try:
            lake = LakeTable(root, num_partitions=self.num_partitions)
            with tr.span("cdc.lake.apply_salted") as sp:
                t0 = time.perf_counter()
                res = lake.apply_changes(
                    ray.data.read_parquet(self.inputs.epoch_dirs[-1]),
                    epoch_id="salted", num_salts=PROBE_SALTS)
                wall = time.perf_counter() - t0
                s1, _, _ = self._stage_spans(sp, t0 + wall, res["timings"])
            final = lake.final_table()
        except Exception as e:  # noqa: BLE001
            self._op(False, f"cycle {c} salted apply: {type(e).__name__}: {e}")
            return
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.salted.append({"cycle": c, "wall_s": wall, "stage1_s": s1})
        with tr.span("oracle.check"):
            ok = same_table(final, self.inputs.last_epoch_oracle)
        self._op(ok, f"cycle {c} salted apply: final_table != oracle")

    def _lookups(self, lake, j: int) -> None:
        from tenzir_ray.cdc.lake import stable_part_of_uniques

        tr = self.tracer
        convs = self.inputs.lookup_convs[j]
        expected = self.inputs.lookup_expected[j]
        parts = stable_part_of_uniques(convs, self.num_partitions)
        empty = self.inputs.oracle.slice(0, 0)
        for conv, part in zip(convs, parts):
            info = lake.manifest.partitions.get(str(int(part)))
            try:
                with tr.span("cdc.lake.lookup"):
                    t0 = time.perf_counter()
                    got = lake.lookup(conv)
                    ms = (time.perf_counter() - t0) * 1000
            except Exception as e:  # noqa: BLE001
                self._op(False, f"lookup {conv}: {type(e).__name__}: {e}")
                continue
            self.lookup_ms.append(ms)
            self.lookup_files += len(info["files"]) if info else 0
            self.lookup_pruned += lake._last_lookup_pruned
            with tr.span("oracle.check"):
                ok = same_table(got, expected.get(conv, empty))
            self._op(ok, f"epoch {j} lookup {conv}: {got.num_rows} rows")
        self._sample_rss()

    def _scan(self, lake, c: int, kind: str) -> None:
        tr = self.tracer
        try:
            with tr.span("cdc.lake.scan", kind=kind):
                t0 = time.perf_counter()
                rows = sum(b.num_rows for b in lake.read().iter_batches(
                    batch_format="pyarrow", batch_size=None))
                wall = time.perf_counter() - t0
        except Exception as e:  # noqa: BLE001
            self._op(False, f"cycle {c} scan {kind}: {type(e).__name__}: {e}")
            return
        self.scans.append({"cycle": c, "kind": kind, "rows": rows, "wall_s": wall})
        self._sample_rss()
        self._op(rows == self.inputs.oracle.num_rows,
                 f"cycle {c} scan {kind}: {rows} rows != {self.inputs.oracle.num_rows}")

    def _optimize(self, lake, c: int) -> None:
        tr = self.tracer
        try:
            with tr.span("cdc.lake.optimize"):
                t0 = time.perf_counter()
                lake.optimize()
                wall = time.perf_counter() - t0
            with tr.span("cdc.lake.final_table"):
                final = lake.final_table()
        except Exception as e:  # noqa: BLE001
            self._op(False, f"cycle {c} optimize: {type(e).__name__}: {e}")
            return
        rewritten = sum(os.path.getsize(f) for f in lake.manifest.live_files())
        self.optimizes.append({"cycle": c, "wall_s": wall, "bytes_rewritten": rewritten})
        self._sample_rss()
        with tr.span("oracle.check"):
            ok = same_table(final, self.inputs.oracle)
        self._op(ok, f"cycle {c} optimize: final_table != oracle")

    def _state(self, lake, c: int) -> None:
        """Storage state after the last epoch, before compaction."""
        from tenzir_ray.cdc.manifest import MANIFEST_NAME

        files = [len(i["files"]) for i in lake.manifest.partitions.values()]
        live = sum(os.path.getsize(f) for f in lake.manifest.live_files())
        manifest_bytes = os.path.getsize(os.path.join(lake.root, MANIFEST_NAME))
        log_bytes = _dir_bytes(lake.manifest.log_dir)
        self.states.append({
            "cycle": c,
            "files_per_partition_mean": sum(files) / max(1, len(files)),
            "files_per_partition_max": max(files, default=0),
            "manifest_bytes": manifest_bytes,
            "stored_bytes": live + manifest_bytes + log_bytes,
            "live_rows": self.inputs.oracle.num_rows,
        })
