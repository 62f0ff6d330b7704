"""Naive single-threaded CDC applier — the correctness oracle (FIXTURES.md §4).

Replays a change log row-by-row in ``lsn`` order into a plain Python dict.
Deliberately simple and obviously correct; the distributed engine
(tenzir_ray.cdc.apply) must produce an identical final table under stable
``(conv_id, turn_idx)`` ordering.

Semantics (shared contract with the engine):
- apply order is decided by ``lsn``, never arrival order;
- last writer wins per key ``(conv_id, turn_idx)``; ``delete`` removes the
  key (a later-lsn insert/update may resurrect it); any op other than
  ``insert``/``update``/``delete`` raises ``ValueError``;
- payload columns = everything except ``lsn``/``op`` (schema evolution:
  whatever payload columns the log carries).
"""

from __future__ import annotations

import pyarrow as pa

META_COLS = ("lsn", "op")


def naive_apply(changes: pa.Table, base: pa.Table | None = None) -> pa.Table:
    """Replay ``changes`` (optionally onto ``base``) → final table.

    Returns the final state sorted by (conv_id, turn_idx) with payload
    columns only (no lsn/op).
    """
    payload_cols = [c for c in changes.column_names if c not in META_COLS]
    state: dict[tuple, dict] = {}
    if base is not None:
        for row in base.to_pylist():
            state[(row["conv_id"], row["turn_idx"])] = row

    rows = changes.to_pylist()
    rows.sort(key=lambda r: r["lsn"])
    for row in rows:
        key = (row["conv_id"], row["turn_idx"])
        if row["op"] == "delete":
            state.pop(key, None)
        elif row["op"] in ("insert", "update"):
            state[key] = {c: row[c] for c in payload_cols}
        else:
            raise ValueError(f"unknown op {row['op']!r} at lsn {row['lsn']}")

    out_rows = [state[k] for k in sorted(state.keys())]
    if not out_rows:
        return changes.select(payload_cols).slice(0, 0)
    # column order: payload order of the log; base-only columns appended
    schema = pa.schema([changes.schema.field(c) for c in payload_cols])
    return pa.Table.from_pylist(out_rows, schema=schema)
