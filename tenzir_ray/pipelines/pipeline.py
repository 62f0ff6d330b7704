"""Declarative pipeline spec — the TQL analog.

The reference parses `op | op | op` TQL text into a vector of operator
ASTs (libtenzir/src/exec_pipeline.cpp:195, tql::parse) and supports
user-defined named pipelines in config plus textual `apply` includes
(builtins/operators/apply.cpp:106). Here a pipeline is a JSON/YAML-able
list of steps::

    Pipeline([
        {"op": "read_parquet", "paths": ".../lineitem.parquet"},
        {"op": "where", "expr": "l_quantity > 45"},
        {"op": "select", "columns": ["l_orderkey", "l_quantity"]},
        {"op": "summarize", "by": "l_orderkey", "aggs": {"q": "sum(l_quantity)"}},
    ]).run()

Each step maps to a registered operator (OPERATORS); user-defined
operators register via :func:`register` (the plugin-registry analog,
libtenzir/include/tenzir/plugin.hpp). ``Pipeline.from_yaml`` /
``from_json`` load specs from text; named sub-pipelines compose with
{"op": "apply", "pipeline": [...]}.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from typing import Any

OPERATORS: dict[str, Callable] = {}

# operators that CREATE a dataset (take no upstream ds); names outside
# this set receive the threaded dataset as their first argument
SOURCE_OPS: set[str] = set()


def register(name: str, fn: Callable | None = None):
    """Register an operator: ``register("name", fn)`` or decorator."""

    def deco(f):
        OPERATORS[name] = f
        return f

    return deco(fn) if fn is not None else deco


def _register_builtins() -> None:
    from tenzir_ray.sources import readers
    from tenzir_ray.stages import (
        bpe,
        chunk,
        classify,
        cluster,
        dedup,
        dsir,
        graph,
        profile as profile_mod,
        similarity,
        splits,
        summarize,
        text,
        transcripts,
        transforms,
    )
    from tenzir_ray.sources import parsers

    # sources (take no dataset input)
    for n in ("read_parquet", "read_csv", "read_json", "read_lines",
              "read_feather", "read_orc"):
        OPERATORS[n] = getattr(readers, n)
    # transforms
    OPERATORS.update(
        where=transforms.where,
        select=transforms.select,
        drop=transforms.drop,
        rename=transforms.rename,
        set=transforms.set_,
        put=transforms.put,
        extend=transforms.extend,
        replace=transforms.replace,
        flatten=transforms.flatten,
        melt=transforms.melt,
        pivot=transforms.pivot,
        unflatten=transforms.unflatten,
        unroll=transforms.unroll,
        hash=transforms.hash_,
        timeshift=transforms.timeshift,
        parse_json=transforms.parse_json,
        head=transforms.head,
        tail=transforms.tail,
        taste=transforms.taste,
        deduplicate=transforms.deduplicate,
        unique=transforms.unique,
        sort=transforms.sort,
        top=transforms.top,
        rare=transforms.rare,
        summarize=lambda ds, by=None, aggs=None: summarize.summarize(
            ds, by=by, **(aggs or {})
        ),
        time_bucket=summarize.time_bucket,
        summarize_hash=lambda ds, by, buckets=None, aggs=None: summarize.summarize_hash(
            ds, by=by, buckets=buckets, **(aggs or {})
        ),
        lang_id=text.lang_id,
        quality_score=text.quality_score,
        token_count=text.token_count,
        fingerprint=text.fingerprint,
        repetition_score=text.repetition_score,
        gopher_quality=text.gopher_quality,
        bm25_score=text.bm25_score,
        bigram_lm_score=text.bigram_lm_score,
        tfidf_top_terms=text.tfidf_top_terms,
        redact=text.redact,
        strip_html=text.strip_html,
        ngram_counts=text.ngram_counts,
        normalize_unicode=text.normalize_unicode,
        string_distance=text.string_distance,
        exact_dedup=dedup.exact_dedup,
        line_dedup=dedup.line_dedup,
        split_lines=dedup.split_lines,
        duplicate_spans=dedup.duplicate_spans,
        clip_duplicate_spans=dedup.clip_duplicate_spans,
        hash_split=splits.hash_split,
        deterministic_shuffle=splits.deterministic_shuffle,
        render_chat_text=transcripts.render_chat_text,
        fim_transform=text.fim_transform,
        span_corrupt=text.span_corrupt,
        stratified_sample=splits.stratified_sample,
        temperature_sample=splits.temperature_sample,
        unimax_sample=splits.unimax_sample,
        weighted_sample=splits.weighted_sample,
        bpe_word_counts=bpe.word_counts,
        bpe_encode=bpe.bpe_encode_op,
        grouping_sets=summarize.grouping_sets,
        rollup=summarize.rollup,
        cube=summarize.cube,
        nb_classify=classify.nb_train_classify,
        nb_class_counts=classify.nb_class_counts,
        lr_grad_buckets=classify.lr_grad_buckets,
        group_quantiles=summarize.group_quantiles,
        decontaminate=splits.decontaminate,
        chunk_documents=chunk.chunk_documents,
        assemble_conversations=chunk.assemble_conversations,
        pack_sequences=chunk.pack_sequences,
        pack_by_count=chunk.pack_by_count,
        collate_packed=chunk.collate_packed,
        conversation_stats=transcripts.conversation_stats,
        tool_sequences=transcripts.tool_sequences,
        filter_conversations=transcripts.filter_conversations,
        pack_conversations=transcripts.pack_conversations,
        alternation_stats=transcripts.alternation_stats,
        context_windows=transcripts.context_windows,
        sft_pairs=transcripts.sft_pairs,
        render_chat=transcripts.render_chat,
        write_sft_jsonl=transcripts.write_sft_jsonl,
        turn_latency=transcripts.turn_latency,
        truncate_conversations=transcripts.truncate_conversations,
        minhash=dedup.minhash,
        minhash_lsh_dedup=dedup.minhash_lsh_dedup,
        simhash=dedup.simhash,
        lsh_bucket=similarity.lsh_bucket,
        truncate_embeddings=similarity.truncate_embeddings,
        quantize_embeddings=similarity.quantize_embeddings,
        semdedup=cluster.semdedup,
        pagerank=graph.pagerank,
        # global count is a scalar; the pipeline form keeps rows flowing
        triangle_count=lambda ds, src="src", dst="dst", **kw:
            graph.triangle_count(ds, src, dst, per_node=True, **kw),
        profile=profile_mod.profile,
        kmeans_cluster=cluster.kmeans_cluster,
        dsir_weights=dsir.dsir_weights,
        dsir_select=dsir.dsir_select,
        parse_ndjson=parsers.parse_ndjson,
        parse_kv=parsers.parse_kv,
        parse_syslog=parsers.parse_syslog,
        parse_cef=parsers.parse_cef,
        parse_leef=parsers.parse_leef,
        parse_grok=parsers.parse_grok,
        parse_suricata=parsers.parse_suricata,
        parse_zeek_json=parsers.parse_zeek_json,
        parse_yaml=parsers.parse_yaml_docs,
        read_zeek_tsv=parsers.read_zeek_tsv,
    )
    from tenzir_ray.cdc import envelopes as _env
    OPERATORS.update(
        parse_debezium=_env.parse_debezium,
        parse_maxwell=_env.parse_maxwell,
        parse_wal2json=_env.parse_wal2json,
        fold_patches=_env.fold_patches,
    )
    from tenzir_ray.cdc import history as _hist
    OPERATORS.update(
        scd2_history=_hist.scd2_history,
        lsn_gaps=_hist.lsn_gaps,
    )
    from tenzir_ray.stages import analytics as _ana
    OPERATORS.update(
        histogram=_ana.histogram,
        funnel=_ana.funnel,
        retention=_ana.retention,
        standardize=_ana.standardize,
        minmax_scale=_ana.minmax_scale,
    )
    from tenzir_ray.stages import streaming
    OPERATORS.update(
        slice=transforms.slice_,
        reverse=transforms.reverse,
        repeat=transforms.repeat_,
        unroll_indexed=transforms.unroll_indexed,
        enumerate=transforms.enumerate_per_group,
        enumerate_global=transforms.enumerate_global,
        pseudonymize=transforms.pseudonymize,
        parse_time=transforms.parse_time,
        compress=transforms.compress,
        decompress=transforms.decompress,
        shell=transforms.shell_,
        chart=transforms.chart,
        set_attributes=lambda ds, attrs=None, **kw: transforms.set_attributes(
            ds, **{**(attrs or {}), **kw}
        ),
        get_attributes=transforms.get_attributes,
        print_ndjson=transforms.print_ndjson,

        streaming_deduplicate=streaming.streaming_deduplicate,
        adjacent_unique=streaming.adjacent_unique,
        measure=streaming.measure,
        watermark=streaming.watermark,
        watermark_by=streaming.watermark_by,
        watermark_summarize=lambda ds, ts_column, size_s, aggs=None, **kw:
            streaming.watermark_summarize(
                ds, ts_column, size_s, **(aggs or {}), **kw
            ),
        streaming_summarize=lambda ds, by, aggs=None, **kw: streaming.streaming_summarize(
            ds, by, **(aggs or {}), **kw
        ),
        parse_gelf=parsers.parse_gelf,
    )
    from tenzir_ray.sources import writers
    OPERATORS.update(
        write_csv=writers.write_csv,
        write_tsv=writers.write_tsv,
        write_ssv=writers.write_ssv,
        write_json=writers.write_json,
        write_feather=writers.write_feather,
        write_bitz=writers.write_bitz,
        read_bitz=writers.read_bitz,
        write_lines=writers.write_lines,
        write_yaml=writers.write_yaml,
        write_parquet_partitioned=writers.write_parquet_partitioned,
        read_parquet_partitioned=writers.read_parquet_partitioned,
        read_stdin=writers.read_stdin,
    )
    from tenzir_ray import expr as expr_mod
    OPERATORS["where_extractor"] = expr_mod.where_extractor
    from tenzir_ray.sources import host as host_mod
    OPERATORS.update(
        files=host_mod.files,
        processes=host_mod.processes,
        sockets=host_mod.sockets,
    )
    from tenzir_ray.sources import pcap as pcap_mod
    OPERATORS.update(
        read_pcap=pcap_mod.read_pcap,
        read_nic=pcap_mod.read_nic,
        decapsulate=pcap_mod.decapsulate,
    )
    from tenzir_ray.sources import net as net_mod
    OPERATORS.update(
        read_http_json=net_mod.read_http_json,
        write_http=net_mod.write_http,
    )
    from tenzir_ray.sources import remote as remote_mod
    OPERATORS.update(
        read_ftp=remote_mod.read_ftp,
        write_email=remote_mod.write_email,
    )
    from tenzir_ray.sources import velociraptor as velo_mod
    OPERATORS["read_velociraptor"] = velo_mod.read_velociraptor
    SOURCE_OPS.add("read_velociraptor")
    from tenzir_ray.sources import warc as warc_mod
    OPERATORS.update(
        read_warc=warc_mod.read_warc,
        write_warc=warc_mod.write_warc,
    )
    SOURCE_OPS.add("read_warc")
    from tenzir_ray.stages import url as url_mod
    OPERATORS.update(
        parse_url=url_mod.parse_url,
        canonical_url=url_mod.canonical_url,
        url_host=url_mod.url_host,
        url_decode=url_mod.url_decode,
        url_encode=url_mod.url_encode,
    )
    from tenzir_ray.sources import zmtp as zmtp_mod
    OPERATORS.update(
        read_zmq=zmtp_mod.read_zmq_pull,
        write_zmq=zmtp_mod.write_zmq_push,
    )
    SOURCE_OPS.add("read_zmq")
    from tenzir_ray.sources import amqp as amqp_mod
    OPERATORS.update(
        read_amqp=amqp_mod.read_amqp,
        write_amqp=amqp_mod.write_amqp,
    )
    SOURCE_OPS.add("read_amqp")
    from tenzir_ray.sources import fluent as fluent_mod
    OPERATORS.update(read_fluent_forward=fluent_mod.read_fluent_forward)
    SOURCE_OPS.add("read_fluent_forward")

    # lake source/sink (reference export.cpp / import.cpp): `read_lake
    # <root>` streams the live table (filter_expr pushes into the read —
    # see optimize_steps), `write_lake` applies one exactly-once epoch
    def _read_lake(root: str, columns=None, filter_expr: str | None = None,
                   as_of=None):
        from tenzir_ray.cdc import LakeTable

        # LakeTable.read owns the whole filter path: zone-map FILE
        # pruning from manifest stats, the filter and residual mask on
        # each loaded table, and the merge-on-read ordering constraint
        return LakeTable(root).read(columns=columns, as_of=as_of,
                                    filter_expr=filter_expr)

    def _write_lake(ds, root: str, epoch_id: str, **kw):
        from tenzir_ray.cdc import LakeTable

        return LakeTable(root).apply_changes(ds, epoch_id=epoch_id, **kw)

    def _read_lake_changes(root: str, since_lsn: int = 0, epochs=None,
                           with_epoch_id: bool = False):
        from tenzir_ray.cdc import LakeTable

        return LakeTable(root).changes(
            since_lsn=since_lsn, epochs=epochs, with_epoch_id=with_epoch_id)

    def _lake_search(root: str, term: str, column: str = "text",
                     columns=None):
        from tenzir_ray.cdc import LakeTable

        return LakeTable(root).search(term, column=column, columns=columns)

    def _lake_diff(root: str, from_epoch, to_epoch=None):
        from tenzir_ray.cdc import LakeTable
        from tenzir_ray.cdc.history import snapshot_diff

        return snapshot_diff(LakeTable(root), from_epoch, to_epoch)

    def _dedup_against_lake(ds, root: str, column: str = "text",
                            mode: str = "exact", **kw):
        from tenzir_ray.cdc import LakeTable

        return LakeTable(root).dedup_incoming(ds, column=column,
                                              mode=mode, **kw)

    OPERATORS.update(read_lake=_read_lake, write_lake=_write_lake,
                     read_lake_changes=_read_lake_changes,
                     lake_search=_lake_search, lake_diff=_lake_diff,
                     dedup_against_lake=_dedup_against_lake)
    SOURCE_OPS.update(
        n for n in OPERATORS if n.startswith("read_")
    )
    SOURCE_OPS.update({"files", "processes", "sockets", "lake_search",
                       "lake_diff"})
    from tenzir_ray.stages import window as window_mod
    OPERATORS.update(
        sliding_window=window_mod.sliding_window,
        session_window=window_mod.session_window,
        window_shift=window_mod.window_shift,
        window_cum=window_mod.window_cum,
        window_rank=window_mod.window_rank,
        window_ntile=window_mod.window_ntile,
        window_percent=window_mod.window_percent,
        window_value=window_mod.window_value,
        window_frame=window_mod.window_frame,
        window_range=window_mod.window_range,
        resample=window_mod.resample,
    )
    from tenzir_ray.stages import join as join_mod
    OPERATORS["yield"] = transforms.yield_
    # trivial ops (pass/discard, reference pass.cpp/discard.cpp)
    OPERATORS["pass"] = lambda ds: ds
    # scheduling hints (reference local.cpp/remote.cpp/unordered.cpp):
    # placement and ordering are Ray's scheduler's job here, so these
    # accept-and-ignore — kept so reference pipelines parse unchanged
    OPERATORS["unordered"] = lambda ds: ds
    OPERATORS["local"] = lambda ds: ds
    OPERATORS["remote"] = lambda ds: ds
    OPERATORS["limit"] = lambda ds, n: ds.limit(n)
    OPERATORS["repartition"] = lambda ds, n, shuffle=False: ds.repartition(
        n, shuffle=shuffle
    )
    OPERATORS["write_parquet"] = lambda ds, path, **kw: ds.write_parquet(path, **kw)
    from tenzir_ray.stages import sigma as sigma_mod
    from tenzir_ray.stages import yara as yara_mod

    OPERATORS.update(sigma=sigma_mod.sigma, yara=yara_mod.yara_)

    # named contexts (reference plugins/context: `context create NAME
    # TYPE` consumes the piped events as the context data and the
    # stream ends there, a context SINK; `enrich NAME` is the read side)
    from tenzir_ray.state import context as ctx_mod

    def _context_create(ds, name, kind, key=None, **kw):
        # materialize ONCE: building the context consumes the stream;
        # returning the lazy ds would re-execute the whole upstream for
        # any downstream consumer (the count() that runs the sink)
        mat = ds.materialize()
        ctx_mod.create_context(name, kind, ds=mat, key=key, **kw)
        return mat

    def _context_update(ds, name, key=None):
        mat = ds.materialize()
        ctx_mod.update_context(name, ds=mat, key=key)
        return mat

    OPERATORS.update(
        context_create=_context_create,
        context_update=_context_update,
        context_delete=lambda ds, name: (ctx_mod.delete_context(name), ds)[1],
        enrich=ctx_mod.enrich_named,
    )


def _named_contexts() -> dict:
    from tenzir_ray.state.context import list_contexts

    return list_contexts()


def show(aspect: str | None = None):
    """Introspection (reference builtins/operators/show.cpp + aspect
    plugins): ``show("operators")`` lists the registry,
    ``show("version")``, ``show("aggregations")`` the aggregate
    functions, ``show()`` every aspect as a dict."""
    if not OPERATORS:
        _register_builtins()
    import tenzir_ray
    from tenzir_ray.stages.summarize import _PARTIAL_FNS

    aspects = {
        "operators": sorted(OPERATORS),
        "version": getattr(tenzir_ray, "__version__", "0"),
        "aggregations": sorted(
            _PARTIAL_FNS
            | {"count_distinct", "approx_count_distinct", "distinct",
               "collect", "sample", "median", "quantile", "stddev_samp"}
        ),
        "contexts": ["lookup-table", "bloom-filter", "subnet-table", "geo-table"],
        "named_contexts": _named_contexts(),
        "pipelines": sorted(NAMED_PIPELINES),
        "formats": sorted(
            n.removeprefix("parse_") for n in OPERATORS if n.startswith("parse_")
        ),
        "sinks": sorted(n for n in OPERATORS if n.startswith("write_")),
    }
    if aspect is None:
        return aspects
    if aspect not in aspects:
        raise ValueError(f"unknown aspect {aspect!r} (have {sorted(aspects)})")
    return aspects[aspect]


#: user-defined named pipelines (the reference's config-defined
#: operators: `tenzir.operators:` in tenzir.yaml, applied by name —
#: builtins/operators/apply.cpp:106). Values may be a step list, a
#: Pipeline, or a TQL string.
NAMED_PIPELINES: dict[str, Any] = {}


def define(name: str, pipeline) -> None:
    """Register a named pipeline: step list, Pipeline, or TQL string."""
    NAMED_PIPELINES[name] = pipeline


def resolve_named(name: str) -> "Pipeline":
    spec = NAMED_PIPELINES.get(name)
    if spec is None:
        raise ValueError(
            f"unknown named pipeline {name!r} "
            f"(have {sorted(NAMED_PIPELINES)}; register with define() or "
            "load_named_pipelines())"
        )
    if isinstance(spec, Pipeline):
        return spec
    if isinstance(spec, str):
        from tenzir_ray.pipelines.tql import parse_pipeline

        return parse_pipeline(spec)
    return Pipeline(spec)


def load_named_pipelines(path: str) -> list[str]:
    """Load named pipelines from a YAML file (or every ``*.yaml`` in a
    directory): a mapping of name → TQL string or step list — the
    `tenzir.operators` config section analog. Returns loaded names."""
    import glob
    import os

    import yaml

    files = (sorted(glob.glob(os.path.join(path, "*.yaml")))
             if os.path.isdir(path) else [path])
    loaded: list[str] = []
    for f in files:
        with open(f) as fh:
            doc = yaml.safe_load(fh) or {}
        if not isinstance(doc, dict):
            raise ValueError(f"{f}: expected a name -> pipeline mapping")
        for name, spec in doc.items():
            define(str(name), spec)
            loaded.append(str(name))
    return loaded


def optimize_steps(steps: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The reference's right-to-left ``optimize(filter, order)`` pass
    (libtenzir/include/tenzir/pipeline.hpp:252-321: operators pull
    filters/projections backwards into their upstream) as a peephole
    over the step list:

    - adjacent ``where`` steps merge into one conjunction;
    - a ``where`` directly after ``read_parquet`` fuses into the read's
      ``filter_expr`` (row-group pruning) — unless the filter needs a
      residual kernel (e.g. subnet membership) AND the read is
      column-pruned (the residual might reference a pruned column);
    - a ``select`` directly after ``read_parquet`` fuses into the
      read's ``columns=`` projection when the read's existing filter is
      fully pushdown-able (a residual may reference non-projected
      columns, so it blocks projection fusion).

    Results are identical by construction — only WHERE the work happens
    moves (into the parquet scan).
    """

    def _residual_free(expr: str) -> bool:
        from tenzir_ray.expr import compile_filter

        try:
            return compile_filter(expr).residual is None
        except Exception:
            return False

    def _fusable(expr: str) -> bool:
        from tenzir_ray.expr import compile_filter

        try:
            compile_filter(expr)
            return True
        except Exception:
            return False

    out: list[dict[str, Any]] = []
    for step in steps:
        s = dict(step)
        name = s.get("op")
        prev = out[-1] if out else None
        if name == "where" and prev is not None:
            if prev.get("op") == "where":
                prev["expr"] = f"({prev['expr']}) and ({s['expr']})"
                continue
            if prev.get("op") in ("read_parquet", "read_lake") and _fusable(s["expr"]):
                if prev.get("columns") is None or _residual_free(s["expr"]):
                    fe = prev.get("filter_expr")
                    prev["filter_expr"] = (
                        f"({fe}) and ({s['expr']})" if fe else s["expr"]
                    )
                    continue
        if (
            name == "select"
            and prev is not None
            and prev.get("op") in ("read_parquet", "read_lake")
            and prev.get("columns") is None
            and (
                prev.get("filter_expr") is None
                or _residual_free(prev["filter_expr"])
            )
        ):
            prev["columns"] = list(s["columns"])
            continue
        out.append(s)
    return out


def _expr_refs(expr_text: str) -> set[str]:
    """Root identifiers an expression references (conservative: function
    names count too — a false positive only costs the fast path)."""
    import ast as _ast

    from tenzir_ray.expr import _preprocess

    tree = _ast.parse(_preprocess(expr_text), mode="eval")
    return {n.id for n in _ast.walk(tree)
            if isinstance(n, _ast.Name) and not n.id.startswith("__")}


def _collect_assigns(steps: list[dict]) -> dict[str, str] | None:
    """``set``-only branch body → {target: expr}; None when any step is
    another operator OR a target repeats (sequential re-assignment can't
    be expressed as one parallel CASE)."""
    assigns: dict[str, str] = {}
    for sub in steps:
        if sub.get("op") != "set":
            return None
        for k, v in sub.items():
            if k == "op":
                continue
            if k in assigns:
                return None  # a = a+1; a = a+1 needs sequential order
            assigns[k] = v
    return assigns


def _vectorized_if_fn(step: dict):
    """Compile an ``if`` step whose branches — recursively through
    else-if chains (so desugared ``match`` statements qualify) —
    contain ONLY ``set`` assignments into one per-batch CASE kernel.
    Semantics match the split+sub-pipeline fallback exactly:

    - each branch's expressions evaluate on that branch's ROW SLICE
      (the predicate guards them — ``if d != 0 { r = n / d }`` never
      divides by zero on else rows), then scatter back with
      ``pc.replace_with_mask``;
    - the fast path BAILS (returns None) when a branch re-assigns a
      target or any expression references a column assigned anywhere in
      the chain — those depend on sequential evaluation order, which
      only the fallback provides;
    - pass-through rows keep their value (new columns null elsewhere);
      value types unify through the registry widening lattice,
      incompatible pairs raise naming the column.

    Single-pass and order-preserving, unlike the split+union fallback."""
    branches: list[tuple[str | None, dict[str, str]]] = []
    cur = step
    while True:
        assigns = _collect_assigns(cur["then"])
        if assigns is None:
            return None
        branches.append((cur["expr"], assigns))
        els = cur.get("else")
        if not els:
            break
        if len(els) == 1 and els[0].get("op") == "if":
            cur = els[0]
            continue
        assigns = _collect_assigns(els)
        if assigns is None:
            return None
        branches.append((None, assigns))
        break

    targets = {c for _, a in branches for c in a}
    for _, a in branches:
        for e in a.values():
            if _expr_refs(e) & targets:
                return None  # cross-assignment dependency → sequential

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from tenzir_ray.cdc.registry import widen
    from tenzir_ray.expr import compile_expr, compile_filter
    from tenzir_ray.stages.transforms import _eval_on_batch

    preds = [compile_filter(p) if p is not None else None
             for p, _ in branches]
    exprs = [{c: compile_expr(e) for c, e in a.items()} for _, a in branches]
    if "this" in targets or any("." in t for t in targets) or any(
        getattr(v, "_tz_batch_expr", False)
        for a in exprs for v in a.values()
    ):
        # record/lambda values (struct columns, list rebuilds),
        # whole-event replacement, and nested-path targets (rec.x =
        # struct rebuild, not a flat column) don't fit
        # replace_with_mask — take the sequential sub-pipeline fallback
        return None
    cols = sorted(targets)

    def _as_col(val, n):
        # compile_expr returns plain literals for constant expressions
        # (same contract transforms.set_ relies on) — broadcast those.
        # The type comes from a ONE-element probe, never from the
        # broadcast length: pa.array([] ) would infer null type on an
        # empty slice, and null-typed inputs ABORT (not raise) inside
        # Arrow's replace_with_mask.
        if isinstance(val, pa.ChunkedArray):
            return val.combine_chunks()
        if isinstance(val, pa.Array):
            return val
        return pa.array([val] * n, type=pa.array([val]).type)

    def _widen_to(val, out, col):
        try:
            wt = widen(val.type, out.type)
        except TypeError:
            raise TypeError(
                f"if: column {col!r} gets incompatible types across "
                f"branches ({val.type} vs {out.type})") from None
        return val.cast(wt), out.cast(wt)

    def f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        remaining = np.ones(n, dtype=bool)
        eff = []
        for p in preds:
            if p is None:
                eff.append(remaining.copy())
                remaining = np.zeros(n, dtype=bool)
            else:
                m = p.mask(t) & remaining
                eff.append(m)
                remaining = remaining & ~m
        # empty slices still evaluate (cost: nothing) so every batch
        # sees every branch's VALUE TYPE — a new column's type cannot
        # flip-flop with which branches happen to match a batch
        slices = [t.filter(pa.array(em)) for em in eff]
        for c in cols:
            out = t.column(c).combine_chunks() if c in t.column_names else None
            for bi, em in enumerate(eff):
                e = exprs[bi].get(c)
                if e is None:
                    continue
                # evaluate on the branch SLICE: the predicate guards the
                # expression, exactly like the sub-pipeline fallback
                val = _as_col(_eval_on_batch(e, slices[bi]),
                              slices[bi].num_rows)
                m_arr = pa.array(em)
                if out is None:
                    out = pc.replace_with_mask(
                        pa.nulls(n, val.type), m_arr, val)
                else:
                    if not val.type.equals(out.type):
                        val, out = _widen_to(val, out, c)
                    out = pc.replace_with_mask(out, m_arr, val)
            if c in t.column_names:
                t = t.set_column(t.schema.get_field_index(c), c, out)
            else:
                t = t.append_column(c, out)
        return t

    return f


def _tag_rows(ds) -> "tuple[Any, str]":
    """Tag a MATERIALIZED dataset's rows with their global position
    (block-offset prefix sums + per-block arange — two rounds of tiny
    tasks over the existing blocks, no shuffle). The tag lets the `if`
    fallback's union restore input order afterwards. The tag name is
    unique per conditional so nested fallback ``if``s don't collide."""
    import uuid as _uuid

    import numpy as np
    import pyarrow as pa_mod
    import ray as ray_core
    import ray.data as rd

    tag = f"__tz_if_tag_{_uuid.uuid4().hex[:6]}"
    refs = ds.to_arrow_refs()

    @ray_core.remote
    def _nrows(t) -> int:
        return t.num_rows

    counts = ray_core.get([_nrows.remote(r) for r in refs])
    offsets = np.cumsum([0] + counts)

    @ray_core.remote
    def _tag(t, off: int):
        return t.append_column(
            tag, pa_mod.array(np.arange(off, off + t.num_rows),
                              pa_mod.int64()))

    return rd.from_arrow_refs(
        [_tag.remote(r, int(o)) for r, o in zip(refs, offsets)]), tag


def _union_by_tag(then_ds, else_ds, tag: str):
    """Union the two branch outputs; when BOTH still carry the row tag
    (row-wise branches), range-sort by it to restore input order and
    strip it — otherwise (a branch aggregated or projected the tag away)
    strip where present and keep the classic unordered union."""
    def _has_tag(d) -> bool:
        s = d.schema()
        return s is not None and tag in s.names

    def _strip(d):
        return d.drop_columns([tag]) if _has_tag(d) else d

    if _has_tag(then_ds) and _has_tag(else_ds):
        return then_ds.union(else_ds).sort(tag).drop_columns([tag])
    return _strip(then_ds).union(_strip(else_ds))


class Pipeline:
    """An ordered list of operator steps over a ray.data.Dataset."""

    def __init__(self, steps: list[dict[str, Any]]):
        if not OPERATORS:
            _register_builtins()
        self.steps = steps

    @classmethod
    def from_json(cls, text: str) -> "Pipeline":
        return cls(json.loads(text))

    @classmethod
    def from_yaml(cls, text: str) -> "Pipeline":
        import yaml

        return cls(yaml.safe_load(text))

    def explain(self) -> "tuple[list[dict], list[dict]]":
        """(parsed steps, optimized steps) — the reference's AST/plan
        introspection (`show pipelines` / exec --dump): see exactly what
        the pushdown optimizer fused (where→scan filter, select→scan
        projection, head→limit) before paying to execute it."""
        return self.steps, optimize_steps(list(self.steps))

    def run(self, ds=None, optimize: bool = True):
        """Execute the steps; source steps ignore ``ds``, every other step
        threads the Dataset through (the generator-chain analog,
        pipeline.hpp:242). Two-input operators (hash_join/asof_join/range_join) take
        their right side as a nested ``right: [steps...]`` sub-pipeline.
        ``optimize=True`` (default) runs :func:`optimize_steps` first —
        filters/projections fuse into adjacent parquet reads."""
        steps = optimize_steps(self.steps) if optimize else self.steps
        for step in steps:
            step = dict(step)
            name = step.pop("op")
            if name == "apply":
                if "name" in step:  # named pipeline (apply.cpp:106 —
                    # user-defined operators resolved from config)
                    ds = resolve_named(step["name"]).run(
                        ds, optimize=optimize)
                else:
                    ds = Pipeline(step["pipeline"]).run(ds, optimize=optimize)
                continue
            if name == "if":
                # TQL2 conditional (tql2/parser.cpp parse_if_stmt):
                # events route by the predicate — SQL-null counts as
                # false, so the complement MASK (not `where not pred`)
                # sends null rows to the else branch. Assignment-only
                # branches (incl. nested else-if / desugared match)
                # compile to ONE vectorized CASE kernel: single pass,
                # order-preserving, no materialization. General
                # branches split + run sub-pipelines + union; rows are
                # tagged with their input position first, so when both
                # branch outputs still carry the tag (row-wise branches:
                # filters/sets/renames) the union re-sorts into INPUT
                # order — a branch that aggregates or projects the tag
                # away degrades to the unordered union (order after an
                # aggregate is meaningless anyway).
                import pyarrow as pa_mod

                from tenzir_ray.expr import compile_filter

                if ds is None:
                    raise ValueError("`if` needs an upstream dataset")
                fn = _vectorized_if_fn(step)
                if fn is not None:
                    ds = ds.map_batches(fn, batch_format="pyarrow")
                    continue
                # both branch pipelines consume ds: materialize once so
                # the upstream lineage (reads, transforms) does not
                # execute twice per conditional level
                ds, row_tag = _tag_rows(ds.materialize())
                compiled = compile_filter(step["expr"])

                def _take(match: bool, _c=compiled):
                    def f(t):
                        m = _c.mask(t)
                        return t.filter(pa_mod.array(m if match else ~m))

                    return f

                then_ds = Pipeline(step["then"]).run(
                    ds.map_batches(_take(True), batch_format="pyarrow"),
                    optimize=optimize)
                else_ds = ds.map_batches(_take(False), batch_format="pyarrow")
                if step.get("else"):
                    else_ds = Pipeline(step["else"]).run(
                        else_ds, optimize=optimize)
                ds = _union_by_tag(then_ds, else_ds, row_tag)
                continue
            if name in ("hash_join", "asof_join", "range_join",
                        "range_join_partitioned", "skew_join", "ann_topk",
                        "fuzzy_decontaminate", "intersect", "except",
                        "cross_join", "union_by_name"):
                right = Pipeline(step.pop("right")).run()
                if right is None:
                    raise ValueError(
                        f"{name}: `right` sub-pipeline produced no dataset "
                        "(it must start with a read_* source step)"
                    )
                if name == "ann_topk":
                    import ray.data as _rd

                    from tenzir_ray.stages.similarity import ann_topk

                    ds = _rd.from_arrow(ann_topk(ds, right, **step))
                    continue
                if name == "fuzzy_decontaminate":
                    from tenzir_ray.stages.dedup import fuzzy_decontaminate

                    ds = fuzzy_decontaminate(ds, right, **step)
                    continue
                if name in ("intersect", "except"):
                    from tenzir_ray.stages import setops

                    fn2 = (setops.intersect if name == "intersect"
                           else setops.except_)
                    ds = fn2(ds, right, **step)
                    continue
                if name == "union_by_name":
                    from tenzir_ray.stages.transforms import union_by_name

                    ds = union_by_name(ds, right, **step)
                    continue
                from tenzir_ray.stages import join as join_mod

                fn2 = getattr(join_mod, name)
                ds = fn2(ds, right, **step)
                continue
            fn = OPERATORS.get(name)
            if fn is None:
                raise ValueError(f"unknown operator {name!r}")
            if name in SOURCE_OPS or name.startswith("read_"):
                ds = fn(**step)
            else:
                ds = fn(ds, **step)
        return ds
