//! The metric catalog: every end-to-end and per-layer metric the
//! benchmark emits, with its unit and direction. `BENCHMARK.json` lists
//! the same names; `tests` in `main.rs` keeps the two in step.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Gated end-to-end metrics: every workload produces each of them.
pub const END_TO_END: &[MetricDef] = &[
    m("query_p50_ms", "ms", "lower"),
    m("query_tail_ms", "ms", "lower"),
    m("queries_per_s", "1/s", "higher"),
    m("import_rows_per_s", "1/s", "higher"),
    m("stored_bytes_per_input_byte", "ratio", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0 — the "expect no change" pairings read as zero activity.
pub const PER_LAYER: &[MetricDef] = &[
    m("plan.optimize_ns", "ns", "lower"),
    m("plan.lower_ns", "ns", "lower"),
    m("exec.drain_ns", "ns", "lower"),
    m("exec.rows_per_s", "1/s", "higher"),
    m("exec.parallel_speedup", "ratio", "higher"),
    m("exec.morsels_stolen_frac", "ratio", "lower"),
    m("encodings.decode_melem_s.dict", "Melem/s", "higher"),
    m("encodings.decode_melem_s.for", "Melem/s", "higher"),
    m("encodings.decode_melem_s.rle", "Melem/s", "higher"),
    m("encodings.decode_melem_s.affine", "Melem/s", "higher"),
    m("encodings.decode_melem_s.delta", "Melem/s", "higher"),
    m("encodings.decode_melem_s.raw", "Melem/s", "higher"),
    m("encodings.kernel_skip_frac", "ratio", "higher"),
    m("pager.open_ns", "ns", "lower"),
    m("pager.hit_rate", "ratio", "higher"),
    m("pager.lookups_per_query", "count", "lower"),
    m("pager.evictions_per_query", "count", "lower"),
    m("pager.bytes_read_per_query", "B", "lower"),
    m("pager.segment_load_p50_ns", "ns", "lower"),
    m("pager.resident_over_budget_ratio", "ratio", "lower"),
    m("io.save_ns", "ns", "lower"),
    m("io.read_retries", "count", "lower"),
    m("io.checksum_failures", "count", "lower"),
    m("textscan.rows_per_s", "1/s", "higher"),
    m("textscan.bytes_per_s", "B/s", "higher"),
    m("storage.physical_per_logical", "ratio", "lower"),
    m("storage.reencodings", "count", "lower"),
    m("delta.append_rows_per_s", "1/s", "higher"),
    m("delta.delete_rows_per_s", "1/s", "higher"),
    m("delta.update_rows_per_s", "1/s", "higher"),
    m("delta.snapshot_ns", "ns", "lower"),
    m("delta.merged_overhead", "ratio", "lower"),
    m("delta.compact_ns", "ns", "lower"),
    m("delta.rows_reencoded", "count", "lower"),
    m("obs.trace_overhead_pct", "%", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}
