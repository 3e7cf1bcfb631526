//! The per-layer metric catalogue of the traced run.
//!
//! Every workload's traced run prints every name below, so the four
//! workloads can be compared layer by layer; a layer a workload never
//! reaches reads 0. `README.md` maps each metric to the end-to-end
//! metric it should move.

use crate::spans::Tracer;
use crate::Metrics;

/// Layers the span recorder attributes self time to, named after the
/// repository's modules. `bench` is the benchmark's own share (the
/// operation root's self time).
pub const LAYERS: &[&str] = &[
    "dag",
    "core.search",
    "core.validate",
    "core.batchify",
    "schedulers",
    "refine",
    "stream",
    "bounds",
    "serve.http",
    "serve.wire",
    "serve.api",
    "serve.cache",
    "serve.store",
    "util.json",
    "bench",
];

/// Endpoints whose execution time the serve workload replays.
pub const ENDPOINTS: &[&str] = &["solve", "schedule", "bounds", "generate"];

/// Streaming schedulers, by registry name.
pub const STREAM_SCHEDULERS: &[&str] = &["topo-stream", "wavefront-stream", "list-stream"];

/// Fixed per-layer metrics (name, unit); the scheduler registry adds
/// `schedulers.ms.<name>` rows and [`LAYERS`] adds `layer.<name>.self_pct`.
const FIXED: &[(&str, &str)] = &[
    ("core.search.settled", "count"),
    ("core.search.pushed", "count"),
    ("core.search.frontier_peak", "count"),
    ("core.search.h_root_ratio", "ratio"),
    ("core.search.settled_per_s", "1/s"),
    ("core.search.arena_bytes_per_state", "B"),
    ("core.search.canon_memo_rate", "ratio"),
    ("core.search.heur_delta_rate", "ratio"),
    ("core.search.ub_pruned_ratio", "ratio"),
    ("core.search.phase_ms.canonicalize", "ms"),
    ("core.search.phase_ms.heuristic", "ms"),
    ("core.search.phase_ms.succ_gen", "ms"),
    ("core.search.phase_ms.hash_intern", "ms"),
    ("core.search.phase_ms.queue", "ms"),
    ("core.search.solve_ms.mpp", "ms"),
    ("core.search.solve_ms.spp", "ms"),
    ("core.search.solve_ms.hier", "ms"),
    ("core.driver.cross_sends_per_settled", "ratio"),
    ("core.driver.locality_fraction", "ratio"),
    ("core.validate.calls", "count"),
    ("core.validate.ns_per_move", "ns"),
    ("core.validate.ms", "ms"),
    ("refine.proposals_per_s", "1/s"),
    ("refine.accept_ratio", "ratio"),
    ("refine.ms", "ms"),
    ("dag.build_ms", "ms"),
    ("dag.parse_ms", "ms"),
    ("dag.to_text_ms", "ms"),
    ("stream.nodes_per_s.topo-stream", "1/s"),
    ("stream.nodes_per_s.wavefront-stream", "1/s"),
    ("stream.nodes_per_s.list-stream", "1/s"),
    ("stream.peak_active_set", "count"),
    ("stream.passes", "count"),
    ("stream.emitted_bytes", "B"),
    ("serve.http.rtt_ms", "ms"),
    ("serve.wire.rtt_ms", "ms"),
    ("serve.api.parse_us", "us"),
    ("serve.api.cache_key_us", "us"),
    ("serve.api.execute_ms.solve", "ms"),
    ("serve.api.execute_ms.schedule", "ms"),
    ("serve.api.execute_ms.bounds", "ms"),
    ("serve.api.execute_ms.generate", "ms"),
    ("serve.cache.get_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.store.append_us", "us"),
    ("serve.store.appends", "count"),
    ("serve.store.bytes", "B"),
    ("serve.jobs.rejected", "count"),
    ("serve.residual_ms", "ms"),
    ("util.json.parse_us", "us"),
    ("util.json.render_us", "us"),
    ("bounds.ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// A registry name as a metric-name segment: lowercase ASCII letters,
/// digits, `-` and single `_` only (`greedy(count+recompute, Lru)` →
/// `greedy_count_recompute_lru`).
#[must_use]
pub fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '-' {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// `schedulers.ms.<slug>` for every scheduler of the in-memory registry.
#[must_use]
pub fn scheduler_metric_names() -> Vec<String> {
    rbp_schedulers::all_schedulers()
        .iter()
        .map(|s| format!("schedulers.ms.{}", slug(&s.name())))
        .collect()
}

/// Every per-layer metric (name, unit), in print order.
#[must_use]
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(scheduler_metric_names().into_iter().map(|n| (n, "ms")));
    out.extend(LAYERS.iter().map(|l| (format!("layer.{l}.self_pct"), "%")));
    out
}

/// Orders `measured` by the catalogue, filling every unmeasured name
/// with 0 so all workloads print the same set.
#[must_use]
pub fn complete(measured: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in catalogue() {
        out.set(name.clone(), measured.get(&name).unwrap_or(0.0), unit);
    }
    out
}

/// Adds `layer.<name>.self_pct` (share of operation wall time) and
/// `trace.coverage_pct` (share explained by layers other than the
/// benchmark's own code) from the recorded spans.
pub fn add_self_times(tr: &Tracer, out: &mut Metrics) {
    let wall = tr.root_total_ns("op").max(1) as f64;
    let selfs = tr.self_times();
    for (name, ns) in &selfs {
        let layer = if *name == "op" { "bench" } else { name };
        out.set(
            format!("layer.{layer}.self_pct"),
            *ns as f64 / wall * 100.0,
            "%",
        );
    }
    let bench = selfs.get("op").copied().unwrap_or(0) as f64;
    out.set("trace.coverage_pct", (1.0 - bench / wall) * 100.0, "%");
}

/// Prints the per-layer self-time table of a traced run.
pub fn print_self_times(tr: &Tracer) {
    let wall_ns = tr.root_total_ns("op");
    println!(
        "layer self time over {:.1} ms of operation wall time:",
        wall_ns as f64 / 1e6
    );
    let mut rows: Vec<(&str, u64)> = tr.self_times().into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (name, ns) in rows {
        let layer = if name == "op" { "bench" } else { name };
        println!(
            "  {layer:<16} {:>12.3} ms {:>7.2}%",
            ns as f64 / 1e6,
            ns as f64 / wall_ns.max(1) as f64 * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_valid_metric_segments() {
        assert_eq!(slug("topo-baseline"), "topo-baseline");
        assert_eq!(
            slug("greedy(count, FurthestUse)"),
            "greedy_count_furthestuse"
        );
        assert_eq!(
            slug("greedy(count+recompute, Lru)"),
            "greedy_count_recompute_lru"
        );
        for (name, _) in catalogue() {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    #[test]
    fn catalogue_names_are_unique() {
        let names: Vec<String> = catalogue().into_iter().map(|(n, _)| n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
