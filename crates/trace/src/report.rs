//! Rendering trace files back into human-readable reports.
//!
//! [`render`] turns a `TRACE_*.jsonl` file into the markdown comparison
//! tables of EXPERIMENTS.md plus a counter/gauge/span summary — the
//! reading side of the observability layer, used by `rbp report`.

use std::fmt::Write as _;

use rbp_util::json::Json;

/// A parsed trace: the manifest plus every following event, in order.
#[derive(Debug)]
pub struct Trace {
    /// The manifest header object (first line of the file).
    pub manifest: Json,
    /// All subsequent event objects.
    pub events: Vec<Json>,
}

/// Parses JSONL trace text. The first non-empty line must be a valid
/// manifest (`"type":"manifest"` with a `schema` no newer than this
/// crate understands); later malformed lines are errors too, so silent
/// truncation cannot masquerade as a short run.
///
/// # Errors
/// A human-readable description of the first offending line.
pub fn parse(text: &str) -> Result<Trace, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty trace file")?;
    let manifest = Json::parse(first).map_err(|e| format!("line 1: not valid JSON ({e})"))?;
    if manifest.get("type").and_then(Json::as_str) != Some("manifest") {
        return Err("line 1: missing manifest header (expected \"type\":\"manifest\")".into());
    }
    let schema = manifest
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or("line 1: manifest has no schema version")?;
    if schema > crate::SCHEMA_VERSION {
        return Err(format!(
            "trace schema {schema} is newer than supported {}",
            crate::SCHEMA_VERSION
        ));
    }
    let mut events = Vec::new();
    for (i, line) in lines {
        let ev = Json::parse(line).map_err(|e| format!("line {}: not valid JSON ({e})", i + 1))?;
        events.push(ev);
    }
    Ok(Trace { manifest, events })
}

/// Sections that gather counters (summed) and gauges (last value) by
/// name prefix, in render order, instead of leaving them in the generic
/// tables; a metric lands in the first section it matches:
///
/// - `serve.store.*`: rbp-serve's persistent result store;
/// - `stream.*`: the streaming scheduler tier, so a large-DAG run leads
///   with throughput, peak active set, passes and emitted bytes;
/// - `hier.*`, `bounds.hier.*`: the three-level game's exact solver and
///   closed-form bounds, so green and blue traffic read as a unit;
/// - `solver.phase.*`: the shared A* engine's hot path, per-phase
///   counters and (under `RBP_PHASE_PROF=1`) nanosecond timings.
const SECTIONS: [(&str, &[&str]); 4] = [
    ("Serve store", &["serve.store."]),
    ("Scale", &["stream."]),
    ("Hierarchy", &["hier.", "bounds.hier."]),
    ("Hot path", &["solver.phase."]),
];

/// Renders a full report: manifest summary, every emitted table as
/// EXPERIMENTS.md-style markdown, one section per subsystem (serve
/// store, scale, hierarchy, hot path), then the remaining counters
/// (summed per name) and gauges (last value per name), and a span
/// timing summary.
///
/// # Errors
/// See [`parse`]; additionally, a trace that carries no renderable
/// events (header-only files, or files whose events are all of unknown
/// types) is refused — an empty report would read as a successful run
/// that recorded nothing.
pub fn render(text: &str) -> Result<String, String> {
    let trace = parse(text)?;
    if trace.events.is_empty() {
        return Err(
            "trace has a manifest but no events (was the run interrupted before flushing?)".into(),
        );
    }
    let mut out = String::new();

    let tool = trace
        .manifest
        .get("tool")
        .and_then(Json::as_str)
        .unwrap_or("?");
    let _ = writeln!(out, "# Trace report — {tool}\n");
    if let Json::Obj(pairs) = &trace.manifest {
        for (k, v) in pairs {
            if k == "type" {
                continue;
            }
            let _ = writeln!(out, "- {k}: {}", scalar(v));
        }
    }

    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, f64)> = Vec::new();
    let mut spans: Vec<(String, (u64, u64))> = Vec::new(); // name, (count, total_us)
    let mut tables = 0usize;

    for ev in &trace.events {
        let ty = ev.get("type").and_then(Json::as_str).unwrap_or("");
        let name = ev.get("name").and_then(Json::as_str).unwrap_or("?");
        match ty {
            "counter" => {
                *row(&mut counters, name) += ev.get("value").and_then(Json::as_u64).unwrap_or(0);
            }
            "gauge" => {
                *row(&mut gauges, name) =
                    ev.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            }
            "span_exit" => {
                let (count, total_us) = row(&mut spans, name);
                *count += 1;
                *total_us += ev.get("elapsed_us").and_then(Json::as_u64).unwrap_or(0);
            }
            "table" => {
                tables += 1;
                let _ = writeln!(out, "\n## {name}\n");
                out.push_str(&markdown_table(ev));
            }
            _ => {}
        }
    }

    let mut sectioned = false;
    for (title, prefixes) in SECTIONS {
        let ours = |n: &str| prefixes.iter().any(|p| n.starts_with(p));
        let rows: Vec<(String, String)> = counters
            .iter()
            .filter(|(n, _)| ours(n))
            .map(|(n, v)| (n.clone(), v.to_string()))
            .chain(
                gauges
                    .iter()
                    .filter(|(n, _)| ours(n))
                    .map(|(n, v)| (n.clone(), v.to_string())),
            )
            .collect();
        if !rows.is_empty() {
            counters.retain(|(n, _)| !ours(n));
            gauges.retain(|(n, _)| !ours(n));
            two_column(&mut out, title, ["metric", "value"], &rows);
            sectioned = true;
        }
    }

    if !counters.is_empty() {
        let rows: Vec<_> = counters
            .iter()
            .map(|(n, v)| (n.clone(), v.to_string()))
            .collect();
        two_column(&mut out, "Counters", ["counter", "total"], &rows);
    }
    if !gauges.is_empty() {
        let rows: Vec<_> = gauges
            .iter()
            .map(|(n, v)| (n.clone(), v.to_string()))
            .collect();
        two_column(&mut out, "Gauges (last value)", ["gauge", "value"], &rows);
    }
    // Benchmarks that cannot measure what they claim flag themselves
    // with a `*sweep_valid` gauge of 0; surface that loudly so a report
    // reader cannot mistake a single-core run for a scaling result.
    let invalid_sweeps: Vec<&str> = gauges
        .iter()
        .filter(|(n, v)| n.ends_with("sweep_valid") && *v == 0.0)
        .map(|(n, _)| n.as_str())
        .collect();
    if !invalid_sweeps.is_empty() {
        let _ = writeln!(out, "\n## Warnings\n");
        for n in invalid_sweeps {
            let _ = writeln!(
                out,
                "- **{n} = 0**: the run reported itself unable to measure thread \
                 scaling (single hardware thread); treat its wall-clock sweep \
                 numbers as scheduling overhead, not speedup."
            );
        }
    }
    if !spans.is_empty() {
        let _ = writeln!(out, "\n## Spans\n");
        let _ = writeln!(out, "| span | count | total ms |");
        let _ = writeln!(out, "|---|---|---|");
        for (n, (c, us)) in &spans {
            let _ = writeln!(out, "| {n} | {c} | {:.2} |", *us as f64 / 1e3);
        }
    }
    if tables == 0 && counters.is_empty() && gauges.is_empty() && spans.is_empty() && !sectioned {
        return Err(format!(
            "trace has {} event(s) but none are renderable (no tables, counters, gauges, or spans)",
            trace.events.len()
        ));
    }
    Ok(out)
}

/// The value aggregated under `name`, added (at its default) on first
/// sight so rows keep first-seen order.
fn row<'a, T: Default>(rows: &'a mut Vec<(String, T)>, name: &str) -> &'a mut T {
    let at = match rows.iter().position(|(n, _)| n == name) {
        Some(at) => at,
        None => {
            rows.push((name.to_string(), T::default()));
            rows.len() - 1
        }
    };
    &mut rows[at].1
}

/// Appends a `## title` section holding a two-column markdown table.
fn two_column(out: &mut String, title: &str, head: [&str; 2], rows: &[(String, String)]) {
    let _ = writeln!(out, "\n## {title}\n");
    let _ = writeln!(out, "| {} | {} |", head[0], head[1]);
    let _ = writeln!(out, "|---|---|");
    for (n, v) in rows {
        let _ = writeln!(out, "| {n} | {v} |");
    }
}

/// One table event as an EXPERIMENTS.md-style markdown table.
fn markdown_table(ev: &Json) -> String {
    let headers: Vec<&str> = ev
        .get("headers")
        .and_then(Json::as_arr)
        .map(|hs| hs.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}",
        headers.iter().map(|_| "---|").collect::<String>()
    );
    if let Some(rows) = ev.get("rows").and_then(Json::as_arr) {
        for row in rows {
            let cells: Vec<&str> = row
                .as_arr()
                .map(|cs| cs.iter().filter_map(Json::as_str).collect())
                .unwrap_or_default();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
    }
    out
}

fn scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        "{\"type\":\"manifest\",\"schema\":1,\"tool\":\"exp_demo\",\"git_rev\":\"abc\",\"seed\":7}\n",
        "{\"type\":\"span_enter\",\"ts_us\":1,\"id\":1,\"name\":\"solve\"}\n",
        "{\"type\":\"counter\",\"ts_us\":2,\"name\":\"solver.settled\",\"value\":10}\n",
        "{\"type\":\"counter\",\"ts_us\":3,\"name\":\"solver.settled\",\"value\":5}\n",
        "{\"type\":\"gauge\",\"ts_us\":4,\"name\":\"tightness\",\"value\":0.5}\n",
        "{\"type\":\"gauge\",\"ts_us\":5,\"name\":\"tightness\",\"value\":0.9}\n",
        "{\"type\":\"span_exit\",\"ts_us\":6,\"id\":1,\"name\":\"solve\",\"elapsed_us\":5000}\n",
        "{\"type\":\"table\",\"ts_us\":7,\"name\":\"E-DEMO\",\"headers\":[\"d\",\"speedup\"],",
        "\"rows\":[[\"4\",\"1.69\"],[\"8\",\"3.02\"]]}\n",
    );

    #[test]
    fn parse_requires_manifest_first() {
        assert!(parse(TRACE).is_ok());
        assert!(parse("").is_err());
        assert!(parse("{\"type\":\"counter\"}").is_err());
        assert!(parse("not json").is_err());
        let newer = TRACE.replace("\"schema\":1", "\"schema\":999");
        assert!(parse(&newer).unwrap_err().contains("newer"));
        let broken = format!("{TRACE}garbage\n");
        assert!(parse(&broken).is_err());
    }

    #[test]
    fn render_reproduces_markdown_table() {
        let report = render(TRACE).unwrap();
        assert!(report.contains("# Trace report — exp_demo"));
        assert!(report.contains("- seed: 7"));
        assert!(report.contains("## E-DEMO"));
        assert!(report.contains("| d | speedup |"));
        assert!(report.contains("| 4 | 1.69 |"));
        assert!(report.contains("| 8 | 3.02 |"));
        // Counters sum; gauges keep the last value; spans aggregate.
        assert!(report.contains("| solver.settled | 15 |"));
        assert!(report.contains("| tightness | 0.9 |"));
        assert!(report.contains("| solve | 1 | 5.00 |"));
    }

    #[test]
    fn invalid_sweep_gauge_renders_warning() {
        let head =
            "{\"type\":\"manifest\",\"schema\":1,\"tool\":\"exp_solver\",\"git_rev\":null}\n";
        let invalid = format!(
            "{head}{{\"type\":\"gauge\",\"ts_us\":1,\"name\":\"exp_solver.sweep_valid\",\"value\":0}}\n"
        );
        let report = render(&invalid).unwrap();
        assert!(report.contains("## Warnings"), "{report}");
        assert!(report.contains("exp_solver.sweep_valid = 0"), "{report}");

        let valid = format!(
            "{head}{{\"type\":\"gauge\",\"ts_us\":1,\"name\":\"exp_solver.sweep_valid\",\"value\":1}}\n"
        );
        let report = render(&valid).unwrap();
        assert!(!report.contains("## Warnings"), "{report}");
    }

    /// `stream.*` metrics from the streaming scheduler tier get their
    /// own "Scale" section and disappear from the generic tables.
    #[test]
    fn stream_metrics_render_in_scale_section() {
        let trace = concat!(
            "{\"type\":\"manifest\",\"schema\":1,\"tool\":\"exp_scale\",\"git_rev\":null}\n",
            "{\"type\":\"counter\",\"ts_us\":1,\"name\":\"stream.nodes\",\"value\":1000000}\n",
            "{\"type\":\"counter\",\"ts_us\":2,\"name\":\"stream.passes\",\"value\":4}\n",
            "{\"type\":\"counter\",\"ts_us\":3,\"name\":\"stream.emitted_bytes\",\"value\":252078542}\n",
            "{\"type\":\"counter\",\"ts_us\":4,\"name\":\"stream.moves\",\"value\":3500000}\n",
            "{\"type\":\"gauge\",\"ts_us\":5,\"name\":\"stream.nodes_per_sec\",\"value\":5476015.0}\n",
            "{\"type\":\"gauge\",\"ts_us\":6,\"name\":\"stream.peak_active_set\",\"value\":24}\n",
            "{\"type\":\"counter\",\"ts_us\":7,\"name\":\"other.counter\",\"value\":1}\n",
        );
        let report = render(trace).unwrap();
        assert!(report.contains("## Scale"), "{report}");
        assert!(report.contains("| stream.nodes | 1000000 |"), "{report}");
        assert!(report.contains("| stream.passes | 4 |"), "{report}");
        assert!(
            report.contains("| stream.emitted_bytes | 252078542 |"),
            "{report}"
        );
        assert!(
            report.contains("| stream.nodes_per_sec | 5476015 |"),
            "{report}"
        );
        assert!(
            report.contains("| stream.peak_active_set | 24 |"),
            "{report}"
        );
        // stream.* rows live only in the Scale section; unrelated
        // metrics stay in the generic tables.
        let scale_at = report.find("## Scale").unwrap();
        let counters_at = report.find("## Counters").unwrap();
        assert!(scale_at < counters_at, "{report}");
        assert!(
            report[counters_at..].contains("| other.counter | 1 |"),
            "{report}"
        );
        assert!(!report[counters_at..].contains("stream."), "{report}");
    }

    /// `hier.*` and `bounds.hier.*` metrics from the three-level game
    /// get their own "Hierarchy" section and disappear from the generic
    /// tables.
    #[test]
    fn hier_metrics_render_in_hierarchy_section() {
        let trace = concat!(
            "{\"type\":\"manifest\",\"schema\":1,\"tool\":\"rbp\",\"git_rev\":null}\n",
            "{\"type\":\"counter\",\"ts_us\":1,\"name\":\"hier.runs\",\"value\":1}\n",
            "{\"type\":\"counter\",\"ts_us\":2,\"name\":\"hier.green_stores\",\"value\":2}\n",
            "{\"type\":\"counter\",\"ts_us\":3,\"name\":\"hier.green_loads\",\"value\":2}\n",
            "{\"type\":\"counter\",\"ts_us\":4,\"name\":\"hier.blue_stores\",\"value\":0}\n",
            "{\"type\":\"gauge\",\"ts_us\":5,\"name\":\"hier.green_cap\",\"value\":2}\n",
            "{\"type\":\"gauge\",\"ts_us\":6,\"name\":\"hier.total\",\"value\":13}\n",
            "{\"type\":\"gauge\",\"ts_us\":7,\"name\":\"bounds.hier.upper\",\"value\":90}\n",
            "{\"type\":\"counter\",\"ts_us\":8,\"name\":\"other.counter\",\"value\":1}\n",
        );
        let report = render(trace).unwrap();
        assert!(report.contains("## Hierarchy"), "{report}");
        assert!(report.contains("| hier.runs | 1 |"), "{report}");
        assert!(report.contains("| hier.green_stores | 2 |"), "{report}");
        assert!(report.contains("| hier.green_cap | 2 |"), "{report}");
        assert!(report.contains("| bounds.hier.upper | 90 |"), "{report}");
        // hier rows live only in the Hierarchy section; unrelated
        // metrics stay in the generic tables.
        let hier_at = report.find("## Hierarchy").unwrap();
        let counters_at = report.find("## Counters").unwrap();
        assert!(hier_at < counters_at, "{report}");
        assert!(
            report[counters_at..].contains("| other.counter | 1 |"),
            "{report}"
        );
        assert!(!report[counters_at..].contains("hier."), "{report}");
    }

    /// `solver.phase.*` metrics from the shared A* engine's hot path
    /// get their own "Hot path" section and disappear from the generic
    /// tables.
    #[test]
    fn phase_metrics_render_in_hot_path_section() {
        let trace = concat!(
            "{\"type\":\"manifest\",\"schema\":1,\"tool\":\"rbp\",\"git_rev\":null}\n",
            "{\"type\":\"counter\",\"ts_us\":1,\"name\":\"solver.phase.mpp.canon_memo_hits\",\"value\":900}\n",
            "{\"type\":\"counter\",\"ts_us\":2,\"name\":\"solver.phase.mpp.canon_sorts\",\"value\":100}\n",
            "{\"type\":\"counter\",\"ts_us\":3,\"name\":\"solver.phase.mpp.heur_delta_fast\",\"value\":800}\n",
            "{\"type\":\"counter\",\"ts_us\":4,\"name\":\"solver.phase.mpp.idle_suppressed\",\"value\":250}\n",
            "{\"type\":\"gauge\",\"ts_us\":5,\"name\":\"solver.phase.mpp.heuristic_ns\",\"value\":12345}\n",
            "{\"type\":\"counter\",\"ts_us\":6,\"name\":\"other.counter\",\"value\":1}\n",
        );
        let report = render(trace).unwrap();
        assert!(report.contains("## Hot path"), "{report}");
        assert!(
            report.contains("| solver.phase.mpp.canon_memo_hits | 900 |"),
            "{report}"
        );
        assert!(
            report.contains("| solver.phase.mpp.idle_suppressed | 250 |"),
            "{report}"
        );
        assert!(
            report.contains("| solver.phase.mpp.heuristic_ns | 12345 |"),
            "{report}"
        );
        // Phase rows live only in the Hot path section; unrelated
        // metrics stay in the generic tables.
        let hot_at = report.find("## Hot path").unwrap();
        let counters_at = report.find("## Counters").unwrap();
        assert!(hot_at < counters_at, "{report}");
        assert!(
            report[counters_at..].contains("| other.counter | 1 |"),
            "{report}"
        );
        assert!(!report[counters_at..].contains("solver.phase."), "{report}");
    }

    #[test]
    fn render_refuses_event_free_trace() {
        let text = "{\"type\":\"manifest\",\"schema\":1,\"tool\":\"t\",\"git_rev\":null}\n";
        let err = render(text).unwrap_err();
        assert!(err.contains("no events"), "{err}");
        // Events that exist but render to nothing are refused too.
        let only_unknown = format!("{text}{{\"type\":\"mystery\",\"ts_us\":1}}\n");
        let err = render(&only_unknown).unwrap_err();
        assert!(err.contains("none are renderable"), "{err}");
    }
}
