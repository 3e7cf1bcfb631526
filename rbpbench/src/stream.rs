//! `stream`: the streaming tier on 10^5–10^6-node DAGs.
//!
//! One operation builds a DAG from a generator (grid and fft through
//! the streaming CSR builder, layered through the seeded random
//! generator) and schedules it with one `rbp-stream` scheduler into
//! either a discarding [`NullSink`] or a [`JsonlSink`] over
//! `std::io::sink()`. The seven cases cover all three generators, all
//! three schedulers and both sinks. JSONL emission costs 10–15× more
//! per node than discarding, so the JSONL cases use 2.4×10^4–5.3×10^4-node
//! DAGs to keep operations comparable.
//!
//! Checks: each operation's cost must equal that of its case's first
//! run (the schedulers are deterministic), every run must schedule every
//! node, and after the timed phase one small instance per scheduler
//! with an in-memory twin must match the twin's cost.

use std::time::Instant;

use rbp_core::{CostModel, MppInstance};
use rbp_dag::{generators, Dag};
use rbp_stream::{stream_scheduler_by_name, JsonlSink, NullSink, StreamHeader, StreamRun};

use crate::layers::STREAM_SCHEDULERS;
use crate::spans::Tracer;
use crate::{mix, Metrics, OpResult, Workload};

/// Sink an operation writes its strategy to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// Discard every move.
    Null,
    /// Render every move as a JSON line into `std::io::sink()`.
    Jsonl,
}

/// One streaming case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// `grid`, `fft` or `layered`.
    pub family: &'static str,
    /// Generator parameters (layered: levels, width, in-degree; its
    /// seed comes from the workload seed).
    pub params: &'static [usize],
    /// Streaming scheduler registry name.
    pub scheduler: &'static str,
    /// Output sink.
    pub sink: Sink,
    /// Processors.
    pub k: usize,
    /// Red pebbles per processor.
    pub r: usize,
}

/// Blue I/O cost used for totals.
pub const G: u64 = 2;

/// Seven cases: four discarding runs on 2.5×10^5–10^6 nodes, three
/// emitting runs on 2.4×10^4–5.3×10^4 nodes. Single-core times on a
/// 2-core x86-64 host run from ~50 to ~290 ms; the fourth-fastest
/// (`grid` 220×220 into JSONL, ~165 ms) sits well apart from the cases
/// on either side, so p50 reads one case's block.
#[rustfmt::skip]
pub const CASES: &[Case] = &[
    Case { family: "grid", params: &[500, 500], scheduler: "topo-stream", sink: Sink::Null, k: 4, r: 4 },
    Case { family: "fft", params: &[14], scheduler: "wavefront-stream", sink: Sink::Null, k: 4, r: 4 },
    Case { family: "layered", params: &[500, 500, 3], scheduler: "list-stream", sink: Sink::Null, k: 4, r: 5 },
    Case { family: "grid", params: &[1000, 1000], scheduler: "wavefront-stream", sink: Sink::Null, k: 4, r: 4 },
    Case { family: "grid", params: &[220, 220], scheduler: "topo-stream", sink: Sink::Jsonl, k: 4, r: 4 },
    Case { family: "fft", params: &[11], scheduler: "list-stream", sink: Sink::Jsonl, k: 4, r: 4 },
    Case { family: "layered", params: &[230, 230, 3], scheduler: "wavefront-stream", sink: Sink::Jsonl, k: 4, r: 5 },
];

/// Builds case `c`'s DAG; layered DAGs draw their edges from `seed`.
#[must_use]
pub fn build(c: &Case, seed: u64) -> Dag {
    let p = c.params;
    match c.family {
        "grid" => generators::grid(p[0], p[1]),
        "fft" => generators::fft(u32::try_from(p[0]).expect("small fft parameter")),
        _ => generators::layered_random(p[0], p[1], p[2], seed),
    }
}

/// The seeded case order.
#[must_use]
pub fn plan(seed: u64) -> Vec<usize> {
    crate::permutation(CASES.len(), seed ^ 0x57ea)
}

/// Runs scheduler `name` on `dag` into `sink`.
///
/// # Errors
/// Unknown scheduler, scheduling failure, or sink write failure.
pub fn schedule(
    dag: &Dag,
    name: &str,
    sink: Sink,
    k: usize,
    r: usize,
) -> Result<StreamRun, String> {
    let s =
        stream_scheduler_by_name(name).ok_or_else(|| format!("no streaming scheduler '{name}'"))?;
    match sink {
        Sink::Null => {
            let mut out = NullSink::new();
            let run = s.schedule(dag, k, r, &mut out).map_err(|e| e.to_string())?;
            if out.moves() != run.moves {
                return Err(format!(
                    "sink saw {} moves, run reports {}",
                    out.moves(),
                    run.moves
                ));
            }
            Ok(run)
        }
        Sink::Jsonl => {
            let header = StreamHeader {
                dag_name: dag.name().to_string(),
                n: dag.n(),
                k,
                r,
                g: G,
            };
            let mut out = JsonlSink::new(std::io::sink(), &header).map_err(|e| e.to_string())?;
            let run = s.schedule(dag, k, r, &mut out).map_err(|e| e.to_string())?;
            out.into_inner().map_err(|e| e.to_string())?;
            if run.bytes_emitted == 0 && run.moves > 0 {
                return Err("JSONL sink emitted no bytes".into());
            }
            Ok(run)
        }
    }
}

/// Checks that every streaming scheduler with an in-memory twin
/// matches the twin's cost on a small grid.
///
/// # Errors
/// The first mismatch.
pub fn twin_check() -> Result<(), String> {
    let dag = generators::grid(12, 12);
    let (k, r) = (3, 3);
    let inst = MppInstance::new(&dag, k, r, G);
    let pairs: [(&str, Box<dyn rbp_schedulers::MppScheduler>); 2] = [
        ("topo-stream", Box::new(rbp_schedulers::TopoBaseline)),
        ("wavefront-stream", Box::new(rbp_schedulers::Wavefront)),
    ];
    for (name, twin) in pairs {
        let streamed = schedule(&dag, name, Sink::Null, k, r)?;
        let memory = twin.schedule(&inst).map_err(|e| e.to_string())?;
        if streamed.cost != memory.cost {
            return Err(format!(
                "{name} costs {:?} but its in-memory twin {} costs {:?}",
                streamed.cost,
                twin.name(),
                memory.cost
            ));
        }
    }
    Ok(())
}

#[derive(Default)]
struct Acc {
    ops: u64,
    build_ns: u64,
    per_sched: [(u64, u64); 3],
    peak_active: u64,
    passes: u64,
    emitted: u64,
}

/// The stream workload's state.
pub struct Stream {
    seed: u64,
    order: Vec<usize>,
    first_totals: Vec<Option<u64>>,
    acc: Acc,
}

impl Stream {
    /// Fixes the seeded order and warms up with one discarding run on a
    /// 2.5×10^5-node grid.
    #[must_use]
    pub fn setup(seed: u64) -> Stream {
        let dag = generators::grid(500, 500);
        std::hint::black_box(schedule(&dag, "topo-stream", Sink::Null, 4, 4).ok());
        Stream {
            seed,
            order: plan(seed),
            first_totals: vec![None; CASES.len()],
            acc: Acc::default(),
        }
    }
}

impl Workload for Stream {
    fn cycle(&self) -> usize {
        CASES.len()
    }

    fn run_op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let idx = self.order[(i % CASES.len() as u64) as usize];
        let c = &CASES[idx];
        let t = Instant::now();
        let dag = tr.span("dag", i, |_| build(c, mix(self.seed ^ idx as u64)));
        let build_ns = t.elapsed().as_nanos() as u64;
        let run = match tr.span("stream", i, |_| {
            schedule(&dag, c.scheduler, c.sink, c.k, c.r)
        }) {
            Ok(run) => run,
            Err(e) => return OpResult::failed(format!("{}: {e}", c.scheduler)),
        };
        if tr.enabled() {
            let a = &mut self.acc;
            a.ops += 1;
            a.build_ns += build_ns;
            if let Some(s) = STREAM_SCHEDULERS.iter().position(|&s| s == c.scheduler) {
                a.per_sched[s].0 += run.nodes as u64;
                a.per_sched[s].1 += run.elapsed.as_nanos() as u64;
            }
            a.peak_active += run.peak_active_set as u64;
            a.passes += run.passes;
            a.emitted += run.bytes_emitted;
        }
        if run.nodes != dag.n() {
            return OpResult::failed(format!(
                "{} scheduled {} of {} nodes",
                c.scheduler,
                run.nodes,
                dag.n()
            ));
        }
        let total = run.cost.total(CostModel::mpp(G));
        match self.first_totals[idx] {
            None => self.first_totals[idx] = Some(total),
            Some(first) if first != total => {
                return OpResult::failed(format!(
                    "{} on {}: total {total}, but the first run of this case gave {first}",
                    c.scheduler,
                    dag.name()
                ))
            }
            Some(_) => {}
        }
        OpResult::ok(Some(total))
    }

    fn final_checks(&mut self) -> Vec<String> {
        twin_check().err().into_iter().collect()
    }

    fn layer_metrics(&mut self, out: &mut Metrics) -> Vec<String> {
        let a = &self.acc;
        let n = a.ops.max(1) as f64;
        out.set("dag.build_ms", a.build_ns as f64 / 1e6 / n, "ms");
        for (name, (nodes, ns)) in STREAM_SCHEDULERS.iter().zip(a.per_sched) {
            out.set(
                format!("stream.nodes_per_s.{name}"),
                nodes as f64 / (ns.max(1) as f64 / 1e9),
                "1/s",
            );
        }
        out.set("stream.peak_active_set", a.peak_active as f64 / n, "count");
        out.set("stream.passes", a.passes as f64 / n, "count");
        out.set("stream.emitted_bytes", a.emitted as f64 / n, "B");
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_instances_match_their_in_memory_twins() {
        twin_check().unwrap();
    }

    #[test]
    fn layered_inputs_follow_the_seed() {
        let c = Case {
            family: "layered",
            params: &[6, 5, 3],
            scheduler: "topo-stream",
            sink: Sink::Null,
            k: 2,
            r: 4,
        };
        let text = |seed| rbp_dag::io::to_text(&build(&c, seed));
        assert_eq!(text(3), text(3));
        assert_ne!(text(3), text(4));
        assert_eq!(plan(9), plan(9));
    }

    #[test]
    fn every_scheduler_and_sink_is_covered() {
        for s in STREAM_SCHEDULERS {
            assert!(CASES.iter().any(|c| c.scheduler == *s), "{s}");
            assert!(stream_scheduler_by_name(s).is_some(), "{s}");
        }
        assert!(CASES.iter().any(|c| c.sink == Sink::Null));
        assert!(CASES.iter().any(|c| c.sink == Sink::Jsonl));
    }

    #[test]
    fn both_sinks_agree_on_cost() {
        let dag = generators::fft(4);
        for s in STREAM_SCHEDULERS {
            let a = schedule(&dag, s, Sink::Null, 2, 3).unwrap();
            let b = schedule(&dag, s, Sink::Jsonl, 2, 3).unwrap();
            assert_eq!(a.cost, b.cost, "{s}");
            assert!(b.bytes_emitted > 0);
        }
    }
}
