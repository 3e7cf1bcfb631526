//! # rbp-stream — the streaming scheduler tier
//!
//! Schedulers for million-node computational DAGs. The paper's central
//! practical consequence is that MPP `OPT` is NP-hard, so DAGs at the
//! 10^6–10^7-node scale where Hong–Kung-style I/O bounds matter can
//! only be served by heuristics — but the in-memory tier
//! (`rbp-schedulers`) allocates `O(n)` scratch per step and buffers the
//! whole strategy in a vector, capping it at toy sizes. This crate
//! re-implements the scheduler tier under streaming discipline:
//!
//! - **bounded passes** over the immutable CSR (each run reports its
//!   pass count);
//! - **`O(active-set)` resident scheduler state** — per-processor red
//!   sets are [`rbp_dag::HybridNodeSet`]s bounded by `r`, wave scratch
//!   is bounded by `k·Δ_in`, and no per-node `Vec` is allocated per
//!   step;
//! - **incremental strategy emission** through the [`StrategySink`]
//!   trait: a million-step strategy streams to a buffered JSONL writer
//!   ([`JsonlSink`], rendering through the `rbp_core::mpp::jsonl` codec
//!   that `rbp_refine::persist` shares) instead of living in RAM. Small
//!   runs keep the classic in-memory vector ([`VecSink`]).
//!
//! Every move still goes through a rule-enforcing simulator
//! ([`StreamSim`]) — an illegal schedule is an error, never a silently
//! wrong cost — and [`TopoStream`] / [`WavefrontStream`] are
//! cost-identical to their in-memory twins (asserted by E21 and this
//! crate's tests), while [`ListStream`] is the memory-aware LRU list
//! scheduler new to this tier.
//!
//! Runs are observable through `stream.*` trace counters and gauges
//! (nodes/sec, peak active-set, passes, emitted bytes); `rbp report`
//! renders them in its "Scale" section.

#![deny(missing_docs)]

pub mod schedulers;
pub mod sim;
pub mod sink;

pub use schedulers::{
    all_stream_schedulers, stream_scheduler_by_name, ListStream, StreamRun, StreamScheduler,
    TopoStream, WavefrontStream,
};
pub use sim::{StreamError, StreamSim};
pub use sink::{JsonlSink, NullSink, StrategySink, StreamHeader, VecSink};

/// Emits the `stream.*` counter/gauge set for a finished streaming run
/// to the global tracer (no-op when tracing is off):
///
/// | name | kind |
/// |------|------|
/// | `stream.nodes` | counter |
/// | `stream.passes` | counter |
/// | `stream.emitted_bytes` | counter |
/// | `stream.moves` | counter |
/// | `stream.nodes_per_sec` | gauge |
/// | `stream.peak_active_set` | gauge |
pub fn trace_stream_run(name: &str, run: &StreamRun) {
    if !rbp_trace::enabled() {
        return;
    }
    let _span = rbp_trace::span_with(
        "stream.schedule",
        vec![
            ("scheduler", rbp_trace::Json::from(name)),
            ("n", rbp_trace::Json::from(run.nodes as u64)),
            ("cost_io_steps", rbp_trace::Json::from(run.cost.io_steps())),
        ],
    );
    rbp_trace::counter("stream.nodes", run.nodes as u64);
    rbp_trace::counter("stream.passes", run.passes);
    rbp_trace::counter("stream.emitted_bytes", run.bytes_emitted);
    rbp_trace::counter("stream.moves", run.moves);
    rbp_trace::gauge("stream.nodes_per_sec", run.nodes_per_sec());
    rbp_trace::gauge("stream.peak_active_set", run.peak_active_set as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::MppInstance;
    use rbp_dag::generators;
    use rbp_schedulers::MppScheduler as _;

    /// Streamed strategies replay cleanly through the independent
    /// in-memory validator with the exact cost the simulator tallied.
    #[test]
    fn streamed_strategies_validate_with_identical_cost() {
        for (dag, k, r) in [
            (generators::grid(4, 5), 3, 3),
            (generators::fft(3), 4, 3),
            (generators::binary_in_tree(8), 2, 3),
            (generators::layered_random(5, 4, 3, 9), 4, 4),
            (generators::chain(7), 1, 2),
        ] {
            for s in all_stream_schedulers() {
                let mut sink = VecSink::new();
                let run = s
                    .schedule(&dag, k, r, &mut sink)
                    .unwrap_or_else(|e| panic!("{} failed on {}: {e}", s.name(), dag.name()));
                let inst = MppInstance::new(&dag, k, r, 2);
                let cost = sink
                    .strategy()
                    .validate(&inst)
                    .unwrap_or_else(|e| panic!("{} invalid on {}: {e}", s.name(), dag.name()));
                assert_eq!(cost, run.cost, "{} on {}", s.name(), dag.name());
                assert_eq!(run.moves as usize, sink.strategy().len());
            }
        }
    }

    /// Cost identity with the in-memory tier on overlap instances.
    #[test]
    fn cost_identical_to_in_memory_twins() {
        for (dag, k, r) in [
            (generators::grid(4, 5), 3, 3),
            (generators::grid(2, 2), 1, 3),
            (generators::fft(3), 4, 3),
            (generators::binary_in_tree(16), 2, 3),
            (generators::diamond(4), 2, 6),
            (generators::layered_random(6, 8, 2, 5), 4, 3),
        ] {
            let inst = MppInstance::new(&dag, k, r, 2);
            let mut sink = VecSink::new();
            let run = TopoStream.schedule(&dag, k, r, &mut sink).unwrap();
            let twin = rbp_schedulers::TopoBaseline.schedule(&inst).unwrap();
            assert_eq!(run.cost, twin.cost, "topo on {}", dag.name());

            let mut sink = VecSink::new();
            let run = WavefrontStream.schedule(&dag, k, r, &mut sink).unwrap();
            let twin = rbp_schedulers::Wavefront.schedule(&inst).unwrap();
            assert_eq!(run.cost, twin.cost, "wavefront on {}", dag.name());
            // The wavefront replay is move-exact, not just cost-exact.
            assert_eq!(
                sink.strategy(),
                &twin.strategy,
                "wavefront moves on {}",
                dag.name()
            );
        }
    }

    /// The memory-aware list scheduler never loads more than the
    /// baseline (which reloads every input every time).
    #[test]
    fn list_stream_reuses_red_memory() {
        let dag = generators::grid(6, 6);
        let mut sink = NullSink::new();
        let run = ListStream.schedule(&dag, 2, 6, &mut sink).unwrap();
        let mut base_sink = NullSink::new();
        let base = TopoStream.schedule(&dag, 2, 6, &mut base_sink).unwrap();
        assert!(
            run.cost.loads < base.cost.loads,
            "list {} vs baseline {}",
            run.cost.loads,
            base.cost.loads
        );
        assert_eq!(run.cost.computes, base.cost.computes);
    }

    #[test]
    fn registry_names_are_distinct_and_resolvable() {
        let names: Vec<String> = all_stream_schedulers().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
        for n in &names {
            assert!(stream_scheduler_by_name(n).is_some(), "{n}");
        }
        assert!(stream_scheduler_by_name("nope").is_none());
    }

    #[test]
    fn empty_dag_schedules_to_nothing() {
        let dag = generators::chain(0);
        for s in all_stream_schedulers() {
            let mut sink = VecSink::new();
            let run = s.schedule(&dag, 2, 2, &mut sink).unwrap();
            assert_eq!(run.moves, 0, "{}", s.name());
            assert_eq!(run.cost, rbp_core::Cost::zero());
        }
    }
}
