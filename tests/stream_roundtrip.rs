//! Integration test: the streaming tier's JSONL strategy emission is
//! byte-compatible with the `rbp_refine::persist` format — a strategy
//! streamed by `rbp_stream::JsonlSink` must re-parse with
//! `strategy_from_jsonl` and replay cleanly through the in-memory MPP
//! validator with the exact cost the streaming simulator tallied.

use rbp::core::rbp_dag::{io, Dag};
use rbp::core::MppInstance;
use rbp::refine::persist;
use rbp::stream::{all_stream_schedulers, JsonlSink, StreamHeader};

const FIXTURES: &[&str] = &[
    include_str!("fixtures/grid_3x3.dag"),
    include_str!("fixtures/chains_2x4.dag"),
    include_str!("fixtures/fft_8.dag"),
    include_str!("fixtures/zipper_2x2.dag"),
];

fn fixture_dags() -> Vec<Dag> {
    FIXTURES
        .iter()
        .map(|t| io::parse(t).expect("fixture parses"))
        .collect()
}

/// Every streaming scheduler × every fixture DAG: stream to JSONL,
/// re-load through the persistence layer, re-render it byte for byte,
/// validate in-memory.
#[test]
fn streamed_jsonl_roundtrips_through_persist_and_validates() {
    for dag in fixture_dags() {
        let (k, r, g) = (3, dag.max_in_degree() + 2, 2);
        for s in all_stream_schedulers() {
            let header = StreamHeader {
                dag_name: dag.name().to_string(),
                n: dag.n(),
                k,
                r,
                g,
            };
            let mut sink = JsonlSink::new(Vec::new(), &header).expect("vec sink");
            let run = s
                .schedule(&dag, k, r, &mut sink)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", s.name(), dag.name()));
            let bytes = sink.into_inner().expect("flush");
            assert_eq!(bytes.len() as u64, run.bytes_emitted);
            let text = String::from_utf8(bytes).expect("JSONL is UTF-8");

            let saved = persist::strategy_from_jsonl(&text)
                .unwrap_or_else(|e| panic!("{} on {}: reload failed: {e}", s.name(), dag.name()));
            assert_eq!(
                saved.header,
                header,
                "{} on {}: header mismatch",
                s.name(),
                dag.name()
            );
            assert_eq!(saved.strategy.len() as u64, run.moves);
            // The in-memory writer renders the reloaded strategy to the
            // very bytes the streaming writer produced.
            assert_eq!(
                persist::strategy_to_jsonl(&saved),
                text,
                "{} on {}: the two writers disagree",
                s.name(),
                dag.name()
            );

            let inst = MppInstance::new(&dag, k, r, g);
            let cost = saved
                .strategy
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{} on {}: invalid replay: {e}", s.name(), dag.name()));
            assert_eq!(
                cost,
                run.cost,
                "{} on {}: reloaded cost diverged",
                s.name(),
                dag.name()
            );
        }
    }
}

/// The JSONL survives a save/load/save cycle byte-identically — the
/// streaming writer and the in-memory persistence writer agree on
/// every serialized field, not just on semantics.
#[test]
fn streamed_jsonl_is_byte_identical_to_persist_writer() {
    let dag = fixture_dags().remove(0);
    let (k, r, g) = (2, dag.max_in_degree() + 2, 2);
    let s = &all_stream_schedulers()[0];
    let header = StreamHeader {
        dag_name: dag.name().to_string(),
        n: dag.n(),
        k,
        r,
        g,
    };
    let mut sink = JsonlSink::new(Vec::new(), &header).expect("vec sink");
    s.schedule(&dag, k, r, &mut sink).expect("schedules");
    let streamed = String::from_utf8(sink.into_inner().expect("flush")).unwrap();

    let saved = persist::strategy_from_jsonl(&streamed).expect("reload");
    let rewritten = persist::strategy_to_jsonl(&saved);
    assert_eq!(streamed, rewritten);
}
