//! Fuzzing the MPP rules engine: random move sequences never panic, are
//! either cleanly rejected or produce consistent state, and the
//! simulator agrees with the batch validator move for move — as do the
//! streaming simulator, the three-level simulator at `green_cap = 0`,
//! and, at `k = 1`, the single-processor validator.
//!
//! Uses the in-tree seeded RNG (`rbp::util::Rng`) instead of an external
//! property-testing framework: each case is a deterministic function of
//! the loop index, so failures reproduce exactly.

use rbp::core::rbp_dag::{generators, NodeId};
use rbp::core::spp::{self, SppErrorKind};
use rbp::core::{
    async_makespan, validate_mpp, MppError, MppErrorKind, MppInstance, MppMove, MppSimulator,
    MppStrategy, Pebble, SppInstance, SppMove,
};
use rbp::hier::{HierErrorKind, HierInstance, HierMove, HierPebble, HierSimulator};
use rbp::stream::{StreamError, StreamSim, VecSink};
use rbp::util::Rng;

fn arb_move(rng: &mut Rng, k: usize, n: usize) -> MppMove {
    let arb_batch = |rng: &mut Rng| {
        let len = 1 + rng.index(k.min(3));
        (0..len)
            .map(|_| (rng.index(k), NodeId::new(rng.index(n))))
            .collect::<Vec<_>>()
    };
    match rng.index(5) {
        0 => MppMove::Compute(arb_batch(rng)),
        1 => MppMove::Load(arb_batch(rng)),
        2 => MppMove::Store(arb_batch(rng)),
        3 => MppMove::Remove(Pebble::Red(rng.index(k), NodeId::new(rng.index(n)))),
        _ => MppMove::Remove(Pebble::Blue(NodeId::new(rng.index(n)))),
    }
}

/// `mv` in the three-level move language.
fn lift(mv: &MppMove) -> HierMove {
    match mv {
        MppMove::Store(b) => HierMove::Store(b.clone()),
        MppMove::Load(b) => HierMove::Load(b.clone()),
        MppMove::Compute(b) => HierMove::Compute(b.clone()),
        MppMove::Remove(Pebble::Red(p, v)) => HierMove::Remove(HierPebble::Red(*p, *v)),
        MppMove::Remove(Pebble::Blue(v)) => HierMove::Remove(HierPebble::Blue(*v)),
    }
}

/// The two-level kind a three-level kind stands for; the green-tier
/// kinds have none.
fn lower(kind: HierErrorKind) -> MppErrorKind {
    match kind {
        HierErrorKind::EmptySelection => MppErrorKind::EmptySelection,
        HierErrorKind::BadProcessor(p) => MppErrorKind::BadProcessor(p),
        HierErrorKind::DuplicateProcessor(p) => MppErrorKind::DuplicateProcessor(p),
        HierErrorKind::DuplicateVertex(v) => MppErrorKind::DuplicateVertex(v),
        HierErrorKind::StoreWithoutRed { proc, node } => {
            MppErrorKind::StoreWithoutRed { proc, node }
        }
        HierErrorKind::LoadWithoutBlue(v) => MppErrorKind::LoadWithoutBlue(v),
        HierErrorKind::MissingInput {
            proc,
            node,
            missing,
        } => MppErrorKind::MissingInput {
            proc,
            node,
            missing,
        },
        HierErrorKind::MemoryExceeded { proc, r } => MppErrorKind::MemoryExceeded { proc, r },
        HierErrorKind::AlreadyPebbled(v) => MppErrorKind::AlreadyPebbled(v),
        HierErrorKind::RemoveAbsent(HierPebble::Red(p, v)) => {
            MppErrorKind::RemoveAbsent(Pebble::Red(p, v))
        }
        HierErrorKind::RemoveAbsent(HierPebble::Blue(v)) => {
            MppErrorKind::RemoveAbsent(Pebble::Blue(v))
        }
        HierErrorKind::NotTerminal(v) => MppErrorKind::NotTerminal(v),
        other => panic!("{other:?} has no two-level counterpart"),
    }
}

/// Plays `mv` through the streaming simulator's per-rule entry points.
fn stream_apply(sim: &mut StreamSim, sink: &mut VecSink, mv: &MppMove) -> Result<(), MppError> {
    let out = match mv {
        MppMove::Compute(b) => sim.compute(sink, b),
        MppMove::Load(b) => sim.load(sink, b),
        MppMove::Store(b) => sim.store(sink, b),
        MppMove::Remove(Pebble::Red(p, v)) => sim.remove_red(sink, *p, *v),
        MppMove::Remove(Pebble::Blue(v)) => sim.remove_blue(sink, *v),
    };
    out.map_err(|e| match e {
        StreamError::Rule(e) => e,
        StreamError::Io(e) => panic!("a VecSink cannot fail: {e}"),
    })
}

/// Random move soup: the simulator applies each move or rejects it
/// without corrupting state; the accepted prefix re-validates to the
/// same cost (modulo terminality, which we repair by ignoring it). The
/// streaming simulator and the three-level simulator at
/// `green_cap = 0`, fed the same moves, accept and reject exactly the
/// same ones with the same error kind and step, and end at the same
/// cost and terminality verdict.
#[test]
fn simulator_accepts_exactly_what_validator_accepts() {
    let mut rng = Rng::new(0x5eed_0001);
    for case in 0..300 {
        let dag = generators::random_dag(8, 0.3, case);
        let inst = MppInstance::new(&dag, 3, 3, 2);
        let mut sim = MppSimulator::new(inst);
        let mut stream = StreamSim::new(&dag, 3, 3);
        let mut sink = VecSink::new();
        let mut hier = HierSimulator::new(HierInstance::from_mpp(&inst, 0, 1));
        let mut accepted = Vec::new();
        let n_moves = rng.index(60);
        for _ in 0..n_moves {
            let mv = arb_move(&mut rng, 3, 8);
            let verdict = sim.apply(mv.clone());
            let streamed = stream_apply(&mut stream, &mut sink, &mv);
            assert_eq!(streamed, verdict, "case {case}: StreamSim on {mv}");
            let tiered = hier.apply(lift(&mv)).map_err(|e| MppError {
                step: e.step,
                kind: lower(e.kind),
            });
            assert_eq!(tiered, verdict, "case {case}: HierSimulator on {mv}");
            if verdict.is_ok() {
                accepted.push(mv);
            }
        }
        assert_eq!(sink.strategy().moves, accepted, "case {case}");
        assert_eq!(stream.cost(), sim.cost(), "case {case}");
        let hc = hier.cost();
        assert_eq!(
            (hc.stores, hc.loads, hc.computes, hc.green_io_steps()),
            (sim.cost().stores, sim.cost().loads, sim.cost().computes, 0),
            "case {case}"
        );
        let finished = sim.clone().finish().map(|run| run.cost);
        let stream_end = stream.finish(&mut sink).map_err(|e| match e {
            StreamError::Rule(e) => e,
            StreamError::Io(e) => panic!("a VecSink cannot fail: {e}"),
        });
        assert_eq!(stream_end, finished.clone().map(drop), "case {case}");
        let hier_end = hier.finish().map_err(|e| MppError {
            step: e.step,
            kind: lower(e.kind),
        });
        assert_eq!(hier_end.map(drop), finished.map(drop), "case {case}");
        // The accepted prefix must replay cleanly (ignore terminality by
        // checking the error kind).
        let strategy = MppStrategy::from_moves(accepted);
        match validate_mpp(&inst, &strategy.moves) {
            Ok(cost) => assert_eq!(cost, sim.cost(), "case {case}"),
            Err(e) => {
                assert!(
                    matches!(e.kind, rbp::core::MppErrorKind::NotTerminal(_)),
                    "case {case}: replay diverged: {e}"
                );
            }
        }
        // Capacity invariant always holds on the live configuration.
        assert!(sim.config().is_valid(inst.r), "case {case}");
        // Async makespan never exceeds the synchronous cost.
        let asy = async_makespan(&inst, &strategy);
        assert!(asy.makespan <= sim.cost().total(inst.model), "case {case}");
    }
}

/// The single-processor kind a `k = 1` MPP kind stands for, for a move
/// on `node`.
fn spp_kind(kind: MppErrorKind, node: NodeId) -> SppErrorKind {
    match kind {
        MppErrorKind::StoreWithoutRed { node, .. } => SppErrorKind::StoreWithoutRed(node),
        MppErrorKind::LoadWithoutBlue(v) => SppErrorKind::LoadWithoutBlue(v),
        MppErrorKind::MissingInput { node, missing, .. } => {
            SppErrorKind::MissingInput { node, missing }
        }
        MppErrorKind::MemoryExceeded { r, .. } => SppErrorKind::MemoryExceeded { node, r },
        MppErrorKind::AlreadyPebbled(v) => SppErrorKind::AlreadyPebbled(v),
        MppErrorKind::RemoveAbsent(_) => SppErrorKind::RemoveAbsent(node),
        MppErrorKind::NotTerminal(v) => SppErrorKind::NotTerminal(v),
        other => panic!("{other:?} cannot arise at k = 1"),
    }
}

/// `mv`, a `k = 1` singleton move, in the single-processor language.
fn to_spp(mv: &MppMove) -> SppMove {
    match mv {
        MppMove::Compute(b) => SppMove::Compute(b[0].1),
        MppMove::Load(b) => SppMove::Load(b[0].1),
        MppMove::Store(b) => SppMove::Store(b[0].1),
        MppMove::Remove(Pebble::Red(_, v)) => SppMove::RemoveRed(*v),
        MppMove::Remove(Pebble::Blue(v)) => SppMove::RemoveBlue(*v),
    }
}

/// At `k = 1` MPP is SPP with computation costs: the same move soup,
/// mapped to single-processor moves, gets the same verdict, error kind
/// and cost from `spp::validate` under `SppInstance::with_compute` as
/// from the MPP simulator.
#[test]
fn single_processor_validator_agrees_at_k1() {
    let mut rng = Rng::new(0x5eed_0004);
    for case in 0..300 {
        let dag = generators::random_dag(8, 0.3, case);
        let inst = MppInstance::new(&dag, 1, 3, 2);
        let single = SppInstance::with_compute(&dag, 3, 2);
        let mut sim = MppSimulator::new(inst);
        let mut accepted: Vec<SppMove> = Vec::new();
        for _ in 0..rng.index(60) {
            let mv = arb_move(&mut rng, 1, 8);
            let smv = to_spp(&mv);
            let mut trial = accepted.clone();
            trial.push(smv);
            let spp_verdict = match spp::validate(&single, &trial) {
                Err(e) if e.step == accepted.len() => Err(e.kind),
                _ => Ok(()),
            };
            let verdict = sim
                .apply(mv.clone())
                .map_err(|e| spp_kind(e.kind, smv.node()));
            assert_eq!(
                spp_verdict, verdict,
                "case {case}: {smv} after {accepted:?}"
            );
            if verdict.is_ok() {
                accepted.push(smv);
            }
        }
        let finished = sim
            .finish()
            .map(|run| run.cost)
            .map_err(|e| (e.step, spp_kind(e.kind, NodeId(0))));
        let replayed = spp::validate(&single, &accepted).map_err(|e| (e.step, e.kind));
        assert_eq!(replayed, finished, "case {case}");
    }
}

/// Rejected moves leave the configuration bit-for-bit unchanged.
#[test]
fn rejected_moves_do_not_mutate() {
    let mut rng = Rng::new(0x5eed_0002);
    for case in 0..200 {
        let dag = generators::random_dag(6, 0.4, case);
        let inst = MppInstance::new(&dag, 2, 2, 1);
        let mut sim = MppSimulator::new(inst);
        let n_moves = 1 + rng.index(39);
        for _ in 0..n_moves {
            let mv = arb_move(&mut rng, 2, 6);
            let before = sim.config().clone();
            let steps = sim.steps();
            if sim.apply(mv).is_err() {
                assert_eq!(sim.config(), &before, "case {case}");
                assert_eq!(sim.steps(), steps, "case {case}");
            }
        }
    }
}

/// The exact solver's witness always replays to its claimed cost on
/// random tiny instances (when the solve fits the budget).
#[test]
fn exact_witness_replays() {
    use rbp::core::{solve_mpp, SolveLimits};
    let mut rng = Rng::new(0x5eed_0003);
    for case in 0..60 {
        let k = 1 + rng.index(2);
        let g = rng.range_u64(1, 4);
        let dag = generators::random_dag(6, 0.3, case);
        let r = dag.max_in_degree() + 1;
        let inst = MppInstance::new(&dag, k, r, g);
        if let Some(sol) = solve_mpp(&inst, SolveLimits::states(200_000)) {
            let cost = sol.strategy.validate(&inst).unwrap();
            assert_eq!(cost.total(inst.model), sol.total, "case {case}");
            // Lemma 1 bracket on the optimum itself.
            assert!(
                sol.total >= rbp::bounds::trivial::lower(&inst),
                "case {case}"
            );
            assert!(
                sol.total <= rbp::bounds::trivial::upper(&inst),
                "case {case}"
            );
        }
    }
}
