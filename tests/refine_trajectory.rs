//! Pins refinement's trajectory. Under a proposal budget `refine` is
//! deterministic per seed, so for every driver on a fixed instance the
//! answer's total, the proposal, acceptance and reheat counts, and a
//! hash of the answer's moves are constants. A change to how proposals
//! are represented or checked must keep every RNG draw and every accept
//! decision, and so every one of these numbers.
//!
//! The replay work is pinned too: `replayed_moves` counts the moves the
//! rule kernel applies inside `refine`, which does not depend on machine
//! load, so its ratio to the proposals is a regression gate for the cost
//! of checking a proposal.

use rbp::core::{MppInstance, MppMove, Pebble};
use rbp::dag::{generators, Dag, NodeId};
use rbp::refine::{refine, Budget, Driver, RefineConfig, RefineOutcome};
use rbp::schedulers::{MppScheduler, TopoBaseline};

/// FNV-1a over a canonical encoding of the moves: per move a rule tag,
/// the selection length and each `(processor, node)` entry.
fn fnv1a(moves: &[MppMove]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for mv in moves {
        let (tag, sel): (u32, Vec<(usize, NodeId)>) = match mv {
            MppMove::Compute(b) => (0, b.clone()),
            MppMove::Load(b) => (1, b.clone()),
            MppMove::Store(b) => (2, b.clone()),
            MppMove::Remove(Pebble::Red(p, v)) => (3, vec![(*p, *v)]),
            MppMove::Remove(Pebble::Blue(v)) => (4, vec![(0, *v)]),
        };
        eat(tag);
        eat(sel.len() as u32);
        for (p, v) in sel {
            eat(p as u32);
            eat(v.0);
        }
    }
    h
}

/// `(dag, k, r, g, proposals)`; case `i` runs with seed `19 + i` from
/// the topological baseline schedule. The last case is the k = 4 one,
/// with 1,216 moves.
fn cases() -> Vec<(Dag, usize, usize, u64, u64)> {
    vec![
        (generators::grid(4, 4), 2, 3, 2, 3000),
        (generators::binary_in_tree(8), 1, 3, 3, 3000),
        (generators::layered_random(4, 6, 2, 11), 2, 4, 2, 3000),
        (generators::fft(5), 4, 4, 2, 800),
    ]
}

const DRIVERS: [Driver; 4] = [Driver::HillClimb, Driver::Anneal, Driver::Lns, Driver::Auto];

fn run(case: usize, driver: Driver) -> RefineOutcome {
    let (dag, k, r, g, budget) = &cases()[case];
    let inst = MppInstance::new(dag, *k, *r, *g);
    let initial = TopoBaseline.schedule(&inst).unwrap().strategy;
    let cfg = RefineConfig {
        seed: 19 + case as u64,
        budget: Budget::proposals(*budget),
        driver,
    };
    refine(&inst, &initial, &cfg).unwrap()
}

/// `(total, proposals, accepted, reheats, move hash)` of one run.
type Trajectory = (u64, u64, u64, u64, u64);

/// The trajectory per case and driver (in `DRIVERS` order), measured
/// with this file's body at the commit before proposals became edits,
/// where every proposal was a copied move list replayed in full.
#[rustfmt::skip]
const EXPECTED: [[Trajectory; 4]; 4] = [
    [
        (95, 851, 17, 0, 0x2ca9_effb_25c8_3104),
        (89, 3000, 291, 0, 0x0531_c932_5d07_8d8b),
        (43, 3000, 1328, 3000, 0xaafc_dfe8_65d9_90ba),
        (70, 3000, 55, 3, 0x97f8_c26a_d04e_8183),
    ],
    [
        (65, 1989, 62, 0, 0x1238_cbe7_4d3d_086a),
        (59, 3000, 294, 0, 0xd787_7f24_3c3c_bdba),
        (81, 3000, 1160, 3000, 0x313b_d9ad_0637_58c7),
        (59, 3000, 90, 1, 0x223a_6c5c_649f_d664),
    ],
    [
        (125, 3000, 95, 0, 0xfdff_909b_07ca_179f),
        (106, 3000, 337, 0, 0xb881_98cb_7c5c_2b42),
        (42, 3000, 167, 3000, 0x2894_6af2_ba56_47ad),
        (125, 3000, 95, 0, 0xfdff_909b_07ca_179f),
    ],
    [
        (1213, 800, 34, 0, 0x5648_3175_adeb_425b),
        (1213, 800, 93, 0, 0x5818_d894_3e49_23cc),
        (547, 800, 84, 800, 0xe705_04b5_10bc_3cff),
        (1213, 800, 34, 0, 0x5648_3175_adeb_425b),
    ],
];

#[test]
fn every_driver_follows_its_pinned_trajectory() {
    for (case, expected) in EXPECTED.iter().enumerate() {
        for (driver, want) in DRIVERS.into_iter().zip(expected) {
            let out = run(case, driver);
            let got = (
                out.total,
                out.proposals,
                out.accepted,
                out.reheats,
                fnv1a(&out.run.strategy.moves),
            );
            assert_eq!(got, *want, "case {case}, {driver:?}");
        }
    }
}

#[test]
fn a_proposal_replays_a_suffix_not_the_strategy() {
    // Hill climbing on the 1,216-move k = 4 case replayed 103,304 moves
    // over its 800 proposals (129.1 per proposal, incumbent builds
    // included) when this gate was set; the ceiling leaves ~10%.
    // Replaying every proposal in full would cost over 1,200.
    let out = run(3, Driver::HillClimb);
    let per_proposal = out.replayed_moves as f64 / out.proposals as f64;
    assert!(
        per_proposal <= 142.0,
        "{} moves replayed over {} proposals ({per_proposal:.1} per proposal)",
        out.replayed_moves,
        out.proposals
    );
}
