//! `exact`: time to a proven optimum.
//!
//! One operation is one sequential exact solve through
//! `solve_mpp_with`, `solve_spp_with` or `solve_hier_with`. Its witness
//! is replayed through the mode's validator and both the claimed and
//! the replayed totals must equal the committed reference optimum in
//! `reference/exact_optima.txt`.
//!
//! Operations cycle through seven equally weighted cases in a seeded
//! order, so p50 and p90 each fall inside one case's block: four cases
//! settle at most ~30k states (their arenas fit in a 2 MiB L2), two
//! settle more than 300k, and a three-level case settles 36k slowly.

use std::time::Instant;

use rbp_core::{
    solve_mpp_with, solve_spp_with, validate_mpp, MppInstance, MppStrategy, SearchConfig,
    SearchOutcome, SppInstance, SppStrategy,
};
use rbp_dag::Dag;
use rbp_hier::{solve_hier_with, validate_hier, HierInstance, HierStrategy};

use crate::spans::Tracer;
use crate::{Metrics, OpResult, Workload};

/// Which game an exact case is posed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Multiprocessor pebbling (`k` shades of red).
    Mpp,
    /// Single-processor pebbling, I/O-only objective.
    Spp,
    /// Three-level pebbling with a shared green tier.
    Hier {
        /// Green-tier capacity.
        cap: usize,
        /// Cost of one green I/O step.
        cost: u64,
    },
}

/// One exact-solve case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Key into the reference optima.
    pub name: &'static str,
    /// Generator family (the `rbp_serve::build_dag` registry).
    pub family: &'static str,
    /// Generator parameters.
    pub params: &'static [usize],
    /// Game.
    pub mode: Mode,
    /// Processors.
    pub k: usize,
    /// Red pebbles per processor.
    pub r: usize,
    /// Blue I/O cost.
    pub g: u64,
}

/// The seven cases. Settled states and single-core times measured on a
/// 2-core x86-64 host are noted per case. Three cases are faster than
/// the fourth-fastest and three slower, each side well apart from it, so
/// p50 reads the fourth case's block rather than the edge of a cluster.
#[rustfmt::skip]
pub const CASES: &[Case] = &[
    // 25k settled, ~27 ms: the k = 1 single-processor game.
    Case { name: "spp_grid3x4", family: "grid", params: &[3, 4], mode: Mode::Spp, k: 1, r: 3, g: 1 },
    // 3.4k settled, ~38 ms: the green-tier separation gadget.
    Case { name: "hier_skip3_k2", family: "hier_skip", params: &[3], mode: Mode::Hier { cap: 2, cost: 1 }, k: 2, r: 3, g: 2 },
    // 10k settled, ~40 ms.
    Case { name: "hier_grid3x3_k2", family: "grid", params: &[3, 3], mode: Mode::Hier { cap: 2, cost: 1 }, k: 2, r: 3, g: 2 },
    // 27k settled, ~80 ms: the ci.sh settled-state guard instance.
    Case { name: "mpp_grid3x3_k2", family: "grid", params: &[3, 3], mode: Mode::Mpp, k: 2, r: 3, g: 2 },
    // 36k settled, ~0.34 s: the three-level search costs ~10 µs a state.
    Case { name: "hier_skip4_k2", family: "hier_skip", params: &[4], mode: Mode::Hier { cap: 2, cost: 1 }, k: 2, r: 3, g: 2 },
    // 313k settled, ~0.39 s: beyond L2.
    Case { name: "spp_layered5x3", family: "layered", params: &[5, 3, 2, 11], mode: Mode::Spp, k: 1, r: 3, g: 1 },
    // 340k settled, ~0.56 s: beyond L2.
    Case { name: "mpp_pyramid4_k1", family: "pyramid", params: &[4], mode: Mode::Mpp, k: 1, r: 3, g: 2 },
];

const REFERENCE: &str = include_str!("../reference/exact_optima.txt");

/// The committed reference optimum of case `name`.
#[must_use]
pub fn reference(name: &str) -> Option<u64> {
    REFERENCE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let (n, v) = l.split_once(char::is_whitespace)?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
}

/// A witness strategy in its mode's move language.
#[derive(Debug, Clone)]
pub enum Witness {
    /// MPP moves.
    Mpp(MppStrategy),
    /// SPP moves.
    Spp(SppStrategy),
    /// Three-level moves.
    Hier(HierStrategy),
}

impl Witness {
    /// Number of moves.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Witness::Mpp(s) => s.len(),
            Witness::Spp(s) => s.len(),
            Witness::Hier(s) => s.len(),
        }
    }

    /// Whether the witness has no moves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A solve's answer: claimed optimum, witness, and search counters.
pub struct Solved {
    /// The solver's claimed optimal total.
    pub total: u64,
    /// The witness strategy.
    pub witness: Witness,
    /// Search counters.
    pub stats: rbp_core::SearchStats,
    /// Phase accounting (populated under `RBP_PHASE_PROF=1`).
    pub phases: rbp_core::PhaseStats,
}

fn unpack<T>(out: SearchOutcome<T>, f: impl FnOnce(T) -> (u64, Witness)) -> Result<Solved, String> {
    let reason = out.reason;
    let sol = out
        .solution
        .ok_or_else(|| format!("no solution (stopped: {})", reason.as_str()))?;
    let (total, witness) = f(sol);
    Ok(Solved {
        total,
        witness,
        stats: out.stats,
        phases: out.phases,
    })
}

/// Solves `case` on `dag` with `threads` search threads.
///
/// # Errors
/// When the solver stops without a solution.
pub fn solve(case: &Case, dag: &Dag, threads: usize) -> Result<Solved, String> {
    let cfg = SearchConfig::default().with_threads(threads);
    match case.mode {
        Mode::Mpp => unpack(
            solve_mpp_with(&MppInstance::new(dag, case.k, case.r, case.g), &cfg),
            |s| (s.total, Witness::Mpp(s.strategy)),
        ),
        Mode::Spp => unpack(
            solve_spp_with(&SppInstance::io_only(dag, case.r, case.g), &cfg),
            |s| (s.total, Witness::Spp(s.strategy)),
        ),
        Mode::Hier { cap, cost } => {
            let mpp = MppInstance::new(dag, case.k, case.r, case.g);
            unpack(
                solve_hier_with(&HierInstance::from_mpp(&mpp, cap, cost), &cfg),
                |s| (s.total, Witness::Hier(s.strategy)),
            )
        }
    }
}

/// Replays `witness` through its mode's validator and checks that the
/// replayed total, the `claimed` total and the `reference` optimum all
/// agree. Returns the replayed total.
///
/// # Errors
/// An illegal move, a mode mismatch, or any disagreement of totals.
pub fn check_witness(
    case: &Case,
    dag: &Dag,
    claimed: u64,
    witness: &Witness,
    reference: u64,
) -> Result<u64, String> {
    let replayed = match (case.mode, witness) {
        (Mode::Mpp, Witness::Mpp(s)) => {
            let inst = MppInstance::new(dag, case.k, case.r, case.g);
            validate_mpp(&inst, &s.moves)
                .map_err(|e| e.to_string())?
                .total(inst.model)
        }
        (Mode::Spp, Witness::Spp(s)) => {
            let inst = SppInstance::io_only(dag, case.r, case.g);
            rbp_core::spp::validate(&inst, &s.moves)
                .map_err(|e| e.to_string())?
                .total(inst.model)
        }
        (Mode::Hier { cap, cost }, Witness::Hier(s)) => {
            let mpp = MppInstance::new(dag, case.k, case.r, case.g);
            let inst = HierInstance::from_mpp(&mpp, cap, cost);
            validate_hier(&inst, &s.moves)
                .map_err(|e| e.to_string())?
                .total(inst.model)
        }
        _ => return Err("witness is in another mode's move language".into()),
    };
    if replayed != claimed {
        return Err(format!(
            "claimed total {claimed} but the witness replays to {replayed}"
        ));
    }
    if claimed != reference {
        return Err(format!(
            "total {claimed} differs from the reference optimum {reference}"
        ));
    }
    Ok(replayed)
}

/// The seeded case order: one permutation of [`CASES`], repeated.
#[must_use]
pub fn plan(seed: u64) -> Vec<usize> {
    crate::permutation(CASES.len(), seed ^ 0xe8ac7)
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Acc {
    solves: u64,
    settled: u64,
    pushed: u64,
    frontier_peak: u64,
    h_root_ratio: f64,
    bytes_per_state: f64,
    solve_ns: u64,
    phases: rbp_core::PhaseStats,
    by_mode: [(u64, u64); 3],
    validate_calls: u64,
    validate_ns: u64,
    validate_moves: u64,
}

/// The exact workload's state.
pub struct Exact {
    dags: Vec<Dag>,
    refs: Vec<u64>,
    order: Vec<usize>,
    acc: Acc,
}

impl Exact {
    /// Builds every case's DAG, loads the reference optima, and warms up
    /// with one solve of the cheapest case.
    ///
    /// # Panics
    /// When a case has no reference optimum or its generator fails —
    /// both are bugs in this file.
    #[must_use]
    pub fn setup(seed: u64) -> Exact {
        let dags: Vec<Dag> = CASES
            .iter()
            .map(|c| rbp_serve::build_dag(c.family, c.params).expect("case generator"))
            .collect();
        let refs = CASES
            .iter()
            .map(|c| {
                reference(c.name).unwrap_or_else(|| panic!("no reference optimum for {}", c.name))
            })
            .collect();
        let warm = CASES
            .iter()
            .position(|c| c.name == "spp_grid3x4")
            .unwrap_or(0);
        std::hint::black_box(solve(&CASES[warm], &dags[warm], 1).ok());
        Exact {
            dags,
            refs,
            order: plan(seed),
            acc: Acc::default(),
        }
    }
}

impl Workload for Exact {
    fn cycle(&self) -> usize {
        CASES.len()
    }

    fn run_op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let idx = self.order[(i % CASES.len() as u64) as usize];
        let case = &CASES[idx];
        let dag = &self.dags[idx];
        let t = Instant::now();
        let solved = tr.span("core.search", i, |_| solve(case, dag, 1));
        let solve_ns = t.elapsed().as_nanos() as u64;
        let solved = match solved {
            Ok(s) => s,
            Err(e) => return OpResult::failed(format!("{}: {e}", case.name)),
        };
        let t = Instant::now();
        let checked = tr.span("core.validate", i, |_| {
            check_witness(case, dag, solved.total, &solved.witness, self.refs[idx])
        });
        if tr.enabled() {
            let a = &mut self.acc;
            a.solves += 1;
            a.settled += solved.stats.settled;
            a.pushed += solved.stats.pushed;
            a.frontier_peak += solved.stats.frontier_peak;
            a.h_root_ratio += solved.stats.h_root as f64 / solved.total.max(1) as f64;
            a.bytes_per_state += solved.stats.bytes_per_state();
            a.solve_ns += solve_ns;
            a.phases.merge(&solved.phases);
            let m = match case.mode {
                Mode::Mpp => 0,
                Mode::Spp => 1,
                Mode::Hier { .. } => 2,
            };
            a.by_mode[m].0 += 1;
            a.by_mode[m].1 += solve_ns;
            a.validate_calls += 1;
            a.validate_ns += t.elapsed().as_nanos() as u64;
            a.validate_moves += solved.witness.len() as u64;
        }
        match checked {
            Ok(total) => OpResult::ok(Some(total)),
            Err(e) => OpResult::failed(format!("{}: {e}", case.name)),
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) -> Vec<String> {
        let a = &self.acc;
        let n = a.solves.max(1) as f64;
        out.set("core.search.settled", a.settled as f64 / n, "count");
        out.set("core.search.pushed", a.pushed as f64 / n, "count");
        out.set(
            "core.search.frontier_peak",
            a.frontier_peak as f64 / n,
            "count",
        );
        out.set("core.search.h_root_ratio", a.h_root_ratio / n, "ratio");
        out.set(
            "core.search.settled_per_s",
            a.settled as f64 / (a.solve_ns.max(1) as f64 / 1e9),
            "1/s",
        );
        out.set(
            "core.search.arena_bytes_per_state",
            a.bytes_per_state / n,
            "B",
        );
        let p = &a.phases;
        let ratio = |x: u64, y: u64| x as f64 / (x + y).max(1) as f64;
        out.set(
            "core.search.canon_memo_rate",
            ratio(p.canon_memo_hits, p.canon_sorts),
            "ratio",
        );
        out.set(
            "core.search.heur_delta_rate",
            ratio(p.heur_delta_fast, p.heur_full_evals),
            "ratio",
        );
        out.set(
            "core.search.ub_pruned_ratio",
            p.ub_pruned as f64 / p.emitted.max(1) as f64,
            "ratio",
        );
        for (name, ns) in [
            ("canonicalize", p.canonicalize_ns),
            ("heuristic", p.heuristic_ns),
            ("succ_gen", p.succ_gen_ns),
            ("hash_intern", p.hash_intern_ns),
            ("queue", p.queue_ns),
        ] {
            out.set(
                format!("core.search.phase_ms.{name}"),
                ns as f64 / 1e6 / n,
                "ms",
            );
        }
        for (m, label) in ["mpp", "spp", "hier"].iter().enumerate() {
            let (count, ns) = a.by_mode[m];
            out.set(
                format!("core.search.solve_ms.{label}"),
                ns as f64 / 1e6 / count.max(1) as f64,
                "ms",
            );
        }
        out.set("core.validate.calls", a.validate_calls as f64 / n, "count");
        out.set(
            "core.validate.ns_per_move",
            a.validate_ns as f64 / a.validate_moves.max(1) as f64,
            "ns",
        );
        out.set("core.validate.ms", a.validate_ns as f64 / 1e6 / n, "ms");

        // The sharded driver, measured once outside the timed phase: a
        // two-thread solve of the k = 2 grid must prove the same optimum.
        let mut errors = Vec::new();
        let idx = CASES
            .iter()
            .position(|c| c.name == "mpp_grid3x3_k2")
            .unwrap_or(0);
        let (case, dag) = (&CASES[idx], &self.dags[idx]);
        match solve(case, dag, 2) {
            Ok(s) => {
                if let Err(e) = check_witness(case, dag, s.total, &s.witness, self.refs[idx]) {
                    errors.push(format!("{} at threads=2: {e}", case.name));
                }
                out.set(
                    "core.driver.cross_sends_per_settled",
                    s.stats.cross_sends as f64 / s.stats.settled.max(1) as f64,
                    "ratio",
                );
                out.set(
                    "core.driver.locality_fraction",
                    s.stats.locality_fraction(),
                    "ratio",
                );
            }
            Err(e) => errors.push(format!("{} at threads=2: {e}", case.name)),
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_has_a_reference_optimum() {
        for c in CASES {
            assert!(reference(c.name).is_some(), "{}", c.name);
        }
        assert_eq!(
            CASES.len() % 2,
            1,
            "an odd case count keeps p50 inside one block"
        );
    }

    #[test]
    fn plan_is_seed_deterministic() {
        assert_eq!(plan(11), plan(11));
        assert!((0..8).any(|s| plan(s) != plan(11)));
    }

    /// A corrupted answer — a wrong claimed total, or a witness with an
    /// illegal move — is a failure, never a pass.
    #[test]
    fn checker_rejects_corrupted_answers() {
        let case = Case {
            name: "t",
            family: "grid",
            params: &[2, 3],
            mode: Mode::Mpp,
            k: 2,
            r: 3,
            g: 2,
        };
        let dag = rbp_serve::build_dag(case.family, case.params).unwrap();
        let s = solve(&case, &dag, 1).unwrap();
        assert_eq!(
            check_witness(&case, &dag, s.total, &s.witness, s.total),
            Ok(s.total)
        );
        // Wrong claimed total.
        assert!(check_witness(&case, &dag, s.total + 1, &s.witness, s.total + 1).is_err());
        // Right claim, wrong reference.
        assert!(check_witness(&case, &dag, s.total, &s.witness, s.total - 1).is_err());
        // Illegal move: drop the first move (a compute or load the rest
        // depends on).
        let Witness::Mpp(strategy) = &s.witness else {
            panic!("mpp witness")
        };
        let mut moves = strategy.moves.clone();
        moves.remove(0);
        let broken = Witness::Mpp(MppStrategy::from_moves(moves));
        assert!(check_witness(&case, &dag, s.total, &broken, s.total).is_err());
        // A witness in the wrong move language.
        let spp = Witness::Spp(SppStrategy::new());
        assert!(check_witness(&case, &dag, s.total, &spp, s.total).is_err());
    }

    #[test]
    fn hier_and_spp_witnesses_replay() {
        for case in [
            Case {
                name: "t",
                family: "grid",
                params: &[2, 3],
                mode: Mode::Spp,
                k: 1,
                r: 3,
                g: 1,
            },
            Case {
                name: "t",
                family: "hier_skip",
                params: &[1],
                mode: Mode::Hier { cap: 1, cost: 1 },
                k: 1,
                r: 3,
                g: 3,
            },
        ] {
            let dag = rbp_serve::build_dag(case.family, case.params).unwrap();
            let s = solve(&case, &dag, 1).unwrap();
            assert_eq!(
                check_witness(&case, &dag, s.total, &s.witness, s.total),
                Ok(s.total)
            );
            assert!(check_witness(&case, &dag, s.total + 1, &s.witness, s.total).is_err());
        }
    }
}
