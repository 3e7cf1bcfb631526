//! A racing solver portfolio with a shared incumbent.
//!
//! [`race`] runs every registered scheduler, anytime refinement, and —
//! when the instance is small enough — the exact A\* solver
//! concurrently on `std::thread` workers. All workers publish into one
//! shared incumbent (an atomic cost bound plus a mutex-guarded best
//! strategy); refinement workers *steal* the current best as their
//! starting point between chunks, so a scheduler's head start
//! immediately seeds the local search, and an exact-solver win stops
//! everyone early.
//!
//! Every submitted strategy has already been validated (schedulers and
//! refinement only produce validated runs; the exact solver's witness is
//! re-validated here), so the portfolio's answer is always a legal
//! strategy with its true cost, together with provenance naming the
//! worker that found it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rbp_core::{
    batchify, solve_mpp_with, validate_mpp, GameMode, MppError, MppInstance, MppMove, MppRun,
    MppStrategy, SearchConfig, SolveLimits,
};
use rbp_schedulers::all_schedulers;
use rbp_util::Rng;

use crate::drivers::{refine, Budget, Driver, RefineConfig};
use crate::recreate;

/// Configuration of one portfolio race.
#[derive(Debug, Clone, Copy)]
pub struct PortfolioConfig {
    /// Overall wall-clock budget in milliseconds. Schedulers always run
    /// to completion; refinement stops at the deadline; the exact solver
    /// is bounded by `exact_max_states` rather than time.
    pub budget_millis: u64,
    /// Base seed for all randomized workers (combine with
    /// [`rbp_util::env_seed`] for `RBP_SEED` plumbing).
    pub seed: u64,
    /// Whether to enter the exact solver when the instance fits
    /// (`n ≤ 64`, `k ≤ 4`).
    pub use_exact: bool,
    /// State budget handed to the exact solver (keeps its runtime
    /// roughly proportional to the race budget).
    pub exact_max_states: usize,
    /// Worker threads for the exact solver (`≥ 2` runs the sharded
    /// parallel engine; same proven optimum).
    pub exact_threads: usize,
    /// Number of concurrent refinement workers.
    pub refine_workers: usize,
    /// Game mode, carried from the workspace-wide [`GameMode`] flag
    /// parser. The race itself answers the two-level question; with
    /// [`GameMode::Hier`] it gains a `hier-exact` lane that solves the
    /// lifted three-level instance and submits the *flattened* witness
    /// (`rbp_hier::hier_to_mpp`) into the shared incumbent — a legal
    /// two-level strategy, never marked proven-optimal.
    pub mode: GameMode,
}

impl Default for PortfolioConfig {
    /// One second, two refinement workers, exact solver capped at
    /// 200 000 settled states.
    fn default() -> Self {
        PortfolioConfig {
            budget_millis: 1000,
            seed: 0,
            use_exact: true,
            exact_max_states: 200_000,
            exact_threads: 1,
            refine_workers: 2,
            mode: GameMode::Vanilla,
        }
    }
}

/// One worker's contribution to the race, for reporting.
#[derive(Debug, Clone)]
pub struct PortfolioEntry {
    /// Worker name (scheduler name, `"exact-a*"`, `"refine-w<i>"`).
    pub name: String,
    /// Best total cost this worker submitted (`None` when it produced
    /// nothing, e.g. the exact solver hit its state budget).
    pub total: Option<u64>,
    /// Wall-clock milliseconds the worker spent.
    pub millis: u64,
}

/// The winner of a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The best validated run found.
    pub run: MppRun,
    /// Its total cost under the instance model.
    pub total: u64,
    /// Which worker produced the winning strategy.
    pub provenance: String,
    /// Per-worker contributions, in spawn order.
    pub entries: Vec<PortfolioEntry>,
    /// `true` when the exact solver finished, so `total` is OPT.
    pub proven_optimal: bool,
}

/// The cross-thread incumbent: an atomic bound for cheap reads plus the
/// mutex-guarded best strategy for steals and the final answer.
struct Shared {
    bound: AtomicU64,
    best: Mutex<Option<(u64, Vec<MppMove>, String)>>,
    optimal: AtomicBool,
}

impl Shared {
    fn new() -> Self {
        Shared {
            bound: AtomicU64::new(u64::MAX),
            best: Mutex::new(None),
            optimal: AtomicBool::new(false),
        }
    }

    /// Publishes `(total, moves)` when strictly better than the current
    /// incumbent. Returns whether it became the new best.
    fn submit(&self, total: u64, moves: Vec<MppMove>, name: &str) -> bool {
        if total >= self.bound.load(Ordering::Relaxed) {
            return false;
        }
        let mut guard = self.best.lock().unwrap();
        let better = guard.as_ref().is_none_or(|(t, _, _)| total < *t);
        if better {
            self.bound.store(total, Ordering::Relaxed);
            *guard = Some((total, moves, name.to_string()));
            drop(guard);
            rbp_trace::gauge("portfolio.incumbent", total as f64);
        }
        better
    }

    /// Clones the current best move list (for work stealing).
    fn steal(&self) -> Option<(u64, Vec<MppMove>)> {
        self.best
            .lock()
            .unwrap()
            .as_ref()
            .map(|(t, m, _)| (*t, m.clone()))
    }
}

/// Races all registered schedulers, `cfg.refine_workers` refinement
/// workers, and (when feasible and enabled) the exact solver on
/// `instance`, returning the best strategy found with provenance.
///
/// The topological baseline runs first on the calling thread, so an
/// infeasible instance fails fast with its error and every refinement
/// worker has a valid strategy to steal from the start.
pub fn race(instance: &MppInstance, cfg: &PortfolioConfig) -> Result<PortfolioOutcome, MppError> {
    let _span = rbp_trace::span_with(
        "portfolio.race",
        vec![
            ("n", rbp_trace::Json::from(instance.dag.n())),
            ("k", rbp_trace::Json::from(instance.k)),
            ("r", rbp_trace::Json::from(instance.r)),
            ("budget_ms", rbp_trace::Json::from(cfg.budget_millis)),
            ("seed", rbp_trace::Json::from(cfg.seed)),
            ("mode", rbp_trace::Json::from(cfg.mode.token())),
        ],
    );
    let shared = Shared::new();
    let deadline = Instant::now() + Duration::from_millis(cfg.budget_millis);

    // Seed the incumbent synchronously; propagates infeasibility.
    let schedulers = all_schedulers();
    let mut entries: Vec<PortfolioEntry> = Vec::new();
    {
        let started = Instant::now();
        let base = schedulers[0].schedule(instance)?;
        let merged = batchify(instance, &base.strategy);
        let total = validate_mpp(instance, &merged.moves)?.total(instance.model);
        shared.submit(total, merged.moves, &schedulers[0].name());
        entries.push(PortfolioEntry {
            name: schedulers[0].name(),
            total: Some(total),
            millis: elapsed_ms(started),
        });
    }

    let exact_feasible = cfg.use_exact && instance.dag.n() <= 64 && (1..=4).contains(&instance.k);

    let late_entries: Vec<PortfolioEntry> = std::thread::scope(|scope| {
        let shared = &shared;
        let mut handles = Vec::new();

        for sched in &schedulers[1..] {
            handles.push(scope.spawn(move || {
                let started = Instant::now();
                let name = sched.name();
                let Ok(run) = sched.schedule(instance) else {
                    return PortfolioEntry {
                        name,
                        total: None,
                        millis: elapsed_ms(started),
                    };
                };
                let merged = batchify(instance, &run.strategy);
                let total = match validate_mpp(instance, &merged.moves) {
                    Ok(c) => c.total(instance.model),
                    Err(_) => {
                        return PortfolioEntry {
                            name,
                            total: None,
                            millis: elapsed_ms(started),
                        }
                    }
                };
                shared.submit(total, merged.moves, &format!("{name}+batchify"));
                PortfolioEntry {
                    name,
                    total: Some(total),
                    millis: elapsed_ms(started),
                }
            }));
        }

        if exact_feasible {
            let search = SearchConfig::default()
                .with_limits(SolveLimits::states(cfg.exact_max_states))
                .with_threads(cfg.exact_threads.max(1));
            handles.push(scope.spawn(move || {
                let started = Instant::now();
                let sol = solve_mpp_with(instance, &search).solution;
                let total = sol.map(|sol| {
                    shared.submit(sol.total, sol.strategy.moves, "exact-a*");
                    shared.optimal.store(true, Ordering::Relaxed);
                    sol.total
                });
                PortfolioEntry {
                    name: "exact-a*".to_string(),
                    total,
                    millis: elapsed_ms(started),
                }
            }));
        }

        if exact_feasible && cfg.mode.is_hier() {
            // The three-level solver explores the green-augmented state
            // space, and the flattening projection turns its witness
            // into a legal two-level strategy — a consistency lane that
            // can seed the incumbent with structure the two-level
            // search reaches later (never a proof of MPP optimality).
            let search = SearchConfig::default()
                .with_limits(SolveLimits::states(cfg.exact_max_states))
                .with_threads(1);
            let mode = cfg.mode;
            handles.push(scope.spawn(move || {
                let started = Instant::now();
                let hinst =
                    rbp_hier::HierInstance::from_mode(instance, mode).expect("is_hier was checked");
                let total = rbp_hier::solve_hier_with(&hinst, &search)
                    .solution
                    .and_then(|sol| {
                        let projected = rbp_hier::hier_to_mpp(&hinst, &sol.strategy);
                        let cost = validate_mpp(instance, &projected.moves).ok()?;
                        let total = cost.total(instance.model);
                        shared.submit(total, projected.moves, "hier-exact(projected)");
                        Some(total)
                    });
                PortfolioEntry {
                    name: "hier-exact".to_string(),
                    total,
                    millis: elapsed_ms(started),
                }
            }));
        }

        for w in 0..cfg.refine_workers {
            let seed = cfg.seed.wrapping_add(0x9e37 * (w as u64 + 1));
            handles.push(scope.spawn(move || {
                let started = Instant::now();
                let mut rng = Rng::new(seed);
                let mut best: Option<u64> = None;
                while Instant::now() < deadline && !shared.optimal.load(Ordering::Relaxed) {
                    // Steal the incumbent; diversify with a fresh greedy
                    // build once in a while so workers don't all polish
                    // the same local optimum.
                    let initial = match shared.steal() {
                        Some((_, moves)) if !rng.bool(0.25) => MppStrategy::from_moves(moves),
                        _ => match recreate::greedy_from_scratch(instance, &mut rng) {
                            Ok(run) => run.strategy,
                            Err(_) => break,
                        },
                    };
                    let left = deadline.saturating_duration_since(Instant::now());
                    let chunk = u64::try_from(left.as_millis()).unwrap_or(u64::MAX).min(150);
                    if chunk == 0 {
                        break;
                    }
                    let rcfg = RefineConfig {
                        seed: rng.next_u64(),
                        budget: Budget::millis(chunk),
                        driver: Driver::Auto,
                    };
                    let Ok(out) = refine(instance, &initial, &rcfg) else {
                        break;
                    };
                    shared.submit(out.total, out.run.strategy.moves, &format!("refine-w{w}"));
                    best = Some(best.map_or(out.total, |b: u64| b.min(out.total)));
                }
                PortfolioEntry {
                    name: format!("refine-w{w}"),
                    total: best,
                    millis: elapsed_ms(started),
                }
            }));
        }

        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    entries.extend(late_entries);

    let (total, moves, provenance) = shared
        .best
        .into_inner()
        .unwrap()
        .expect("baseline scheduler seeded the incumbent");
    let strategy = MppStrategy::from_moves(moves);
    let cost = validate_mpp(instance, &strategy.moves)?;
    debug_assert_eq!(cost.total(instance.model), total);
    let proven_optimal = shared.optimal.load(Ordering::Relaxed);
    rbp_trace::event(
        "portfolio.winner",
        vec![
            ("provenance", rbp_trace::Json::from(provenance.as_str())),
            ("total", rbp_trace::Json::from(total)),
            ("proven_optimal", rbp_trace::Json::from(proven_optimal)),
        ],
    );
    Ok(PortfolioOutcome {
        run: MppRun { strategy, cost },
        total,
        provenance,
        entries,
        proven_optimal,
    })
}

fn elapsed_ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_dag::generators;
    use rbp_schedulers::MppScheduler;

    #[test]
    fn race_beats_or_matches_baseline_and_validates() {
        let dag = generators::grid(3, 3);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let base = rbp_schedulers::TopoBaseline
            .schedule(&inst)
            .unwrap()
            .cost
            .total(inst.model);
        let cfg = PortfolioConfig {
            budget_millis: 400,
            ..PortfolioConfig::default()
        };
        let out = race(&inst, &cfg).unwrap();
        assert!(out.total <= base);
        let cost = validate_mpp(&inst, &out.run.strategy.moves).unwrap();
        assert_eq!(cost.total(inst.model), out.total);
        assert!(!out.entries.is_empty());
        assert!(!out.provenance.is_empty());
    }

    #[test]
    fn exact_win_is_marked_optimal() {
        // Tiny instance: the exact solver must finish and claim the race.
        let dag = generators::chain(4);
        let inst = MppInstance::new(&dag, 1, 2, 2);
        let cfg = PortfolioConfig {
            budget_millis: 2000,
            ..PortfolioConfig::default()
        };
        let out = race(&inst, &cfg).unwrap();
        assert!(out.proven_optimal);
        assert_eq!(out.total, 4, "chain(4) OPT is 4 computes");
    }

    #[test]
    fn exact_disabled_still_returns_validated_best() {
        let dag = generators::independent_chains(2, 4);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let cfg = PortfolioConfig {
            budget_millis: 500,
            use_exact: false,
            ..PortfolioConfig::default()
        };
        let out = race(&inst, &cfg).unwrap();
        assert!(!out.proven_optimal);
        validate_mpp(&inst, &out.run.strategy.moves).unwrap();
        // Refinement should strip the baseline's useless I/O entirely.
        assert_eq!(out.total, 4, "refined cost should reach OPT=4");
    }

    #[test]
    fn hier_mode_adds_a_projected_lane() {
        let dag = generators::grid(2, 3);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let cfg = PortfolioConfig {
            budget_millis: 300,
            mode: GameMode::Hier {
                green_cap: 2,
                green_cost: 1,
            },
            ..PortfolioConfig::default()
        };
        let out = race(&inst, &cfg).unwrap();
        let hier = out
            .entries
            .iter()
            .find(|e| e.name == "hier-exact")
            .expect("hier mode spawns the projected lane");
        // The flattened witness is a legal two-level strategy, so its
        // total can never undercut the proven two-level optimum.
        assert!(out.proven_optimal);
        assert!(hier.total.expect("tiny instance solves") >= out.total);

        // Vanilla mode (the default) never spawns the lane.
        let plain = race(
            &inst,
            &PortfolioConfig {
                budget_millis: 100,
                ..PortfolioConfig::default()
            },
        )
        .unwrap();
        assert!(plain.entries.iter().all(|e| e.name != "hier-exact"));
    }

    #[test]
    fn infeasible_instance_fails_fast() {
        let dag = generators::binary_in_tree(4);
        // r = 2 < max_in_degree + 1 = 3: no strategy exists.
        let inst = MppInstance::new(&dag, 2, 2, 2);
        assert!(race(&inst, &PortfolioConfig::default()).is_err());
    }
}
