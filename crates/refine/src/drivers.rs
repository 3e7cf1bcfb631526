//! Anytime metaheuristic drivers over the neighborhood model.
//!
//! All drivers are *anytime*: they keep a validated incumbent at all
//! times, improve it monotonically, and stop at a wall-clock or
//! proposal-count budget — the step budget makes runs bit-deterministic
//! per seed, which the tests rely on. Three strategies are provided:
//!
//! - [`Driver::HillClimb`] — first-improvement descent: accept the
//!   first strictly improving neighbor, with occasional cost-neutral
//!   sideways steps to slide along plateaus;
//! - [`Driver::Anneal`] — simulated annealing with geometric cooling
//!   and automatic *reheating* when the walk freezes, so long budgets
//!   keep exploring instead of converging early;
//! - [`Driver::Lns`] — large-neighborhood "ruin & recreate": cut the
//!   incumbent at a random point and greedily reschedule the tail
//!   (see [`crate::recreate`]);
//! - [`Driver::Auto`] (default) — interleaves hill climbing to a local
//!   optimum with ruin-and-recreate kicks, restarting the descent from
//!   every improved rebuild.
//!
//! Hill climbing and annealing walk an [`Incumbent`]: each proposal is
//! an edit checked by resuming the one replay loop at the incumbent's
//! nearest checkpoint, and the incumbent is replayed (with checkpoints)
//! once per acceptance, at the start of a walk and on each reheat.
//! Whole-strategy transforms (the free first re-batching and the LNS
//! kick) replay in full. Costs are only ever read off a successful
//! replay, and the answer is re-validated with
//! [`rbp_core::mpp::strategy::validate`].

use std::time::Instant;

use rbp_core::{validate_mpp, MppError, MppInstance, MppMove, MppRun, MppStrategy};
use rbp_trace::CounterSet;
use rbp_util::Rng;

use crate::neighborhood::{Incumbent, MoveKind, Neighborhood};
use crate::recreate;

/// Stop conditions for a refinement run (whichever trips first).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock limit in milliseconds.
    pub max_millis: u64,
    /// Maximum number of proposals (deterministic budget).
    pub max_proposals: u64,
}

impl Budget {
    /// Wall-clock budget only.
    #[must_use]
    pub fn millis(ms: u64) -> Self {
        Budget {
            max_millis: ms,
            max_proposals: u64::MAX,
        }
    }

    /// Proposal-count budget only (bit-deterministic per seed).
    #[must_use]
    pub fn proposals(n: u64) -> Self {
        Budget {
            max_millis: u64::MAX,
            max_proposals: n,
        }
    }
}

impl Default for Budget {
    /// One second of wall clock.
    fn default() -> Self {
        Budget::millis(1000)
    }
}

/// Which metaheuristic drives the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Driver {
    /// First-improvement hill climbing.
    HillClimb,
    /// Simulated annealing with reheating.
    Anneal,
    /// Large-neighborhood ruin & recreate.
    Lns,
    /// Hill climbing with ruin-and-recreate kicks (the default).
    #[default]
    Auto,
}

impl Driver {
    /// Stable name used in provenance strings and trace fields.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Driver::HillClimb => "hill",
            Driver::Anneal => "anneal",
            Driver::Lns => "lns",
            Driver::Auto => "auto",
        }
    }
}

/// Configuration of one refinement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefineConfig {
    /// Base RNG seed (combine with [`rbp_util::env_seed`] for
    /// `RBP_SEED` plumbing).
    pub seed: u64,
    /// Stop conditions.
    pub budget: Budget,
    /// The metaheuristic to run.
    pub driver: Driver,
}

/// The result of a refinement run.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// Best strategy found (always validates; equals the input when no
    /// improvement was found).
    pub run: MppRun,
    /// Total cost of [`RefineOutcome::run`] under the instance model.
    pub total: u64,
    /// Total cost of the initial strategy (after validation).
    pub initial_total: u64,
    /// Neighbors proposed.
    pub proposals: u64,
    /// Neighbors accepted (including sideways/uphill moves).
    pub accepted: u64,
    /// Annealing reheats or LNS kicks performed.
    pub reheats: u64,
    /// Moves the rule kernel applied while evaluating proposals and
    /// building incumbents' checkpoints: a load-independent measure of
    /// the replay work (the input's and the answer's validations are not
    /// counted).
    pub replayed_moves: u64,
    /// Human-readable lineage, e.g. `"auto(seed=7)"`.
    pub provenance: String,
}

/// Refines `initial` for `instance` under `cfg` and returns the best
/// strategy found. The initial strategy must be valid — an invalid
/// input is an error, not a silent restart.
///
/// Emits an `refine.run` trace span, a `refine.incumbent` gauge at every
/// improvement, and `refine.{proposed,accepted,invalid}.<move>` and
/// `refine.replayed_moves` counters on completion (all no-ops when
/// tracing is off).
pub fn refine(
    instance: &MppInstance,
    initial: &MppStrategy,
    cfg: &RefineConfig,
) -> Result<RefineOutcome, MppError> {
    let initial_cost = validate_mpp(instance, &initial.moves)?;
    let initial_total = initial_cost.total(instance.model);
    let _span = rbp_trace::span_with(
        "refine.run",
        vec![
            ("driver", rbp_trace::Json::from(cfg.driver.name())),
            ("seed", rbp_trace::Json::from(cfg.seed)),
            ("n", rbp_trace::Json::from(instance.dag.n())),
            ("k", rbp_trace::Json::from(instance.k)),
            ("initial_total", rbp_trace::Json::from(initial_total)),
        ],
    );

    let mut search = Search {
        nb: Neighborhood::new(*instance),
        rng: Rng::new(cfg.seed ^ 0x5eed_ab1e),
        outcomes: Outcomes::default(),
        started: Instant::now(),
        budget: cfg.budget,
        proposals: 0,
        accepted: 0,
        reheats: 0,
        best_moves: initial.moves.clone(),
        best_total: initial_total,
    };
    // Free first move: re-batching the input never costs budget.
    search.try_accept_global(MoveKind::Batchify, |inst, moves| {
        Some(rbp_core::batchify(inst, &MppStrategy::from_moves(moves.to_vec())).moves)
    });

    match cfg.driver {
        Driver::HillClimb => search.hill_climb(u64::MAX),
        Driver::Anneal => search.anneal(),
        Driver::Lns => search.lns_loop(),
        Driver::Auto => search.auto(),
    }

    let best = MppStrategy::from_moves(search.best_moves.clone());
    let cost = validate_mpp(instance, &best.moves)?;
    debug_assert_eq!(cost.total(instance.model), search.best_total);
    let replayed_moves = search.nb.replayed_moves();
    if rbp_trace::enabled() {
        search.outcomes.counters().emit("refine.");
        rbp_trace::counter("refine.replayed_moves", replayed_moves);
        rbp_trace::gauge("refine.final_total", search.best_total as f64);
    }
    Ok(RefineOutcome {
        run: MppRun {
            strategy: best,
            cost,
        },
        total: search.best_total,
        initial_total,
        proposals: search.proposals,
        accepted: search.accepted,
        reheats: search.reheats,
        replayed_moves,
        provenance: format!("{}(seed={})", cfg.driver.name(), cfg.seed),
    })
}

/// What happened to a proposal, for the `refine.<outcome>.<kind>`
/// counters.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Proposed,
    Accepted,
    Invalid,
}

impl Outcome {
    fn name(self) -> &'static str {
        match self {
            Outcome::Proposed => "proposed",
            Outcome::Accepted => "accepted",
            Outcome::Invalid => "invalid",
        }
    }
}

/// Proposal outcomes per move kind, counted in a fixed table on the hot
/// path and named once at the end.
#[derive(Debug, Default)]
struct Outcomes {
    counts: [[u64; MoveKind::ALL.len()]; 3],
    /// Each (outcome, kind) in the order it was first counted, which is
    /// the counters' order in the trace.
    first_seen: Vec<(Outcome, MoveKind)>,
}

impl Outcomes {
    fn add(&mut self, outcome: Outcome, kind: MoveKind) {
        let count = &mut self.counts[outcome as usize][kind as usize];
        if *count == 0 {
            self.first_seen.push((outcome, kind));
        }
        *count += 1;
    }

    /// The `<outcome>.<kind>` counters.
    fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        for &(outcome, kind) in &self.first_seen {
            let name = format!("{}.{}", outcome.name(), kind.name());
            set.add(&name, self.counts[outcome as usize][kind as usize]);
        }
        set
    }
}

/// Shared state of one running search.
struct Search<'a> {
    nb: Neighborhood<'a>,
    rng: Rng,
    outcomes: Outcomes,
    started: Instant,
    budget: Budget,
    proposals: u64,
    accepted: u64,
    reheats: u64,
    best_moves: Vec<MppMove>,
    best_total: u64,
}

impl Search<'_> {
    fn in_budget(&self) -> bool {
        self.proposals < self.budget.max_proposals
            && (self.budget.max_millis == u64::MAX
                || self.started.elapsed().as_millis() < u128::from(self.budget.max_millis))
    }

    fn improve_best(&mut self, moves: Vec<MppMove>, total: u64) {
        self.best_moves = moves;
        self.best_total = total;
        rbp_trace::gauge("refine.incumbent", total as f64);
    }

    /// The best strategy as an incumbent to walk from.
    fn incumbent(&mut self) -> Incumbent {
        let moves = self.best_moves.clone();
        self.nb
            .incumbent(moves)
            .expect("the best strategy is always validated")
    }

    /// Applies a whole-strategy transform to the incumbent and keeps it
    /// when it does not regress.
    fn try_accept_global(
        &mut self,
        kind: MoveKind,
        f: impl FnOnce(&MppInstance, &[MppMove]) -> Option<Vec<MppMove>>,
    ) {
        let Some(candidate) = f(self.nb.instance(), &self.best_moves) else {
            return;
        };
        self.outcomes.add(Outcome::Proposed, kind);
        match self.nb.evaluate(&candidate) {
            Some(total) if total <= self.best_total => {
                self.outcomes.add(Outcome::Accepted, kind);
                if total < self.best_total {
                    self.improve_best(candidate, total);
                } else {
                    self.best_moves = candidate;
                }
            }
            Some(_) => {}
            None => self.outcomes.add(Outcome::Invalid, kind),
        }
    }

    /// First-improvement descent on `best`, with sideways steps.
    /// Returns after `stall_limit` consecutive non-improving proposals
    /// (a local optimum) or when the budget runs out.
    fn hill_climb(&mut self, stall_limit: u64) {
        let mut current = self.incumbent();
        let mut stalls = 0u64;
        let limit = stall_limit.min(64 + 8 * current.moves().len() as u64);
        while self.in_budget() && stalls < limit {
            self.proposals += 1;
            let Some(c) = self.nb.propose(&current, &mut self.rng) else {
                stalls += 1;
                continue;
            };
            self.outcomes.add(Outcome::Proposed, c.kind);
            match self.nb.check(&current, &c) {
                Some(total) if total < current.total() => {
                    self.outcomes.add(Outcome::Accepted, c.kind);
                    self.accepted += 1;
                    self.nb.accept(&mut current, c);
                    stalls = 0;
                    if total < self.best_total {
                        self.improve_best(current.moves().to_vec(), total);
                    }
                }
                Some(total) if total == current.total() && self.rng.bool(0.25) => {
                    // Sideways: slide along the plateau but keep the
                    // stall counter running so plateaus still terminate.
                    self.outcomes.add(Outcome::Accepted, c.kind);
                    self.accepted += 1;
                    self.nb.accept(&mut current, c);
                    stalls += 1;
                }
                Some(_) => stalls += 1,
                None => {
                    self.outcomes.add(Outcome::Invalid, c.kind);
                    stalls += 1;
                }
            }
        }
    }

    /// Simulated annealing with geometric cooling and reheating.
    fn anneal(&mut self) {
        let mut current = self.incumbent();
        let t0 = (self.best_total as f64 / 10.0).max(1.0);
        let mut temp = t0;
        let alpha = 0.999;
        while self.in_budget() {
            self.proposals += 1;
            if let Some(c) = self.nb.propose(&current, &mut self.rng) {
                self.outcomes.add(Outcome::Proposed, c.kind);
                match self.nb.check(&current, &c) {
                    Some(total) => {
                        let dt = total as f64 - current.total() as f64;
                        if dt <= 0.0 || self.rng.f64() < (-dt / temp).exp() {
                            self.outcomes.add(Outcome::Accepted, c.kind);
                            self.accepted += 1;
                            self.nb.accept(&mut current, c);
                            if total < self.best_total {
                                self.improve_best(current.moves().to_vec(), total);
                            }
                        }
                    }
                    None => self.outcomes.add(Outcome::Invalid, c.kind),
                }
            }
            temp *= alpha;
            if temp < 0.01 {
                // Frozen: reheat from the incumbent.
                self.reheats += 1;
                rbp_trace::counter("refine.reheats", 1);
                current = self.incumbent();
                temp = t0 * 0.5f64.powi(i32::try_from(self.reheats.min(8)).unwrap_or(8));
            }
        }
    }

    /// Pure large-neighborhood search: repeated ruin & recreate from the
    /// incumbent.
    fn lns_loop(&mut self) {
        while self.in_budget() {
            self.lns_kick();
        }
    }

    /// One ruin-and-recreate kick from the incumbent: random cut,
    /// greedy rebuild, re-batch, accept on non-regression.
    fn lns_kick(&mut self) {
        self.proposals += 1;
        self.reheats += 1;
        let cut = self.rng.index(self.best_moves.len() + 1);
        self.outcomes.add(Outcome::Proposed, MoveKind::RuinRecreate);
        let rebuilt =
            recreate::ruin_recreate(self.nb.instance(), &self.best_moves, cut, &mut self.rng);
        let Ok(run) = rebuilt else {
            self.outcomes.add(Outcome::Invalid, MoveKind::RuinRecreate);
            return;
        };
        let merged = rbp_core::batchify(self.nb.instance(), &run.strategy);
        match self.nb.evaluate(&merged.moves) {
            Some(total) if total < self.best_total => {
                self.outcomes.add(Outcome::Accepted, MoveKind::RuinRecreate);
                self.accepted += 1;
                self.improve_best(merged.moves, total);
            }
            Some(total) if total == self.best_total && self.rng.bool(0.5) => {
                // Equal-cost rebuilds diversify the incumbent's shape.
                self.outcomes.add(Outcome::Accepted, MoveKind::RuinRecreate);
                self.accepted += 1;
                self.best_moves = merged.moves;
            }
            Some(_) => {}
            None => self.outcomes.add(Outcome::Invalid, MoveKind::RuinRecreate),
        }
    }

    /// Hill climbing restarted by ruin-and-recreate kicks.
    fn auto(&mut self) {
        while self.in_budget() {
            self.hill_climb(u64::MAX);
            if !self.in_budget() {
                return;
            }
            self.lns_kick();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::MppSimulator;
    use rbp_dag::generators;
    use rbp_schedulers::{MppScheduler, TopoBaseline};

    fn baseline(inst: &MppInstance) -> MppStrategy {
        TopoBaseline.schedule(inst).unwrap().strategy
    }

    #[test]
    fn refine_never_regresses_and_validates() {
        for (dag, k, r, g) in [
            (generators::grid(3, 3), 2, 3, 2),
            (generators::binary_in_tree(4), 2, 3, 3),
            (generators::layered_random(3, 4, 2, 1), 3, 3, 2),
        ] {
            let inst = MppInstance::new(&dag, k, r, g);
            let init = baseline(&inst);
            let cfg = RefineConfig {
                seed: 1,
                budget: Budget::proposals(1500),
                driver: Driver::Auto,
            };
            let out = refine(&inst, &init, &cfg).unwrap();
            assert!(out.total <= out.initial_total, "{}", dag.name());
            let cost = validate_mpp(&inst, &out.run.strategy.moves).unwrap();
            assert_eq!(cost.total(inst.model), out.total);
        }
    }

    #[test]
    fn all_drivers_improve_the_slack_baseline() {
        let dag = generators::independent_chains(2, 4);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let init = baseline(&inst);
        let init_total = validate_mpp(&inst, &init.moves).unwrap().total(inst.model);
        for driver in [Driver::HillClimb, Driver::Anneal, Driver::Lns, Driver::Auto] {
            let cfg = RefineConfig {
                seed: 3,
                budget: Budget::proposals(1200),
                driver,
            };
            let out = refine(&inst, &init, &cfg).unwrap();
            assert!(
                out.total < init_total,
                "{:?} failed to improve: {} vs {}",
                driver,
                out.total,
                init_total
            );
        }
    }

    #[test]
    fn auto_reaches_opt_on_parallel_chains() {
        // OPT = 4: two length-4 chains, k=2, r=3 — four fully batched
        // compute steps (verified against the exact solver elsewhere).
        let dag = generators::independent_chains(2, 4);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let init = baseline(&inst);
        let cfg = RefineConfig {
            seed: 1,
            budget: Budget::proposals(4000),
            driver: Driver::Auto,
        };
        let out = refine(&inst, &init, &cfg).unwrap();
        assert_eq!(out.total, 4, "refinement should close the gap to OPT");
    }

    #[test]
    fn deterministic_per_seed_with_proposal_budget() {
        let dag = generators::grid(3, 3);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let init = baseline(&inst);
        let cfg = RefineConfig {
            seed: 77,
            budget: Budget::proposals(800),
            driver: Driver::Auto,
        };
        let a = refine(&inst, &init, &cfg).unwrap();
        let b = refine(&inst, &init, &cfg).unwrap();
        assert_eq!(a.total, b.total);
        assert_eq!(a.run.strategy, b.run.strategy);
        assert_eq!(a.proposals, b.proposals);
    }

    #[test]
    fn invalid_initial_strategy_is_an_error() {
        let dag = generators::chain(2);
        let inst = MppInstance::new(&dag, 1, 2, 1);
        // Compute the child first: invalid.
        let bogus = MppStrategy::from_moves(vec![MppMove::compute1(0, rbp_dag::NodeId(1))]);
        assert!(refine(&inst, &bogus, &RefineConfig::default()).is_err());
    }

    #[test]
    fn refine_accepts_simulator_built_runs() {
        let dag = generators::chain(3);
        let inst = MppInstance::new(&dag, 1, 2, 2);
        let mut sim = MppSimulator::new(inst);
        for i in 0..3 {
            sim.compute(vec![(0, rbp_dag::NodeId(i))]).unwrap();
            if i > 0 {
                sim.remove_red(0, rbp_dag::NodeId(i - 1)).unwrap();
            }
        }
        let run = sim.finish().unwrap();
        let out = refine(
            &inst,
            &run.strategy,
            &RefineConfig {
                seed: 0,
                budget: Budget::proposals(200),
                driver: Driver::HillClimb,
            },
        )
        .unwrap();
        // Already optimal: 3 computes, nothing to shave.
        assert_eq!(out.total, 3);
    }
}
