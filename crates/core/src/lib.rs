//! # rbp-core — the red-blue pebble games
//!
//! Executable model of the paper *Red-Blue Pebbling with Multiple
//! Processors: Time, Communication and Memory Trade-offs* (SPAA 2024):
//!
//! - [`spp`]: the classical single-processor red-blue pebble game of
//!   Hong & Kung, with the §3.1 variants (base, one-shot, no-deletion,
//!   computation costs), a rule-enforcing strategy validator, an exact
//!   optimal solver (the `k = 1` case of the one exact search), and the
//!   Theorem 2 zero-I/O decision procedure;
//! - [`mpp`]: the paper's multiprocessor game (§3.2) — shaded red
//!   pebbles, batched parallel rules over shaded selections, the
//!   `g`-weighted cost function, a validator, a step-simulation engine
//!   for schedulers, run statistics (communication vs. spill I/O, work
//!   balance, recomputation), and the one exact search for small
//!   instances of every game: it reads the rule kernel's game — SPP
//!   variants and `rbp-hier`'s bounded green tier included — plus the
//!   rule costs;
//! - [`rules`]: the one move checker every game shares — a transition
//!   function over a small pebble-store abstraction, parameterised by
//!   `k`, `r`, the green capacity and the SPP variant, plus the shared
//!   terminality check — and, over each game's [`rules::Instance`], the
//!   one validator and the one step simulator;
//! - [`translate`]: the Lemma 5 simulation compiling MPP strategies to
//!   single-processor strategies with fast memory `k·r`;
//! - [`cost`]: the shared cost model and surplus cost (Definition 1).
//!
//! ```
//! use rbp_core::{MppInstance, MppSimulator};
//! use rbp_dag::{dag_from_edges, NodeId};
//!
//! // Proc 0 computes v0 and hands it to proc 1 through shared memory.
//! let dag = dag_from_edges(2, &[(0, 1)]);
//! let inst = MppInstance::new(&dag, 2, 2, 3); // k=2, r=2, g=3
//! let mut sim = MppSimulator::new(inst);
//! sim.compute(vec![(0, NodeId(0))]).unwrap();
//! sim.store(vec![(0, NodeId(0))]).unwrap();
//! sim.load(vec![(1, NodeId(0))]).unwrap();
//! sim.compute(vec![(1, NodeId(1))]).unwrap();
//! let run = sim.finish().unwrap();
//! assert_eq!(run.cost.total(inst.model), 2 * 3 + 2);
//! ```

#![deny(missing_docs)]

mod arena;
pub mod cost;
mod driver;
pub mod mode;
pub mod mpp;
mod partition;
pub mod rules;
pub mod search;
pub mod spp;
mod spsc;
pub mod translate;

pub use cost::{Cost, CostModel};
pub use mode::GameMode;
pub use mpp::{
    async_makespan, batchify, solve_mpp, solve_mpp_with, validate_mpp, AsyncTiming, Configuration,
    IoClass, MppError, MppErrorKind, MppInstance, MppMove, MppRun, MppRunStats, MppSimulator,
    MppSolution, MppStrategy, Pebble, ProcId, StreamHeader,
};
pub use partition::PartitionMode;
pub use search::{
    phase_timing_enabled, AdmissibleHeuristic, PhaseStats, SearchConfig, SearchOutcome,
    SearchStats, ShardStats, SolveLimits, StopReason, MAX_THREADS,
};
pub use spp::{
    solve_spp, solve_spp_with, zero_io_order, zero_io_pebbling_exists, SppError, SppInstance,
    SppMove, SppSolution, SppState, SppStrategy, SppVariant,
};
pub use translate::{mpp_to_spp, simulation_instance};

// Re-export the substrate so downstream crates can use one import root.
pub use rbp_dag;
