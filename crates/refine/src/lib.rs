//! # rbp-refine — anytime strategy refinement and a racing portfolio
//!
//! The schedulers in `rbp-schedulers` construct good MPP strategies;
//! the exact solver in `rbp-core` finds *optimal* ones but only on tiny
//! instances. This crate closes the gap between the two with local
//! search:
//!
//! - [`neighborhood`] — validity-preserving local moves over strategies
//!   (swap adjacent steps, delete dead I/O, re-assign a batch entry,
//!   trade a load for a recomputation, change an eviction victim,
//!   re-batch), proposed as edits of an incumbent. Every candidate is
//!   replayed through the rule kernel's one replay loop, resumed at the
//!   incumbent's nearest checkpoint, before acceptance, so an illegal
//!   neighbor is a rejected proposal, never a wrong cost.
//! - [`recreate`] — the large neighborhood: truncate a strategy at a
//!   cut point and greedily reschedule the rest from the mid-game
//!   configuration (also usable as a seeded scheduler from scratch).
//! - [`drivers`] — anytime metaheuristics over those moves:
//!   first-improvement hill climbing, simulated annealing with
//!   reheating, ruin & recreate, and the default interleaving of them
//!   ([`Driver::Auto`]), under wall-clock or deterministic
//!   proposal-count budgets.
//! - [`portfolio`] — a work-stealing race: all registered schedulers,
//!   refinement workers, and (when the instance fits) the exact solver
//!   run on threads sharing one incumbent; the winner is returned with
//!   provenance and, when the exact solver finished, a proof of
//!   optimality.
//! - [`persist`] — JSONL round-tripping of strategies, so refined
//!   results can be saved and resumed (`rbp improve --in/--out`).
//!
//! Everything is deterministic per seed (`rbp_util::Rng`); all tools
//! honor the workspace-wide `RBP_SEED` environment variable through
//! [`rbp_util::env_seed`].

#![deny(missing_docs)]

pub mod drivers;
pub mod neighborhood;
pub mod persist;
pub mod portfolio;
pub mod recreate;

pub use drivers::{refine, Budget, Driver, RefineConfig, RefineOutcome};
pub use neighborhood::{Candidate, Incumbent, MoveKind, Neighborhood};
pub use persist::{strategy_from_jsonl, strategy_to_jsonl, SavedStrategy};
pub use portfolio::{race, PortfolioConfig, PortfolioEntry, PortfolioOutcome};
pub use recreate::{complete_greedy, greedy_from_scratch, ruin_recreate};
