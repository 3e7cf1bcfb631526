//! # rbp-hier — three-level (red/green/blue) multiprocessor pebbling
//!
//! Extends the paper's MPP game (§3.2) with a shared, bounded,
//! cheaper-I/O mid tier — modelling a scratchpad / HBM / node-local
//! cache between the per-processor fast memories and unbounded slow
//! memory. Configurations are `(R^1..R^k, G, B)`: per-processor red
//! sets of capacity `r`, one shared green set of capacity `green_cap`,
//! unbounded blue.
//!
//! The rule set keeps the four MPP rules **verbatim** and adds one
//! store/load pair for the green tier:
//!
//! | rule | effect | cost |
//! |------|--------|------|
//! | R1-H store | red → blue (batched) | `g` |
//! | R2-H load | blue → red (batched) | `g` |
//! | R3-H compute | inputs red → red (batched) | `compute` |
//! | R4-H remove | delete any pebble | free |
//! | R5-H green store | red → green (batched, capacity-checked) | `green` |
//! | R6-H green load | green → red (batched) | `green` |
//!
//! There is no direct green ↔ blue rule: outer-tier traffic stages
//! through a red pebble, as cache lines stage through a core. Two
//! structural facts anchor the design and are enforced by tests:
//!
//! - **Degenerate reduction.** With `green_cap = 0` (or `green = g`)
//!   the game *is* vanilla MPP: same reachable configurations, same
//!   optimal cost, verified byte-for-byte against `rbp_core::solve_mpp`
//!   over randomized instances.
//! - **Projection.** Merging green into blue flattens any three-level
//!   strategy into a valid two-level one ([`hier_to_mpp`]), so
//!   `OPT_MPP ≤ g·(blue I/O + green I/O) + computes` — the three-level
//!   optimum with green re-priced at `g`.
//!
//! The exact solver ([`solve_hier`]) is a thin facade over
//! `rbp_core`'s exact MPP search, which takes the green tier as an
//! optional part of its state space: one A\* kernel (sequential and
//! hash-sharded parallel) with processor-symmetry canonicalization, the
//! Lemma 1 admissible heuristic (with `G ∪ B` as the out-of-fast-memory
//! set), and lazy eviction serves both games, and at `green_cap = 0`
//! the three-level solve is the vanilla solve.
//!
//! The rules are `rbp_core`'s too: [`HierInstance`] implements
//! `rbp_core::rules::Instance`, so [`validate_hier`] is the one
//! validator of `rbp_core::rules` and [`HierSimulator`] an alias of its
//! one simulator. Heuristic schedulers ([`GreenList`],
//! [`HierTopoBaseline`]) build strategies through that rule-enforcing
//! simulator, whose `apply` takes the green moves.
//!
//! ```
//! use rbp_hier::{solve_hier, HierInstance};
//! use rbp_core::SolveLimits;
//! use rbp_dag::dag_from_edges;
//!
//! // Two triangle-capped parts joined at a sink: at r = 3 the part
//! // finishing second forces the other part's live output out of fast
//! // memory. Blue I/O costs 3, the green tier costs 1.
//! let dag = dag_from_edges(
//!     7,
//!     &[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 6), (5, 6)],
//! );
//! let inst = HierInstance::new(&dag, 1, 3, 3, 1, 1);
//! let sol = solve_hier(&inst, SolveLimits::states(500_000)).unwrap();
//! assert!(sol.cost.green_io_steps() > 0); // the spill rides the mid tier
//! ```

#![deny(missing_docs)]

pub mod exact;
pub mod instance;
pub mod moves;
pub mod scheduler;
pub mod sim;
pub mod strategy;
pub mod translate;

pub use exact::{solve as solve_hier, solve_with as solve_hier_with, HierSolution};
pub use instance::{HierConfiguration, HierCost, HierCostModel, HierInstance};
pub use moves::{HierMove, HierPebble};
pub use scheduler::{all_hier_schedulers, GreenList, HierScheduler, HierTopoBaseline};
pub use sim::{HierRun, HierSimulator};
pub use strategy::{apply_move, validate as validate_hier, HierError, HierErrorKind, HierStrategy};
pub use translate::hier_to_mpp;
