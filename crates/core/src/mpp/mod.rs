//! Multiprocessor red-blue pebbling (MPP), the paper's model (§3.2).
//!
//! `k` processors each own `r` red pebbles of their own *shade*; all share
//! unlimited blue slow memory. A transition applies one rule to a *shaded
//! selection* — an injective assignment of up to `k` processors to
//! vertices — so a single I/O or compute step moves up to `k` pebbles for
//! one unit of cost (`g` or `1` respectively). Deletions are free.

pub mod async_cost;
pub mod config;
pub mod exact;
pub mod jsonl;
pub mod moves;
pub mod optimize;
pub mod sim;
pub mod stats;
pub mod strategy;

pub use async_cost::{async_makespan, AsyncTiming};
pub use optimize::batchify;

pub use config::{Configuration, MppInstance};
pub use exact::{solve as solve_mpp, solve_with as solve_mpp_with, MppSolution};
pub use jsonl::StreamHeader;
pub use moves::{MppMove, Pebble, ProcId};
pub use sim::{MppRun, MppSimulator};
pub use stats::{IoClass, MppRunStats};
pub use strategy::{validate as validate_mpp, MppError, MppErrorKind, MppStrategy};
