//! `refine`: heuristic schedules improved by local search.
//!
//! One operation runs the in-memory scheduler registry
//! (`all_schedulers`), keeps the best run, `batchify`s it, and refines
//! it with `rbp_refine::refine` under a proposal budget — deterministic
//! per seed, unlike a wall-clock budget, which would fix the
//! operation's time. Every proposal replays through `validate_mpp`, so
//! the rule checker is the hot layer here and the exact search is
//! absent.
//!
//! The initial and the refined strategies are revalidated outside the
//! refinement call; a total that disagrees with its replay, or a
//! refinement that worsens its input, fails the operation.

use std::time::Instant;

use rbp_core::{batchify, validate_mpp, MppInstance, MppRun, MppStrategy};
use rbp_dag::Dag;
use rbp_refine::{refine, Budget, RefineConfig};

use crate::layers::slug;
use crate::spans::Tracer;
use crate::{mix, Metrics, OpResult, Workload};

/// One refinement case.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Generator family.
    pub family: &'static str,
    /// Generator parameters.
    pub params: &'static [usize],
    /// Processors.
    pub k: usize,
    /// Red pebbles per processor.
    pub r: usize,
    /// Proposal budget (about 50–150 ms of refinement on one core).
    pub proposals: u64,
}

/// Blue I/O cost of every case.
pub const G: u64 = 2;

/// Seven cases of 36–200 nodes at k ∈ {2, 4}.
#[rustfmt::skip]
pub const CASES: &[Case] = &[
    Case { family: "grid", params: &[6, 6], k: 2, r: 3, proposals: 5000 },
    Case { family: "grid", params: &[8, 8], k: 2, r: 3, proposals: 5000 },
    Case { family: "grid", params: &[8, 8], k: 4, r: 4, proposals: 5000 },
    Case { family: "fft", params: &[5], k: 2, r: 3, proposals: 2000 },
    Case { family: "fft", params: &[5], k: 4, r: 4, proposals: 2000 },
    Case { family: "layered", params: &[10, 10, 3, 5], k: 2, r: 4, proposals: 3000 },
    Case { family: "layered", params: &[8, 25, 3, 5], k: 4, r: 4, proposals: 2000 },
];

/// The seeded operation sequence: `(case index, refinement seed)` for
/// operation `i`.
#[must_use]
pub fn op(seed: u64, order: &[usize], i: u64) -> (usize, u64) {
    let case = order[(i % order.len() as u64) as usize];
    (case, mix(seed ^ mix(i)))
}

/// The seeded case order.
#[must_use]
pub fn plan(seed: u64) -> Vec<usize> {
    crate::permutation(CASES.len(), seed ^ 0x4ef1e)
}

/// Checks a refinement answer against independent replays: the
/// initial strategy must replay to `initial_total`, the refined one to
/// `total`, and refinement must not worsen its input.
///
/// # Errors
/// The first disagreement found.
pub fn check_refined(
    inst: &MppInstance,
    initial: &MppStrategy,
    initial_total: u64,
    refined: &MppStrategy,
    total: u64,
) -> Result<u64, String> {
    let replay = |s: &MppStrategy| {
        validate_mpp(inst, &s.moves)
            .map(|c| c.total(inst.model))
            .map_err(|e| e.to_string())
    };
    let init = replay(initial)?;
    if init != initial_total {
        return Err(format!(
            "initial total {initial_total} but it replays to {init}"
        ));
    }
    let fin = replay(refined)?;
    if fin != total {
        return Err(format!("refined total {total} but it replays to {fin}"));
    }
    if total > initial_total {
        return Err(format!("refinement worsened {initial_total} to {total}"));
    }
    Ok(total)
}

#[derive(Default)]
struct Acc {
    ops: u64,
    sched_ns: Vec<u64>,
    refine_ns: u64,
    proposals: u64,
    accepted: u64,
    validate_calls: u64,
    validate_ns: u64,
    ns_per_move: f64,
}

/// The refine workload's state.
pub struct Refine {
    dags: Vec<Dag>,
    order: Vec<usize>,
    seed: u64,
    names: Vec<String>,
    acc: Acc,
}

impl Refine {
    /// Builds the case DAGs and warms up with one full operation of the
    /// first case.
    ///
    /// # Panics
    /// When a case generator fails (a bug in this file).
    #[must_use]
    pub fn setup(seed: u64) -> Refine {
        let dags: Vec<Dag> = CASES
            .iter()
            .map(|c| rbp_serve::build_dag(c.family, c.params).expect("case generator"))
            .collect();
        let names: Vec<String> = rbp_schedulers::all_schedulers()
            .iter()
            .map(|s| slug(&s.name()))
            .collect();
        let inst = MppInstance::new(&dags[0], CASES[0].k, CASES[0].r, G);
        if let Ok(best) = best_schedule(&inst, &mut Tracer::new(false), 0, &mut []) {
            let cfg = RefineConfig {
                seed,
                budget: Budget::proposals(CASES[0].proposals),
                ..RefineConfig::default()
            };
            std::hint::black_box(refine(&inst, &batchify(&inst, &best.strategy), &cfg).ok());
        }
        Refine {
            acc: Acc {
                sched_ns: vec![0; names.len()],
                ..Acc::default()
            },
            dags,
            order: plan(seed),
            seed,
            names,
        }
    }
}

/// Runs the scheduler registry and returns the lowest-total run,
/// adding each scheduler's time to `sched_ns` (by registry position).
fn best_schedule(
    inst: &MppInstance,
    tr: &mut Tracer,
    i: u64,
    sched_ns: &mut [u64],
) -> Result<MppRun, String> {
    let mut best: Option<(u64, MppRun)> = None;
    for (j, s) in rbp_schedulers::all_schedulers().iter().enumerate() {
        let t = Instant::now();
        let run = tr
            .span("schedulers", i, |_| s.schedule(inst))
            .map_err(|e| format!("{}: {e}", s.name()))?;
        if let Some(slot) = sched_ns.get_mut(j) {
            *slot += t.elapsed().as_nanos() as u64;
        }
        let total = run.cost.total(inst.model);
        if best.as_ref().is_none_or(|(t, _)| total < *t) {
            best = Some((total, run));
        }
    }
    best.map(|(_, r)| r)
        .ok_or_else(|| "empty scheduler registry".to_string())
}

impl Workload for Refine {
    fn cycle(&self) -> usize {
        CASES.len()
    }

    fn kernel(&self) -> crate::calibrate::Kernel {
        crate::calibrate::Kernel::Compute
    }

    fn run_op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let (idx, refine_seed) = op(self.seed, &self.order, i);
        let case = &CASES[idx];
        let inst = MppInstance::new(&self.dags[idx], case.k, case.r, G);
        let traced = tr.enabled();
        let mut sched_ns = vec![0u64; if traced { self.names.len() } else { 0 }];
        let best = match best_schedule(&inst, tr, i, &mut sched_ns) {
            Ok(b) => b,
            Err(e) => return OpResult::failed(e),
        };
        let initial = tr.span("core.batchify", i, |_| batchify(&inst, &best.strategy));
        // The initial strategy's replay doubles as the per-call cost
        // estimate of the validator runs inside refinement.
        let t = Instant::now();
        let initial_replay = tr.span("core.validate", i, |_| validate_mpp(&inst, &initial.moves));
        let per_call_ns = t.elapsed().as_nanos() as u64;
        let cfg = RefineConfig {
            seed: refine_seed,
            budget: Budget::proposals(case.proposals),
            ..RefineConfig::default()
        };
        let t = Instant::now();
        let out = tr.span("refine", i, |tr| {
            let out = refine(&inst, &initial, &cfg);
            if let Ok(o) = &out {
                // refine() validates its input, every proposal, and
                // its final answer.
                tr.record_child("core.validate", i, (o.proposals + 2) * per_call_ns);
            }
            out
        });
        let refine_ns = t.elapsed().as_nanos() as u64;
        let out = match out {
            Ok(o) => o,
            Err(e) => return OpResult::failed(format!("refine: {e}")),
        };
        let t = Instant::now();
        let checked = tr.span("core.validate", i, |_| {
            let replayed = initial_replay
                .as_ref()
                .map(|c| c.total(inst.model))
                .map_err(|e| format!("batchified strategy is invalid: {e}"))?;
            if replayed != out.initial_total {
                return Err(format!(
                    "refine read the initial total as {} but it replays to {replayed}",
                    out.initial_total
                ));
            }
            check_refined(
                &inst,
                &initial,
                out.initial_total,
                &out.run.strategy,
                out.total,
            )
        });
        if traced {
            let a = &mut self.acc;
            a.ops += 1;
            for (slot, ns) in a.sched_ns.iter_mut().zip(&sched_ns) {
                *slot += ns;
            }
            a.refine_ns += refine_ns;
            a.proposals += out.proposals;
            a.accepted += out.accepted;
            // Three replays here plus the proposals and the two
            // bracketing replays inside refine().
            a.validate_calls += out.proposals + 5;
            a.validate_ns += (out.proposals + 3) * per_call_ns + t.elapsed().as_nanos() as u64;
            a.ns_per_move += per_call_ns as f64 / initial.len().max(1) as f64;
        }
        match checked {
            Ok(total) => OpResult::ok(Some(total)),
            Err(e) => OpResult::failed(format!(
                "{}{:?} k={}: {e}",
                case.family, case.params, case.k
            )),
        }
    }

    fn layer_metrics(&mut self, out: &mut Metrics) -> Vec<String> {
        let a = &self.acc;
        let n = a.ops.max(1) as f64;
        for (name, ns) in self.names.iter().zip(&a.sched_ns) {
            out.set(format!("schedulers.ms.{name}"), *ns as f64 / 1e6 / n, "ms");
        }
        out.set(
            "refine.proposals_per_s",
            a.proposals as f64 / (a.refine_ns.max(1) as f64 / 1e9),
            "1/s",
        );
        out.set(
            "refine.accept_ratio",
            a.accepted as f64 / a.proposals.max(1) as f64,
            "ratio",
        );
        out.set("refine.ms", a.refine_ns as f64 / 1e6 / n, "ms");
        out.set("core.validate.calls", a.validate_calls as f64 / n, "count");
        out.set("core.validate.ns_per_move", a.ns_per_move / n, "ns");
        out.set("core.validate.ms", a.validate_ns as f64 / 1e6 / n, "ms");
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_is_seed_deterministic() {
        let seq = |seed: u64| -> Vec<(usize, u64)> {
            let order = plan(seed);
            (0..20).map(|i| op(seed, &order, i)).collect()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }

    #[test]
    fn checker_rejects_corrupted_refinements() {
        let dag = rbp_serve::build_dag("grid", &[3, 3]).unwrap();
        let inst = MppInstance::new(&dag, 2, 3, G);
        let run = rbp_schedulers::all_schedulers()[0].schedule(&inst).unwrap();
        let s = batchify(&inst, &run.strategy);
        let total = validate_mpp(&inst, &s.moves).unwrap().total(inst.model);
        assert_eq!(check_refined(&inst, &s, total, &s, total), Ok(total));
        // A refined total that its strategy does not replay to.
        assert!(check_refined(&inst, &s, total, &s, total - 1).is_err());
        // An illegal refined strategy.
        let mut moves = s.moves.clone();
        moves.remove(0);
        let broken = MppStrategy::from_moves(moves);
        assert!(check_refined(&inst, &s, total, &broken, total).is_err());
    }
}
