//! Exact anchors of the single-processor search.
//!
//! Each row pins the optimum, the settled and pushed state counts and
//! the stop reason of one sequential `solve_spp_with` run under the
//! default configuration. The counts are load-independent: a changed
//! count means a changed search (successor order, dominance, heuristic
//! or key layout), even when the optimum survives.

use rbp::core::rbp_dag::{generators, Dag};
use rbp::core::{solve_spp_with, CostModel, SearchConfig, SppInstance, SppVariant, StopReason};

struct Row {
    name: &'static str,
    dag: Dag,
    r: usize,
    model: CostModel,
    variant: SppVariant,
    opt: Option<u64>,
    settled: u64,
    pushed: u64,
    reason: StopReason,
}

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    let io = CostModel::spp_io_only(1);
    let row = |name, dag, r, model, variant, opt, settled, pushed, reason| Row {
        name,
        dag,
        r,
        model,
        variant,
        opt,
        settled,
        pushed,
        reason,
    };
    use StopReason::{Exhausted, Solved};
    vec![
        row("grid3x4 base io", generators::grid(3, 4), 3, io, SppVariant::base(), Some(4), 24_670, 52_374, Solved),
        row("grid3x3 with_compute g2", generators::grid(3, 3), 3, CostModel::mpp(2), SppVariant::base(), Some(15), 584, 590, Solved),
        // g <= compute: recomputing a stored node is dominated by reloading it.
        row("grid3x3 compute2 g1", generators::grid(3, 3), 3, CostModel::spp_with_compute(1, 2), SppVariant::base(), Some(22), 431, 431, Solved),
        row("grid3x3 one_shot io", generators::grid(3, 3), 3, io, SppVariant::one_shot(), Some(4), 411, 411, Solved),
        row("grid3x3 no_delete io r4", generators::grid(3, 3), 4, io, SppVariant::no_delete(), None, 83, 83, Exhausted),
        row("grid3x3 hong_kung io", generators::grid(3, 3), 3, io, SppVariant::hong_kung(), Some(5), 618, 620, Solved),
        row("tree4 one_shot io", generators::binary_in_tree(4), 3, io, SppVariant::one_shot(), Some(2), 139, 139, Solved),
        row("tree4 hong_kung io", generators::binary_in_tree(4), 3, io, SppVariant::hong_kung(), Some(7), 81, 90, Solved),
    ]
}

#[test]
fn single_processor_search_matches_its_anchors() {
    for row in rows() {
        let inst = SppInstance {
            dag: &row.dag,
            r: row.r,
            model: row.model,
            variant: row.variant,
        };
        let out = solve_spp_with(&inst, &SearchConfig::default());
        let opt = out.solution.as_ref().map(|s| s.total);
        assert_eq!(
            (opt, out.stats.settled, out.stats.pushed, out.reason),
            (row.opt, row.settled, row.pushed, row.reason),
            "{}: (OPT, settled, pushed, stop reason)",
            row.name
        );
        if let Some(sol) = out.solution {
            let cost = sol.strategy.validate(&inst).expect("witness validates");
            assert_eq!(cost.total(inst.model), sol.total, "{}", row.name);
        }
    }
}
