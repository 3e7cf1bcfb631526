//! Exact anchors of the one exact search.
//!
//! Each row pins the optimum, the settled and pushed state counts and
//! the stop reason of one sequential run under the default
//! configuration: `solve_spp_with` for the single-processor rows, and
//! `solve_mpp_with` or `solve_hier_with` for the multi-processor and
//! three-level instances `scripts/ci.sh` guards, which also pin how
//! many successors the incumbent probe's bound pruned. The counts are
//! load-independent: a changed count means a changed search (successor
//! order, dominance, heuristic, probe or key layout), even when the
//! optimum survives.

use rbp::core::rbp_dag::{generators, io, Dag};
use rbp::core::{
    solve_mpp_with, solve_spp_with, CostModel, MppInstance, SearchConfig, SppInstance, SppVariant,
    StopReason,
};
use rbp::gadgets::HierSkip;
use rbp::hier::{solve_hier_with, HierInstance};

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

/// One multi-processor anchor: `k` processors of capacity `r` at I/O
/// cost `g`, with a green tier `(capacity, cost)` for three-level rows.
struct GameRow {
    name: &'static str,
    dag: Dag,
    k: usize,
    r: usize,
    g: u64,
    green: Option<(usize, u64)>,
    opt: u64,
    settled: u64,
    pushed: u64,
    ub_pruned: u64,
}

#[rustfmt::skip]
fn game_rows() -> Vec<GameRow> {
    let fixture = io::parse(include_str!("fixtures/grid_3x3.dag")).expect("fixture parses");
    let row = |name, dag, green, opt, settled, pushed, ub_pruned| GameRow {
        name,
        dag,
        k: 2,
        r: 3,
        g: 2,
        green,
        opt,
        settled,
        pushed,
        ub_pruned,
    };
    vec![
        row("grid_3x3.dag k2 r3 g2", fixture, None, 11, 27_375, 89_228, 0),
        // The incumbent probe finds a schedule here, and its bound prunes.
        row("fft 2 k2 r3 g2", generators::fft(2), None, 12, 41_453, 43_209, 221_644),
        row("hier_skip 4 k2 r3 g2 cap2 cost1", HierSkip::build(4).dag, Some((2, 1)), 9, 36_455, 382_582, 0),
    ]
}

#[test]
fn multiprocessor_and_three_level_search_match_their_anchors() {
    for row in game_rows() {
        let mpp = MppInstance::new(&row.dag, row.k, row.r, row.g);
        let config = SearchConfig::default();
        let (opt, stats, phases, reason) = match row.green {
            None => {
                let out = solve_mpp_with(&mpp, &config);
                let opt = out.solution.map(|s| s.total);
                (opt, out.stats, out.phases, out.reason)
            }
            Some((cap, cost)) => {
                let out = solve_hier_with(&HierInstance::from_mpp(&mpp, cap, cost), &config);
                let opt = out.solution.map(|s| s.total);
                (opt, out.stats, out.phases, out.reason)
            }
        };
        assert_eq!(
            (opt, stats.settled, stats.pushed, phases.ub_pruned, reason),
            (
                Some(row.opt),
                row.settled,
                row.pushed,
                row.ub_pruned,
                StopReason::Solved
            ),
            "{}: (OPT, settled, pushed, ub_pruned, stop reason)",
            row.name
        );
    }
}
