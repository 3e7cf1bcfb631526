//! Exact anchors of the one exact search.
//!
//! Each row pins the optimum, the settled, probe-settled and pushed
//! state counts and the stop reason of one sequential run under the
//! default configuration: `solve_spp_with` for the single-processor
//! rows, and `solve_mpp_with` or `solve_hier_with` for the
//! multi-processor and three-level instances `scripts/ci.sh` guards,
//! which also pin how many successors the incumbent's bound pruned. The
//! counts are load-independent: a changed count means a changed search
//! (successor order, frontier order, dominance, heuristic, probe or key
//! layout), even when the optimum survives. `settled` counts the
//! expansions of the probe and of the exact search together. The
//! comment on each row gives, as probe + exact search, the expansions
//! of the earlier engine, whose exact search threw the probe's states
//! away and started over.

use rbp::core::rbp_dag::{generators, io, Dag};
use rbp::core::{
    solve_mpp_with, solve_spp_with, CostModel, MppInstance, SearchConfig, SolveLimits, SppInstance,
    SppVariant, StopReason,
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
    probe_settled: u64,
    pushed: u64,
    reason: StopReason,
}

#[rustfmt::skip]
fn rows() -> Vec<Row> {
    let io = CostModel::spp_io_only(1);
    let row = |name, dag, r, model, variant, opt, settled, probe_settled, pushed, reason| Row {
        name,
        dag,
        r,
        model,
        variant,
        opt,
        settled,
        probe_settled,
        pushed,
        reason,
    };
    use StopReason::{Exhausted, Solved};
    vec![
        // 20,001 + 24,670 = 44,671 expansions before.
        row("grid3x4 base io", generators::grid(3, 4), 3, io, SppVariant::base(), Some(4), 24_670, 20_000, 52_374, Solved),
        // 383 + 584 = 967.
        row("grid3x3 with_compute g2", generators::grid(3, 3), 3, CostModel::mpp(2), SppVariant::base(), Some(15), 631, 378, 1_192, Solved),
        // g <= compute: recomputing a stored node is dominated by reloading it.
        // 62 + 431 = 493.
        row("grid3x3 compute2 g1", generators::grid(3, 3), 3, CostModel::spp_with_compute(1, 2), SppVariant::base(), Some(22), 446, 66, 535, Solved),
        // 680 + 411 = 1,091.
        row("grid3x3 one_shot io", generators::grid(3, 3), 3, io, SppVariant::one_shot(), Some(4), 852, 852, 1_460, Solved),
        // 83 + 83 = 166: the probe alone now exhausts the space.
        row("grid3x3 no_delete io r4", generators::grid(3, 3), 4, io, SppVariant::no_delete(), None, 83, 83, 83, Exhausted),
        // 664 + 618 = 1,282.
        row("grid3x3 hong_kung io", generators::grid(3, 3), 3, io, SppVariant::hong_kung(), Some(5), 761, 659, 1_732, Solved),
        // 186 + 139 = 325.
        row("tree4 one_shot io", generators::binary_in_tree(4), 3, io, SppVariant::one_shot(), Some(2), 281, 281, 511, Solved),
        // 54 + 81 = 135.
        row("tree4 hong_kung io", generators::binary_in_tree(4), 3, io, SppVariant::hong_kung(), Some(7), 85, 27, 115, Solved),
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
            (
                opt,
                out.stats.settled,
                out.stats.probe_settled,
                out.stats.pushed,
                out.reason
            ),
            (
                row.opt,
                row.settled,
                row.probe_settled,
                row.pushed,
                row.reason
            ),
            "{}: (OPT, settled, probe settled, pushed, stop reason)",
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
    probe_settled: u64,
    pushed: u64,
    ub_pruned: u64,
}

fn grid_3x3() -> Dag {
    io::parse(include_str!("fixtures/grid_3x3.dag")).expect("fixture parses")
}

#[rustfmt::skip]
fn game_rows() -> Vec<GameRow> {
    let fixture = grid_3x3();
    let row = |name, dag, green, opt, settled, probe_settled, pushed, ub_pruned| GameRow {
        name,
        dag,
        k: 2,
        r: 3,
        g: 2,
        green,
        opt,
        settled,
        probe_settled,
        pushed,
        ub_pruned,
    };
    // At g = 2 the incumbent probe finds a schedule on every row, and
    // its bound prunes. At g = 10^6 it finds none within its budget, and
    // the queued priorities reach two million: the row pins the frontier
    // on a wide cost range.
    vec![
        // 20,001 + 27,375 = 47,376 expansions before (no schedule found).
        row("grid_3x3.dag k2 r3 g2", fixture, None, 11, 23_413, 16_528, 64_315, 40_056),
        // 8,171 + 41,453 = 49,624.
        row("fft 2 k2 r3 g2", generators::fft(2), None, 12, 41_536, 5_153, 49_606, 214_196),
        // 20,001 + 36,455 = 56,456 (no schedule found).
        row("hier_skip 4 k2 r3 g2 cap2 cost1", HierSkip::build(4).dag, Some((2, 1)), 9, 26_982, 12_512, 171_483, 142_561),
        GameRow { g: 1_000_000, ..row("grid_3x3.dag k2 r3 g1e6", grid_3x3(), None, 2_000_007, 60_841, 20_000, 192_322, 0) },
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
            (
                opt,
                stats.settled,
                stats.probe_settled,
                stats.pushed,
                phases.ub_pruned,
                reason
            ),
            (
                Some(row.opt),
                row.settled,
                row.probe_settled,
                row.pushed,
                row.ub_pruned,
                StopReason::Solved
            ),
            "{}: (OPT, settled, probe settled, pushed, ub_pruned, stop reason)",
            row.name
        );
    }
}

/// On I/O-only base SPP instances the heuristic is zero everywhere, so
/// the probe's weight changes no priority: its phase *is* the exact
/// search, and the switch re-keys no entry. A default run must then
/// settle exactly what a heuristic-off run settles — the exact search
/// repeats none of the probe's expansions — including on grid 3x4,
/// where the switch falls mid-search.
#[test]
fn zero_heuristic_runs_repeat_no_probe_expansion() {
    let off = SearchConfig {
        heuristic: false,
        ..SearchConfig::default()
    };
    let mut switched_mid_search = false;
    for (name, dag) in [
        ("grid3x4", generators::grid(3, 4)),
        ("grid3x3", generators::grid(3, 3)),
        ("pyramid3", generators::pyramid(3)),
        ("tree4", generators::binary_in_tree(4)),
        ("fft2", generators::fft(2)),
    ] {
        let inst = SppInstance {
            dag: &dag,
            r: 3,
            model: CostModel::spp_io_only(1),
            variant: SppVariant::base(),
        };
        let with = solve_spp_with(&inst, &SearchConfig::default());
        let without = solve_spp_with(&inst, &off);
        assert_eq!(with.stats.h_root, 0, "{name}: h is zero");
        assert_eq!(
            (
                with.solution.map(|s| s.total),
                with.stats.settled,
                with.stats.pushed
            ),
            (
                without.solution.map(|s| s.total),
                without.stats.settled,
                without.stats.pushed
            ),
            "{name}: (OPT, settled, pushed) with and without the heuristic"
        );
        assert_eq!(without.stats.probe_settled, 0, "{name}: no probe when off");
        switched_mid_search |= (1..with.stats.settled).contains(&with.stats.probe_settled);
    }
    assert!(switched_mid_search, "some instance switches mid-search");
}

/// Costs whose sums could overflow a `u64` within the state budget are
/// refused up front as `Unsupported`, at any thread count, rather than
/// wrapping: a wrapped distance once closed a parent cycle that witness
/// reconstruction followed without end. At `g = 2^63 − 1` the optimum
/// `2g + 7` itself overflows; at `g = (2^64 − 1) / 3` it fits, but sums
/// the search forms on the way do not.
#[test]
fn costs_past_the_u64_range_are_unsupported() {
    let dag = grid_3x3();
    for g in [i64::MAX as u64, u64::MAX / 3] {
        for threads in [1, 2] {
            let config = SearchConfig::default()
                .with_limits(SolveLimits::states(20_000))
                .with_threads(threads);
            let out = solve_mpp_with(&MppInstance::new(&dag, 2, 3, g), &config);
            assert!(out.solution.is_none(), "g={g} threads={threads}");
            assert_eq!(
                out.reason,
                StopReason::Unsupported,
                "g={g} threads={threads}"
            );
            assert_eq!(
                out.stats.settled, 0,
                "g={g} threads={threads}: nothing searched"
            );
        }
    }
}
