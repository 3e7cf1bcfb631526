//! E22 — three-level hierarchy: where a cheap green mid tier provably
//! beats the best two-level strategy, and where it provably cannot.
//!
//! Two phases, both running exact solvers so every number is an
//! optimum, not a heuristic artifact:
//!
//! 1. **Divergence table** over the `HierSkip` separation family
//!    (`rbp_gadgets::HierSkip`): two triangle-capped chains joined at a
//!    sink, sized so at `r = 3` the part finishing second forces the
//!    other part's live output out of fast memory. The two-level
//!    optimum pays the spill over blue (`n + 2g`); one green slot
//!    converts it to mid-tier traffic (`n + 2·green`). Both closed
//!    forms are asserted against the solvers, and the vanilla optimum
//!    is computed twice — by `rbp_core::solve_mpp` *and* by the hier
//!    solver with `green_cap = 0` — as a cross-solver check.
//! 2. **Degenerate-equivalence summary** over seeded random instances:
//!    with `green_cap = 0` the hier solver must reproduce the vanilla
//!    optimum exactly, instance for instance.
//!
//! Writes `BENCH_hier.json`. Usage: `exp_hier [--quick]`.

use rbp_bench::{banner, Table};
use rbp_core::rbp_dag::{generators, Dag};
use rbp_core::{solve_mpp, MppInstance, SolveLimits};
use rbp_gadgets::HierSkip;
use rbp_hier::{solve_hier, GreenList, HierInstance, HierScheduler};
use rbp_util::json::Json;
use rbp_util::{env_seed, Rng};

fn limits() -> SolveLimits {
    SolveLimits::states(4_000_000)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    rbp_bench::init_trace("exp_hier", &[("quick", Json::from(quick))]);
    banner(
        "E22",
        "three-level hierarchy: exact vanilla-vs-green divergence",
    );

    let (g, green_cost) = (3u64, 1u64);
    let chain_lengths: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let mut t = Table::new(&[
        "gadget",
        "n",
        "OPT mpp",
        "OPT hier(cap=0)",
        "OPT hier(cap=1)",
        "saved",
        "green_io",
        "green-list",
    ]);
    let mut rows = Vec::new();
    let mut strict_wins = 0usize;
    for &c in chain_lengths {
        let gadget = HierSkip::build(c);
        let (k, r) = (1, gadget.tight_r());
        let mpp = MppInstance::new(&gadget.dag, k, r, g);
        let vanilla = solve_mpp(&mpp, limits()).expect("vanilla solve");
        let degenerate = solve_hier(&HierInstance::from_mpp(&mpp, 0, green_cost), limits())
            .expect("degenerate hier solve");
        let hier_inst = HierInstance::from_mpp(&mpp, 1, green_cost);
        let hier = solve_hier(&hier_inst, limits()).expect("hier solve");

        // Reduction check: at cap = 0 the hier facade runs the vanilla
        // search, so it must reproduce the vanilla optimum.
        assert_eq!(
            vanilla.total, degenerate.total,
            "hier(cap=0) diverged from the vanilla solver on c={c}"
        );
        // Closed forms from the gadget's spill analysis.
        assert_eq!(vanilla.total, gadget.vanilla_total(g), "c={c}");
        assert_eq!(hier.total, gadget.hier_total(green_cost), "c={c}");
        assert!(
            hier.total < vanilla.total,
            "green tier failed to win strictly on c={c}"
        );
        strict_wins += 1;

        let sched = GreenList.schedule(&hier_inst).expect("green-list");
        let sched_total = sched.cost.total(hier_inst.model);
        let saved = vanilla.total - hier.total;
        t.row(&[
            gadget.dag.name().to_string(),
            gadget.n().to_string(),
            vanilla.total.to_string(),
            degenerate.total.to_string(),
            hier.total.to_string(),
            saved.to_string(),
            hier.cost.green_io_steps().to_string(),
            sched_total.to_string(),
        ]);
        rows.push(Json::obj(vec![
            ("gadget", Json::from(gadget.dag.name())),
            ("c", Json::from(c)),
            ("n", Json::from(gadget.n())),
            ("k", Json::from(k)),
            ("r", Json::from(r)),
            ("g", Json::from(g)),
            ("green_cost", Json::from(green_cost)),
            ("opt_mpp", Json::from(vanilla.total)),
            ("opt_hier_cap0", Json::from(degenerate.total)),
            ("opt_hier_cap1", Json::from(hier.total)),
            ("saved", Json::from(saved)),
            ("green_io_steps", Json::from(hier.cost.green_io_steps())),
            ("green_list_total", Json::from(sched_total)),
        ]));
    }
    t.print_traced("E22");
    assert!(
        strict_wins >= 1,
        "no gadget showed a strict three-level win"
    );
    println!(
        "\n{strict_wins}/{} gadgets: OPT(3-level) strictly beats OPT(2-level) \
         (both proven by exact solvers).",
        chain_lengths.len()
    );

    // Phase 2: the reduction sanity sweep — green_cap = 0 must be
    // byte-identical to vanilla MPP on random instances.
    let seed = 0x2207 + env_seed(0);
    let cases: usize = if quick { 10 } else { 25 };
    let mut rng = Rng::new(seed);
    let mut matched = 0usize;
    for case in 0..cases {
        let (dag, k, r, gg) = draw(&mut rng);
        let mpp = MppInstance::new(&dag, k, r, gg);
        let vanilla = solve_mpp(&mpp, limits()).expect("vanilla solve");
        let hier = solve_hier(&HierInstance::from_mpp(&mpp, 0, 1), limits()).expect("hier solve");
        assert_eq!(
            vanilla.total,
            hier.total,
            "case {case}: degenerate equivalence violated on {}",
            dag.name()
        );
        matched += 1;
    }
    println!("degenerate equivalence: {matched}/{cases} random instances matched exactly.");

    let json = Json::obj(vec![
        ("suite", Json::from("hier")),
        ("quick", Json::from(quick)),
        ("seed", Json::from(seed)),
        ("strict_wins", Json::from(strict_wins)),
        ("divergence", Json::Arr(rows)),
        (
            "equivalence",
            Json::obj(vec![
                ("cases", Json::from(cases)),
                ("matched", Json::from(matched)),
            ]),
        ),
    ]);
    let path = "BENCH_hier.json";
    match std::fs::write(path, json.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    rbp_bench::finish_trace();
}

/// Draws a small random instance cheap enough for two exact solves.
fn draw(rng: &mut Rng) -> (Dag, usize, usize, u64) {
    let dag = if rng.bool(0.5) {
        generators::layered_random(rng.range(2, 4), 2, 2, rng.next_u64())
    } else {
        generators::random_dag(rng.range(4, 7), 0.3, rng.next_u64())
    };
    let k = rng.range(1, 3);
    let r = dag.max_in_degree() + 1 + usize::from(rng.bool(0.25));
    let g = rng.range_u64(2, 6);
    (dag, k, r, g)
}
