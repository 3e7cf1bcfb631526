//! Strategy persistence: JSONL serialization of MPP strategies.
//!
//! Lets `rbp improve --out` save a refined strategy and a later
//! `rbp improve --in` resume from it. The format (documented in
//! `docs/SCHEMAS.md`) is a header line recording the instance the
//! strategy was built for, then one line per move; both are rendered
//! and read by the codec in [`rbp_core::mpp::jsonl`], which the
//! streaming tier's writer shares.
//!
//! Loading checks the header against nothing but its own shape; whether
//! the strategy is valid *for a given instance* is decided where it
//! matters, by replaying it through `rbp_core::validate_mpp` (the CLI
//! does exactly that before refining).

use rbp_core::{MppMove, MppStrategy, StreamHeader};
use rbp_util::json::Json;

/// A strategy together with the instance parameters it was saved under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedStrategy {
    /// The instance parameters of the header line.
    pub header: StreamHeader,
    /// The move list.
    pub strategy: MppStrategy,
}

/// Serializes a strategy (with its instance parameters) to the JSONL
/// format described in the module docs.
#[must_use]
pub fn strategy_to_jsonl(saved: &SavedStrategy) -> String {
    let mut out = saved.header.to_json().render();
    out.push('\n');
    for mv in &saved.strategy.moves {
        out.push_str(&mv.to_json().render());
        out.push('\n');
    }
    out
}

/// Parses the JSONL produced by [`strategy_to_jsonl`]. Returns a
/// human-readable error (with the offending line number) on any shape
/// mismatch; rule-level validity is checked later against an instance.
pub fn strategy_from_jsonl(text: &str) -> Result<SavedStrategy, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, first) = lines.next().ok_or("empty strategy file")?;
    let header = Json::parse(first)
        .map_err(|e| format!("{e:?}"))
        .and_then(|obj| StreamHeader::from_json(&obj))
        .map_err(|e| format!("line 1: {e}"))?;
    let mut moves = Vec::new();
    for (i, line) in lines {
        let obj = Json::parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        moves.push(MppMove::from_json(&obj).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(SavedStrategy {
        header,
        strategy: MppStrategy::from_moves(moves),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{validate_mpp, MppInstance, MppSimulator, Pebble};
    use rbp_dag::{generators, NodeId};

    #[test]
    fn round_trip_preserves_strategy_exactly() {
        let dag = generators::grid(2, 3);
        let inst = MppInstance::new(&dag, 2, 3, 2);
        let mut sim = MppSimulator::new(inst);
        for (i, &v) in dag.topo().order().iter().enumerate() {
            let p = i % inst.k;
            for &u in dag.preds(v) {
                if !sim.config().reds[p].contains(u) {
                    sim.load(vec![(p, u)]).unwrap();
                }
            }
            sim.compute(vec![(p, v)]).unwrap();
            sim.store(vec![(p, v)]).unwrap();
            for &u in dag.preds(v) {
                sim.remove_red(p, u).unwrap();
            }
            sim.remove_red(p, v).unwrap();
        }
        let run = sim.finish().unwrap();
        let saved = SavedStrategy {
            header: StreamHeader {
                dag_name: dag.name().to_string(),
                n: dag.n(),
                k: inst.k,
                r: inst.r,
                g: inst.model.g,
            },
            strategy: run.strategy.clone(),
        };
        let text = strategy_to_jsonl(&saved);
        let loaded = strategy_from_jsonl(&text).unwrap();
        assert_eq!(loaded, saved);
        // And the reloaded strategy still validates at the same cost.
        let cost = validate_mpp(&inst, &loaded.strategy.moves).unwrap();
        assert_eq!(cost, run.cost);
    }

    #[test]
    fn all_move_shapes_round_trip() {
        let moves = vec![
            MppMove::Compute(vec![(0, NodeId(0)), (1, NodeId(3))]),
            MppMove::Store(vec![(1, NodeId(3))]),
            MppMove::Load(vec![(0, NodeId(3))]),
            MppMove::Remove(Pebble::Red(1, NodeId(3))),
            MppMove::Remove(Pebble::Blue(NodeId(3))),
        ];
        let saved = SavedStrategy {
            header: StreamHeader {
                dag_name: "synthetic".to_string(),
                n: 4,
                k: 2,
                r: 3,
                g: 2,
            },
            strategy: MppStrategy::from_moves(moves),
        };
        let loaded = strategy_from_jsonl(&strategy_to_jsonl(&saved)).unwrap();
        assert_eq!(loaded, saved);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        assert!(strategy_from_jsonl("").is_err());
        assert!(strategy_from_jsonl("{\"type\":\"other\"}").is_err());
        let bad_version = "{\"type\":\"mpp_strategy\",\"version\":99,\"dag\":\"x\",\"n\":1,\"k\":1,\"r\":1,\"g\":1}";
        assert!(strategy_from_jsonl(bad_version)
            .unwrap_err()
            .contains("version"));
        let bad_move = "{\"type\":\"mpp_strategy\",\"version\":1,\"dag\":\"x\",\"n\":1,\"k\":1,\"r\":1,\"g\":1}\n{\"op\":\"teleport\"}";
        let err = strategy_from_jsonl(bad_move).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("teleport"), "{err}");
    }
}
