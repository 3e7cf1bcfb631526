//! The strategy JSONL format: one codec for its header and its moves.
//!
//! A strategy file (documented in `docs/SCHEMAS.md`) is one JSON object
//! per line:
//!
//! 1. a header `{"type":"mpp_strategy","version":1,"dag":…,"n":…,
//!    "k":…,"r":…,"g":…}` recording the instance the strategy was
//!    built for ([`StreamHeader`]), and
//! 2. one line per move ([`MppMove::to_json`]) —
//!    `{"op":"store"|"load"|"compute","sel":[[p,v],…]}` for the batched
//!    rules, `{"op":"remove","proc":p,"node":v}` for red deletions,
//!    `{"op":"remove","node":v}` for blue deletions.
//!
//! `rbp_refine::persist` writes and reads whole files and
//! `rbp_stream::JsonlSink` writes one move at a time; both go through
//! this module, so their bytes agree.

use rbp_dag::NodeId;
use rbp_util::json::Json;

use crate::{MppMove, Pebble};

/// The `version` emitted in (and required of) strategy headers.
pub const FORMAT_VERSION: u64 = 1;

/// Instance parameters recorded in a strategy JSONL header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHeader {
    /// DAG name (informational provenance).
    pub dag_name: String,
    /// Node count of the DAG.
    pub n: usize,
    /// Number of processors.
    pub k: usize,
    /// Fast-memory capacity per processor.
    pub r: usize,
    /// I/O cost `g`.
    pub g: u64,
}

impl StreamHeader {
    /// The header line's JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("mpp_strategy")),
            ("version", Json::from(FORMAT_VERSION)),
            ("dag", Json::from(self.dag_name.as_str())),
            ("n", Json::from(self.n)),
            ("k", Json::from(self.k)),
            ("r", Json::from(self.r)),
            ("g", Json::from(self.g)),
        ])
    }

    /// Reads a header object, checking its type and version. A missing
    /// `dag` name reads as empty.
    ///
    /// # Errors
    /// A human-readable message naming the first field that is wrong.
    pub fn from_json(obj: &Json) -> Result<Self, String> {
        if obj.get("type").and_then(Json::as_str) != Some("mpp_strategy") {
            return Err("not an mpp_strategy header".to_string());
        }
        if obj.get("version").and_then(Json::as_u64) != Some(FORMAT_VERSION) {
            return Err(format!("unsupported version (want {FORMAT_VERSION})"));
        }
        let field = |name: &str| -> Result<u64, String> {
            obj.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("missing \"{name}\""))
        };
        Ok(StreamHeader {
            dag_name: obj
                .get("dag")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            n: usize::try_from(field("n")?).map_err(|_| "n out of range")?,
            k: usize::try_from(field("k")?).map_err(|_| "k out of range")?,
            r: usize::try_from(field("r")?).map_err(|_| "r out of range")?,
            g: field("g")?,
        })
    }
}

fn sel_json(batch: &[(usize, NodeId)]) -> Json {
    Json::arr(
        batch
            .iter()
            .map(|&(p, v)| Json::arr([Json::from(p), Json::from(v.index())])),
    )
}

fn parse_sel(obj: &Json) -> Result<Vec<(usize, NodeId)>, String> {
    let sel = obj
        .get("sel")
        .and_then(Json::as_arr)
        .ok_or("missing \"sel\" array")?;
    let mut batch = Vec::with_capacity(sel.len());
    for pair in sel {
        let xs = pair.as_arr().ok_or("selection entry is not an array")?;
        let [p, v] = xs else {
            return Err(format!("selection entry has {} elements, want 2", xs.len()));
        };
        let p = p.as_u64().ok_or("processor is not an integer")?;
        let v = v.as_u64().ok_or("node is not an integer")?;
        batch.push((
            usize::try_from(p).map_err(|_| "processor out of range")?,
            NodeId(u32::try_from(v).map_err(|_| "node out of range")?),
        ));
    }
    Ok(batch)
}

impl MppMove {
    /// This move's line of the strategy JSONL format.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            MppMove::Store(b) => Json::obj([("op", Json::from("store")), ("sel", sel_json(b))]),
            MppMove::Load(b) => Json::obj([("op", Json::from("load")), ("sel", sel_json(b))]),
            MppMove::Compute(b) => Json::obj([("op", Json::from("compute")), ("sel", sel_json(b))]),
            MppMove::Remove(Pebble::Red(p, v)) => Json::obj([
                ("op", Json::from("remove")),
                ("proc", Json::from(*p)),
                ("node", Json::from(v.index())),
            ]),
            MppMove::Remove(Pebble::Blue(v)) => Json::obj([
                ("op", Json::from("remove")),
                ("node", Json::from(v.index())),
            ]),
        }
    }

    /// Reads a move line written by [`MppMove::to_json`]. Only the shape
    /// is checked; whether the move is legal is the validator's call.
    ///
    /// # Errors
    /// A human-readable message for an unknown `op` or a malformed field.
    pub fn from_json(obj: &Json) -> Result<Self, String> {
        let op = obj
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "store" => Ok(MppMove::Store(parse_sel(obj)?)),
            "load" => Ok(MppMove::Load(parse_sel(obj)?)),
            "compute" => Ok(MppMove::Compute(parse_sel(obj)?)),
            "remove" => {
                let v = obj
                    .get("node")
                    .and_then(Json::as_u64)
                    .ok_or("remove missing \"node\"")?;
                let v = NodeId(u32::try_from(v).map_err(|_| "node out of range")?);
                match obj.get("proc") {
                    Some(p) => {
                        let p = p.as_u64().ok_or("processor is not an integer")?;
                        let p = usize::try_from(p).map_err(|_| "processor out of range")?;
                        Ok(MppMove::Remove(Pebble::Red(p, v)))
                    }
                    None => Ok(MppMove::Remove(Pebble::Blue(v))),
                }
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}
