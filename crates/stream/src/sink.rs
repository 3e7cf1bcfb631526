//! Incremental strategy emission: the [`StrategySink`] trait and its
//! standard implementations.
//!
//! The in-memory scheduler tier buffers every move in an
//! [`MppStrategy`] vector; at 10^6 nodes a strategy is tens of millions
//! of moves and does not fit in RAM comfortably. Streaming schedulers
//! instead push each move into a sink the moment it is decided:
//!
//! - [`VecSink`] keeps the classic in-memory vector (small instances,
//!   tests, replay validation);
//! - [`JsonlSink`] writes the strategy JSONL format (documented in
//!   `docs/SCHEMAS.md` and rendered by [`rbp_core::mpp::jsonl`], the
//!   codec `rbp_refine::persist` also uses) to any [`Write`], buffered,
//!   so a million-step strategy streams to disk without ever living in
//!   memory — and is later re-loadable by `rbp improve --in`;
//! - [`NullSink`] discards moves and only counts them (pure
//!   cost/throughput measurement).

use std::io::{self, BufWriter, Write};

pub use rbp_core::StreamHeader;
use rbp_core::{MppMove, MppStrategy};

/// Receives strategy moves one at a time, in execution order.
pub trait StrategySink {
    /// Accepts the next move.
    fn emit(&mut self, mv: &MppMove) -> io::Result<()>;

    /// Flushes buffered output; called once after the final move.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Bytes of serialized output produced so far (0 for in-memory
    /// sinks).
    fn bytes_emitted(&self) -> u64 {
        0
    }
}

/// The in-memory sink: collects moves into an [`MppStrategy`].
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    strategy: MppStrategy,
}

impl VecSink {
    /// New empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected strategy.
    #[must_use]
    pub fn into_strategy(self) -> MppStrategy {
        self.strategy
    }

    /// Borrow of the collected strategy.
    #[must_use]
    pub fn strategy(&self) -> &MppStrategy {
        &self.strategy
    }
}

impl StrategySink for VecSink {
    fn emit(&mut self, mv: &MppMove) -> io::Result<()> {
        self.strategy.push(mv.clone());
        Ok(())
    }
}

/// A sink that discards moves, keeping only the count — used when only
/// the cost/throughput of a schedule matters, not the strategy itself.
#[derive(Debug, Default, Clone)]
pub struct NullSink {
    moves: u64,
}

impl NullSink {
    /// New sink with a zero count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of moves received.
    #[must_use]
    pub fn moves(&self) -> u64 {
        self.moves
    }
}

impl StrategySink for NullSink {
    fn emit(&mut self, _mv: &MppMove) -> io::Result<()> {
        self.moves += 1;
        Ok(())
    }
}

/// Buffered JSONL writer emitting the strategy persistence format
/// through the same codec as `rbp_refine::persist`, so the output
/// re-parses with `strategy_from_jsonl` and feeds `rbp improve --in`.
pub struct JsonlSink<W: Write> {
    out: BufWriter<W>,
    bytes: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates the sink and writes the strategy header line.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn new(writer: W, header: &StreamHeader) -> io::Result<Self> {
        let mut sink = JsonlSink {
            out: BufWriter::new(writer),
            bytes: 0,
        };
        sink.write_line(&header.to_json().render())?;
        Ok(sink)
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }

    /// Unwraps the inner writer after flushing.
    ///
    /// # Errors
    /// Propagates the flush failure.
    pub fn into_inner(self) -> io::Result<W> {
        self.out
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

impl<W: Write> StrategySink for JsonlSink<W> {
    fn emit(&mut self, mv: &MppMove) -> io::Result<()> {
        self.write_line(&mv.to_json().render())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn bytes_emitted(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::Pebble;
    use rbp_dag::NodeId;

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        sink.emit(&MppMove::compute1(0, NodeId(0))).unwrap();
        sink.emit(&MppMove::store1(0, NodeId(0))).unwrap();
        let s = sink.into_strategy();
        assert_eq!(s.len(), 2);
        assert_eq!(s.moves[1], MppMove::store1(0, NodeId(0)));
    }

    #[test]
    fn null_sink_counts() {
        let mut sink = NullSink::new();
        for _ in 0..5 {
            sink.emit(&MppMove::compute1(0, NodeId(0))).unwrap();
        }
        assert_eq!(sink.moves(), 5);
        assert_eq!(sink.bytes_emitted(), 0);
    }

    #[test]
    fn jsonl_sink_writes_header_and_moves() {
        let header = StreamHeader {
            dag_name: "t".into(),
            n: 2,
            k: 1,
            r: 2,
            g: 3,
        };
        let mut sink = JsonlSink::new(Vec::new(), &header).unwrap();
        sink.emit(&MppMove::compute1(0, NodeId(0))).unwrap();
        sink.emit(&MppMove::Remove(Pebble::Blue(NodeId(1))))
            .unwrap();
        sink.finish().unwrap();
        let bytes_reported = sink.bytes_emitted();
        let out = sink.into_inner().unwrap();
        assert_eq!(out.len() as u64, bytes_reported);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"mpp_strategy\""));
        assert!(lines[1].contains("\"compute\""));
        assert!(lines[2].contains("\"node\""));
    }
}
