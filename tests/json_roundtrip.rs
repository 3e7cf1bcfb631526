//! JSON parse time grows linearly with the length of a string.
//!
//! Every service request body carries its DAG as one inline string
//! (`dag_text`), so a parser that rescans the rest of the input per
//! character turns one legal body into seconds of work. The test
//! parses one-string bodies of 16 KiB and 256 KiB, best of three each,
//! and requires the 16x longer body to take less than 64x as long: a
//! linear parser reads about 16x, a quadratic one about 256x.

use std::time::{Duration, Instant};

use rbp::util::json::Json;

/// The fastest of three parses of a body that is one JSON string of at
/// least `len` bytes: DAG text with escaped newlines and a non-ASCII
/// label, so unescaped runs alternate with escapes.
fn best_parse_time(len: usize) -> Duration {
    let unit = "edge 12 34 \u{e9}\\n";
    let text = unit.repeat(len.div_ceil(unit.len()));
    let body = format!("\"{text}\"");
    let expected = text.replace("\\n", "\n");
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let value = Json::parse(&body).expect("body parses");
            let elapsed = start.elapsed();
            assert_eq!(value.as_str(), Some(expected.as_str()));
            elapsed
        })
        .min()
        .expect("three parses")
}

#[test]
fn string_parse_time_is_linear_in_its_length() {
    let small = best_parse_time(16 << 10);
    let large = best_parse_time(256 << 10);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    assert!(
        ratio < 64.0,
        "16 KiB parsed in {small:?}, 256 KiB in {large:?}: ratio {ratio:.1}, want < 64"
    );
}
