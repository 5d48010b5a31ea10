// expect: wall-clock, adhoc-telemetry
//! Golden input for the `--json` report format: a small, fixed set of
//! violations (two rules on one line, with text that needs escaping)
//! rendered against `json_golden.expected.json` byte-for-byte.
//!

pub fn report() {
    println!("t = {:?} \"quoted\"", std::time::Instant::now());
}
