//! Golden flight-recorder traces for the paper workflows.
//!
//! Each fixture under `tests/trace_fixtures/golden/` is the full flow-level
//! JSONL trace of a Mashup run on the 4-node AWS-like configuration —
//! every task dispatch, function invocation, checkpoint, storage transfer,
//! and billing event, with the PDC's decision provenance. The comparison
//! is byte-for-byte: any drift in scheduling order, billing math, or the
//! serialization format shows up as a diff here before it can silently
//! change figures.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! MASHUP_BLESS_TRACES=1 cargo test --test trace_golden
//! ```
//!
//! then review the fixture diff like any other code change.
//!
//! To read back every trace a `figures --trace-dir DIR` pass wrote:
//!
//! ```text
//! MASHUP_TRACE_DIR=DIR cargo test --test trace_golden
//! ```

use mashup_baselines::Strategy;
use mashup_cloud::{Fault, FaultPlan};
use mashup_core::{ChaosSpec, CheckedWorkflow, Fingerprinter, Mashup, MashupConfig, Tracer};
use mashup_sim::trace::{from_canonical_line, from_jsonl, to_jsonl};
use mashup_workflows::{epigenomics, genome1000, srasearch};
use std::path::{Path, PathBuf};

fn golden_path(name: &str) -> PathBuf {
    fixture_path(&format!("{name}.jsonl"))
}

fn fixture_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/trace_fixtures/golden")
        .join(file)
}

/// With `MASHUP_BLESS_TRACES` set, writes `actual` as the fixture at
/// `path` and returns `None`; otherwise returns the committed fixture.
fn bless_or_read(path: &Path, actual: &str) -> Option<String> {
    if std::env::var_os("MASHUP_BLESS_TRACES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(path, actual).expect("write fixture");
        return None;
    }
    Some(std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(run `MASHUP_BLESS_TRACES=1 cargo test --test trace_golden` \
             to record fixtures)",
            path.display()
        )
    }))
}

fn record(workflow: &mashup_dag::Workflow) -> String {
    let tracer = Tracer::new();
    Mashup::new(MashupConfig::aws(4))
        .with_tracer(tracer.clone())
        .try_run(workflow)
        .expect("clean inputs");
    to_jsonl(&tracer.take())
}

fn record_chaos(workflow: &mashup_dag::Workflow, chaos: ChaosSpec) -> String {
    let tracer = Tracer::new();
    Mashup::new(MashupConfig::aws(4).with_chaos(chaos))
        .with_tracer(tracer.clone())
        .try_run(workflow)
        .expect("clean inputs");
    to_jsonl(&tracer.take())
}

/// Two spot nodes reclaimed mid-run with the replanning controller on, so
/// the golden pins preemption, retry, replanning, and spot-billing bytes.
fn preempt_chaos(at_secs: f64) -> ChaosSpec {
    let mut plan = FaultPlan::empty(29);
    plan.faults.push(Fault::Preempt { at_secs, node: 1 });
    plan.faults.push(Fault::Preempt { at_secs, node: 2 });
    ChaosSpec::new(plan).with_adaptive(true)
}

/// A transient GET-error window plus a latency spike over the early run,
/// so the golden pins fault injection and per-operation retry bytes.
fn storage_chaos(until_secs: f64) -> ChaosSpec {
    let mut plan = FaultPlan::empty(31);
    plan.faults.push(Fault::StorageError {
        from_secs: 0.0,
        until_secs,
        prob: 0.3,
    });
    plan.faults.push(Fault::StorageLatency {
        from_secs: 0.0,
        until_secs,
        extra_secs: 0.2,
    });
    ChaosSpec::new(plan)
}

fn check_golden(name: &str, workflow: &mashup_dag::Workflow) {
    check_golden_bytes(name, record(workflow));
}

fn check_golden_bytes(name: &str, actual: String) {
    let Some(golden) = bless_or_read(&golden_path(name), &actual) else {
        return;
    };
    // The serialized form must round-trip through the parser losslessly.
    let parsed = from_jsonl(&actual).expect("trace parses");
    assert_eq!(
        to_jsonl(&parsed),
        actual,
        "{name}: JSONL round-trip lost information"
    );
    assert_eq!(
        golden, actual,
        "{name}: trace drifted from the golden fixture (bless with MASHUP_BLESS_TRACES=1 \
         if the change is intentional)"
    );
}

#[test]
fn genome1000_trace_matches_golden() {
    check_golden("genome1000", &genome1000::workflow());
}

#[test]
fn srasearch_trace_matches_golden() {
    check_golden("srasearch", &srasearch::workflow());
}

#[test]
fn epigenomics_trace_matches_golden() {
    check_golden("epigenomics", &epigenomics::workflow());
}

// --- verbose digest: engine dispatches and link transfer lifecycles ----
//
// The flow-level goldens above record neither `Dispatch` nor
// `TransferStart`/`TransferEnd`. The verbose stream does, so it pins the
// engine's event order and the order in which a link finishes transfers
// due at one instant. A full verbose trace is megabytes, so the fixture
// holds a 128-bit fingerprint of its JSONL.

/// The fingerprint of the verbose JSONL trace `run` records, in hex.
fn verbose_digest(run: impl FnOnce(&Tracer)) -> String {
    let tracer = Tracer::verbose();
    run(&tracer);
    let mut f = Fingerprinter::new("verbose-trace-v1");
    f.write_str(&to_jsonl(&tracer.take()));
    format!("{:032x}\n", f.digest())
}

/// 1000Genome at 8 nodes: the Mashup run, and the all-VM run at two
/// sub-clusters (one of the PDC's profiling splits). The all-VM run's
/// fabric links each finish over 600 transfers due at one instant, one
/// forced tick at a time; the Mashup run's own execution has no such
/// cascade.
#[test]
fn genome1000_verbose_trace_matches_golden_digest() {
    let workflow = CheckedWorkflow::new(genome1000::workflow()).expect("clean workflow");
    let cfg = MashupConfig::aws(8);
    let mashup = verbose_digest(|tracer| {
        Mashup::new(cfg.clone())
            .with_tracer(tracer.clone())
            .run_checked(&workflow)
            .expect("clean inputs");
    });
    let all_vm = verbose_digest(|tracer| {
        let split = cfg.clone().with_subclusters(2);
        Strategy::Traditional
            .run(&split, &workflow, tracer, None)
            .expect("all-VM run");
    });
    let actual = format!("mashup {mashup}all-vm-2 {all_vm}");
    let Some(golden) = bless_or_read(&fixture_path("genome1000_8_verbose.digest"), &actual) else {
        return;
    };
    assert_eq!(
        golden, actual,
        "verbose trace drifted from the golden digest (bless with MASHUP_BLESS_TRACES=1 \
         if the change is intentional)"
    );
}

/// Kepler, verbose, on the three paper workflows at 4 nodes, and on
/// SRAsearch at 8 nodes in two sub-clusters: the second pins which
/// sub-cluster each dataflow-fired VM task takes.
#[test]
fn kepler_verbose_trace_matches_golden_digest() {
    let kepler = |cfg: &MashupConfig, w: mashup_dag::Workflow| {
        let workflow = CheckedWorkflow::new(w).expect("clean workflow");
        verbose_digest(|tracer| {
            Strategy::Kepler
                .run(cfg, &workflow, tracer, None)
                .expect("kepler run");
        })
    };
    let aws4 = MashupConfig::aws(4);
    let split = MashupConfig::aws(8).with_subclusters(2);
    let actual = format!(
        "1000genome {}srasearch {}epigenomics {}srasearch-8-2 {}",
        kepler(&aws4, genome1000::workflow()),
        kepler(&aws4, srasearch::workflow()),
        kepler(&aws4, epigenomics::workflow()),
        kepler(&split, srasearch::workflow()),
    );
    let Some(golden) = bless_or_read(&fixture_path("kepler_verbose.digest"), &actual) else {
        return;
    };
    assert_eq!(
        golden, actual,
        "Kepler's verbose trace drifted from the golden digest (bless with \
         MASHUP_BLESS_TRACES=1 if the change is intentional)"
    );
}

/// Every line of a verbose 1000Genome trace takes the canonical reader
/// and decodes to the record it was written from, and to what the
/// general reader makes of the same line behind a leading space.
#[test]
fn verbose_trace_lines_take_the_canonical_reader() {
    let tracer = Tracer::verbose();
    Mashup::new(MashupConfig::aws(8))
        .with_tracer(tracer.clone())
        .try_run(&genome1000::workflow())
        .expect("clean inputs");
    let records = tracer.take();
    let text = to_jsonl(&records);
    assert_eq!(text.lines().count(), records.len());
    for (record, line) in records.iter().zip(text.lines()) {
        let canonical = from_canonical_line(line).unwrap_or_else(|| panic!("declined {line}"));
        let general = from_jsonl(&format!(" {line}")).expect("general reader accepts");
        // Debug output tells -0.0 from 0.0, which `==` does not.
        assert_eq!(format!("{canonical:?}"), format!("{record:?}"));
        assert_eq!(format!("{:?}", [canonical]), format!("{general:?}"));
    }
}

/// With `MASHUP_TRACE_DIR` set, every `.jsonl` file in it (as written by
/// `figures --trace-dir`) decodes and re-encodes to the same bytes.
#[test]
fn trace_dir_files_round_trip() {
    let Some(dir) = std::env::var_os("MASHUP_TRACE_DIR") else {
        return;
    };
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("read MASHUP_TRACE_DIR") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read trace");
        let records = from_jsonl(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            to_jsonl(&records) == text,
            "{}: JSONL round trip changed the bytes",
            path.display()
        );
        files += 1;
    }
    assert!(files > 0, "no .jsonl files in {}", dir.to_string_lossy());
}

// --- chaos goldens: seeded fault schedules replay byte-for-byte ---------
//
// Reclaim instants / fault windows sit in each workflow's first quarter
// (makespans at 4 nodes: ~923s, ~418s, ~5083s), so plenty of the run
// remains for retries and replanning to land in the trace.

#[test]
fn genome1000_preemption_trace_matches_golden() {
    let t = record_chaos(&genome1000::workflow(), preempt_chaos(200.0));
    check_golden_bytes("genome1000_preempt", t);
}

#[test]
fn srasearch_preemption_trace_matches_golden() {
    let t = record_chaos(&srasearch::workflow(), preempt_chaos(100.0));
    check_golden_bytes("srasearch_preempt", t);
}

#[test]
fn epigenomics_preemption_trace_matches_golden() {
    let t = record_chaos(&epigenomics::workflow(), preempt_chaos(1200.0));
    check_golden_bytes("epigenomics_preempt", t);
}

#[test]
fn genome1000_storage_fault_trace_matches_golden() {
    let t = record_chaos(&genome1000::workflow(), storage_chaos(230.0));
    check_golden_bytes("genome1000_storage", t);
}

#[test]
fn srasearch_storage_fault_trace_matches_golden() {
    let t = record_chaos(&srasearch::workflow(), storage_chaos(100.0));
    check_golden_bytes("srasearch_storage", t);
}

#[test]
fn epigenomics_storage_fault_trace_matches_golden() {
    let t = record_chaos(&epigenomics::workflow(), storage_chaos(1200.0));
    check_golden_bytes("epigenomics_storage", t);
}

/// The chaos layer is strictly opt-in: a config carrying an *inert* spec
/// (controller off, zero faults) must replay the fault-free golden
/// byte-for-byte — same events, same seq numbers, same serialization.
#[test]
fn inert_chaos_matches_the_fault_free_golden() {
    for (name, w) in [
        ("genome1000", genome1000::workflow()),
        ("srasearch", srasearch::workflow()),
        ("epigenomics", epigenomics::workflow()),
    ] {
        let golden = std::fs::read_to_string(golden_path(name)).expect("fault-free golden");
        let inert = record_chaos(&w, ChaosSpec::new(FaultPlan::empty(97)));
        assert_eq!(
            golden, inert,
            "{name}: an inert ChaosSpec perturbed the fault-free trace"
        );
    }
}
