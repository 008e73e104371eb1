//! Golden guard for the message-passing layer: the async self-similar
//! runtime and the async runs of both baselines (snapshot, flooding) over
//! fragmenting environments, with and without message loss, under the
//! window-aware delivery rule — the cells where messages are dropped,
//! re-queued, discarded and delivered.  The streamed records and the
//! `--trace` event stream must stay byte-identical to the committed
//! fixtures.
//!
//! The records are committed verbatim; the trace (megabytes of per-tick
//! events) is committed as its length, line count and FNV-1a digest.  The
//! fixtures were captured with `BLESS_MESSAGE_FIXTURE=1`.  Re-bless only
//! when a record- or trace-schema change is intentional.

use std::path::PathBuf;

use selfsim_campaign::{
    AlgorithmRef, Campaign, EnvRegistry, ExecutionMode, Registry, ScenarioGrid, TopologyRegistry,
    TrialRecord,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// Every message loop × two fragmenting environments × a lossless and a
/// lossy window-aware async mode.
fn message_campaign() -> Campaign {
    let registry = Registry::builtin();
    let algorithms: Vec<AlgorithmRef> = ["minimum", "flooding", "snapshot"]
        .iter()
        .map(|name| registry.resolve(name).expect("builtin algorithm"))
        .collect();
    let modes = [
        "async(dv=any-overlap)",
        "async(i=0.6,l=3,d=0.2,dv=any-overlap(g=4))",
    ]
    .map(|label| ExecutionMode::parse_label(label).expect("mode label"));
    let scenarios = ScenarioGrid::new()
        .algorithms(algorithms)
        .topologies([TopologyRegistry::builtin_ref()
            .resolve("ring")
            .expect("builtin label")])
        .envs(["partition(b=2,t=8)", "churn(e=0.3,a=0.8)"].map(|label| {
            EnvRegistry::builtin_ref()
                .resolve(label)
                .expect("builtin label")
        }))
        .modes(modes)
        .sizes([6])
        .trials(2)
        // Caps the per-tick event stream of cells that never converge.
        .max_rounds(200)
        .expand();
    Campaign::new(scenarios).seed(17).threads(2)
}

fn stream() -> (Vec<u8>, Vec<u8>) {
    let mut records = Vec::new();
    let mut trace = Vec::new();
    message_campaign()
        .stream(Some(&mut records), Some(&mut trace), |_, _| {})
        .expect("traced stream to memory");
    (records, trace)
}

fn check_against_fixture(name: &str, streamed: &[u8]) {
    let path = fixture_path(name);
    if std::env::var_os("BLESS_MESSAGE_FIXTURE").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, streamed).expect("write fixture");
        return;
    }
    let expected = std::fs::read(&path).expect(
        "fixture missing — run once with BLESS_MESSAGE_FIXTURE=1 against a \
         known-good tree to regenerate",
    );
    assert!(
        streamed == expected.as_slice(),
        "{name} diverged from the fixture ({} bytes now vs {} bytes blessed)",
        streamed.len(),
        expected.len()
    );
}

/// A one-line fingerprint of a byte stream: its length, its line count
/// and its 64-bit FNV-1a hash.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let lines = bytes.iter().filter(|&&byte| byte == b'\n').count();
    format!("bytes={} lines={lines} fnv1a64={hash:016x}\n", bytes.len())
}

#[test]
fn message_loops_match_the_golden_records_and_trace() {
    let (records, trace) = stream();
    check_against_fixture("message_records.jsonl", &records);
    check_against_fixture("message_trace.digest", digest(&trace).as_bytes());
}

#[test]
fn every_message_loop_drops_and_requeues_in_the_fixture() {
    let (records, _) = stream();
    let records: Vec<TrialRecord> = String::from_utf8(records)
        .expect("records are utf8")
        .lines()
        .map(|line| serde_json::from_str(line).expect("record line parses"))
        .collect();
    for algorithm in ["minimum", "flooding", "snapshot"] {
        let cells = records.iter().filter(|r| r.algorithm == algorithm);
        let dropped: usize = cells.clone().map(|r| r.messages_dropped).sum();
        let requeued: usize = cells.map(|r| r.messages_requeued).sum();
        assert!(dropped > 0, "{algorithm}: no message was dropped");
        assert!(requeued > 0, "{algorithm}: no message was re-queued");
    }
}
