//! Sharding: splitting one campaign across independent processes.
//!
//! A campaign's flat job list (scenario-major, trial-minor) is split by
//! *stable stride*: shard `i` of `k` owns every job whose global position
//! is congruent to `i` modulo `k`.  The stride split balances load (cells
//! differ wildly in cost, so contiguous ranges would skew) and makes the
//! merge trivial and byte-exact: each unsharded stream is the round-robin
//! interleave of its shard streams, one trial's block at a time — a record
//! line, or a `trial-start`…`trial-end` trace block ([`StreamKind`]) — so
//! the one [`merge_shards`] reconstructs the *exact bytes* an unsharded
//! run would have emitted, for records and traces alike.  [`MergeOrder`]
//! checks the merged blocks' `(scenario, trial)` sequence for both
//! streams.  Per-trial seeds are derived from `(campaign seed, scenario,
//! trial)` and never from the shard, so the determinism contract —
//! byte-identical output for a given `(scenarios, seed)` — holds
//! regardless of threads *or* shards.

use serde::Value;

use crate::trial::required;

/// Which slice of the campaign's job list this process runs: shard
/// `index` of `count`, selecting jobs by stable stride.
///
/// The default ([`ShardSpec::full`]) is shard `0/1` — the whole campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    index: u64,
    count: u64,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::full()
    }
}

impl ShardSpec {
    /// The whole campaign as a single shard (`0/1`).
    pub fn full() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Shard `index` of `count`; errors unless `index < count`.
    pub fn new(index: u64, count: u64) -> Result<Self, String> {
        if count == 0 {
            return Err(format!(
                "invalid shard spec `{index}/{count}`: the shard count must be at least 1 \
                 (expected `i/k` with 0 <= i < k, e.g. `0/4`)"
            ));
        }
        if index >= count {
            return Err(format!(
                "invalid shard spec `{index}/{count}`: the shard index must be below the \
                 shard count (expected `i/k` with 0 <= i < k, e.g. `0/{count}`)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses an `i/k` spec (what the CLI's `--shard` flag accepts),
    /// mirroring the registry's descriptive-error style.
    pub fn parse(s: &str) -> Result<Self, String> {
        let malformed = || {
            format!(
                "invalid shard spec `{s}`: expected `i/k` with 0 <= i < k \
                 (two base-10 integers, e.g. `0/4`)"
            )
        };
        let (index, count) = s.split_once('/').ok_or_else(malformed)?;
        let index: u64 = index.trim().parse().map_err(|_| malformed())?;
        let count: u64 = count.trim().parse().map_err(|_| malformed())?;
        ShardSpec::new(index, count)
    }

    /// This shard's index.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Total number of shards.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when this is the whole campaign (`0/1`).
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// The `i/k` label (inverse of [`ShardSpec::parse`]).
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }

    /// `true` when this shard owns the job at `position` in the flat,
    /// scenario-major job list.
    pub fn owns(&self, position: u64) -> bool {
        position % self.count == self.index
    }

    /// The global job position of this shard's `local`-th job — the stride
    /// enumeration `index, index + count, index + 2·count, …`.
    pub fn global_position(&self, local: u64) -> u64 {
        self.index + local * self.count
    }

    /// How many of `total` jobs this shard owns.
    pub fn size(&self, total: u64) -> u64 {
        total.saturating_sub(self.index).div_ceil(self.count)
    }
}

/// The two JSONL streams a campaign writes, as the shard merge reads them:
/// one *block* per trial, in global job order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// `--out` records: a block is one line.
    Records,
    /// `--trace` events: a block runs from a trial's `trial-start` line
    /// through its `trial-end` line.
    Traces,
}

impl StreamKind {
    /// What one block is called in error messages.
    fn unit(self) -> &'static str {
        match self {
            StreamKind::Records => "record",
            StreamKind::Traces => "trial block",
        }
    }

    /// `true` when `line` closes its block.  Trace blocks are delimited by
    /// the stable `{"event":"trial-end"` prefix every trace serializer
    /// emits, so no line is parsed here.
    fn ends_block(self, line: &[u8]) -> bool {
        self == StreamKind::Records || line.starts_with(b"{\"event\":\"trial-end\"")
    }
}

/// Round-robin merges stride-sharded streams of `kind` back into the exact
/// byte stream an unsharded run would have emitted.
///
/// `shards` must be given in `--shard` index order (`0/k`, `1/k`, …):
/// round `r` of the merge emits block `r` of every shard in turn, which is
/// exactly the global job order under stride sharding.  Every emitted line
/// ends with `\n` (re-normalised if a shard file lacks a trailing
/// newline), and `emit` is called once per block with the block's bytes.
///
/// Returns the number of merged blocks.  Errors — without any partial
/// emission beyond what already succeeded — when a stream fails to read,
/// ends mid-block (a truncated trace), `emit` fails, or the block counts
/// are inconsistent with a stride partition (a later shard yielding a
/// block after an earlier one ran dry, or counts spreading by more than
/// one), which is what passing files out of order or dropping a shard
/// usually looks like.
///
/// These checks are *structural* (they never parse a line), so equal-count
/// shard files passed out of index order merge without error here — feed
/// each emitted block to a [`MergeOrder`] checker (as `campaign --merge`
/// does) to verify the reconstructed global order exactly.
pub fn merge_shards<R: std::io::BufRead>(
    kind: StreamKind,
    shards: &mut [R],
    mut emit: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<u64, String> {
    let unit = kind.unit();
    let mut counts = vec![0u64; shards.len()];
    let mut block = Vec::new();
    loop {
        let mut exhausted_this_round: Option<usize> = None;
        let mut progressed = false;
        for (i, (shard, count)) in shards.iter_mut().zip(&mut counts).enumerate() {
            block.clear();
            if !read_block(kind, shard, &mut block)
                .map_err(|e| format!("cannot read shard file {i}: {e}"))?
            {
                exhausted_this_round.get_or_insert(i);
                continue;
            }
            if let Some(j) = exhausted_this_round {
                return Err(format!(
                    "shard file {i} still has {unit}s after shard file {j} ran dry; \
                     stride-sharded outputs must be passed in `--shard` index order \
                     (`0/k`, `1/k`, ...) with no shard missing"
                ));
            }
            emit(&block)?;
            *count += 1;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0);
    if max > min + 1 {
        return Err(format!(
            "shard {unit} counts {counts:?} are not a stride partition \
             (they may differ by at most one); was a shard file omitted?"
        ));
    }
    Ok(counts.iter().sum())
}

/// Appends the next block of `shard` to `block`, newline-terminating every
/// line; `Ok(false)` at a clean end of stream.
fn read_block(
    kind: StreamKind,
    shard: &mut impl std::io::BufRead,
    block: &mut Vec<u8>,
) -> std::io::Result<bool> {
    loop {
        let start = block.len();
        if shard.read_until(b'\n', block)? == 0 {
            if start == 0 {
                return Ok(false);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the file ends mid-trial (no `trial-end` event closes the final block); \
                 was it truncated?",
            ));
        }
        if !block.ends_with(b"\n") {
            block.push(b'\n');
        }
        if kind.ends_block(&block[start..]) {
            return Ok(true);
        }
    }
}

/// Verifies that a merged stream is in unsharded job *shape* —
/// scenario-major (each scenario's blocks contiguous), trial-minor
/// (trials `0, 1, 2, …` within the scenario) — without knowing the grid.
/// Records feed it their `(scenario, trial)` columns; trace blocks their
/// `trial-start` event ([`MergeOrder::check_trace_block`]).  It keeps one
/// name per finished scenario, so memory is `O(#scenarios)`.
///
/// This tightens [`merge_shards`]' structural checks considerably: two
/// equal-length shard files swapped on the command line interleave without
/// tripping any count check, but any misplaced record that breaks a
/// scenario's `0, 1, 2, …` trial sequence fails here.  When every cell
/// runs at least two trials, a swap always breaks some sequence (stride
/// sharding spreads each cell's trials over multiple shards), so
/// detection is complete.  The irreducible blind spot: a grid whose cells
/// all run exactly *one* trial permutes as whole single-record blocks,
/// which no grid-agnostic check can distinguish from the true order — if
/// you merge such a stream, pass the files in `--shard` index order (or
/// `cmp` against an unsharded rerun).
#[derive(Debug, Default)]
pub struct MergeOrder {
    current: Option<String>,
    next_trial: u64,
    finished: std::collections::BTreeSet<String>,
}

impl MergeOrder {
    /// A checker expecting the first record of the first scenario.
    pub fn new() -> Self {
        MergeOrder::default()
    }

    /// Checks that trial `trial` of `scenario` comes next in the merged
    /// stream.
    pub fn check(&mut self, scenario: &str, trial: u64) -> Result<(), String> {
        let misordered = |got: u64, want: u64| {
            format!(
                "merged stream is out of order: scenario `{scenario}` trial {got} where trial \
                 {want} was expected; are the shard files in `--shard` index order?"
            )
        };
        match &self.current {
            Some(current) if current == scenario => {
                if trial != self.next_trial {
                    return Err(misordered(trial, self.next_trial));
                }
            }
            _ => {
                if self.finished.contains(scenario) {
                    return Err(format!(
                        "merged stream is out of order: records for scenario `{scenario}` are \
                         not contiguous; are the shard files in `--shard` index order?"
                    ));
                }
                if trial != 0 {
                    return Err(misordered(trial, 0));
                }
                if let Some(finished) = self.current.take() {
                    self.finished.insert(finished);
                }
                self.current = Some(scenario.to_string());
                self.next_trial = 0;
            }
        }
        self.next_trial += 1;
        Ok(())
    }

    /// Checks the next trace block of the merged stream by its opening
    /// `trial-start` event — the only line of the block that is parsed,
    /// and only its `event`, `scenario` and `trial` fields are read.
    pub fn check_trace_block(&mut self, block: &[u8]) -> Result<(), String> {
        let start = block.split(|&b| b == b'\n').next().unwrap_or_default();
        let malformed = |e: String| format!("malformed trace line: {e}");
        let event: Value = std::str::from_utf8(start)
            .map_err(|e| e.to_string())
            .and_then(|line| serde_json::from_str(line).map_err(|e| e.to_string()))
            .map_err(malformed)?;
        let tag: String = required(&event, "event").map_err(|e| malformed(e.0))?;
        if tag != "trial-start" {
            return Err(format!(
                "trace block opens with a `{tag}` event, not `trial-start`"
            ));
        }
        let scenario: String = required(&event, "scenario").map_err(|e| malformed(e.0))?;
        let trial: u64 = required(&event, "trial").map_err(|e| malformed(e.0))?;
        self.check(&scenario, trial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_trace::TraceEvent;
    use std::io::Cursor;

    #[test]
    fn full_shard_owns_everything() {
        let full = ShardSpec::full();
        assert!(full.is_full());
        for position in 0..10 {
            assert!(full.owns(position));
        }
        assert_eq!(full.size(7), 7);
        assert_eq!(full.label(), "0/1");
    }

    #[test]
    fn stride_ownership_partitions_positions() {
        let shards: Vec<ShardSpec> = (0..3)
            .map(|i| ShardSpec::new(i, 3).expect("index below count"))
            .collect();
        for position in 0..20u64 {
            let owners = shards.iter().filter(|s| s.owns(position)).count();
            assert_eq!(owners, 1, "position {position}");
        }
        // Sizes cover the total and differ by at most one.
        let sizes: Vec<u64> = shards.iter().map(|s| s.size(20)).collect();
        assert_eq!(sizes.iter().sum::<u64>(), 20);
        assert_eq!(sizes, vec![7, 7, 6]);
        // Local → global enumeration is the stride.
        assert_eq!(shards[1].global_position(0), 1);
        assert_eq!(shards[1].global_position(2), 7);
    }

    #[test]
    fn parse_round_trips_and_rejects_malformed_specs() {
        let spec = ShardSpec::parse("2/5").expect("valid shard label");
        assert_eq!((spec.index(), spec.count()), (2, 5));
        assert_eq!(
            ShardSpec::parse(&spec.label()).expect("a label round-trips"),
            spec
        );

        for bad in ["3/3", "0/0", "a/b", "", "1", "1/", "/4", "-1/4", "1/2/3"] {
            let err = ShardSpec::parse(bad).unwrap_err();
            assert!(
                err.contains(&format!("invalid shard spec `{bad}`")) || bad.is_empty(),
                "{bad}: {err}"
            );
            assert!(err.contains("expected `i/k`"), "{bad}: {err}");
        }
        // The two semantically-bad shapes get targeted messages.
        assert!(ShardSpec::parse("3/3")
            .unwrap_err()
            .contains("index must be below"));
        assert!(ShardSpec::parse("0/0")
            .unwrap_err()
            .contains("count must be at least 1"));
    }

    fn lines(items: &[&str]) -> Cursor<Vec<u8>> {
        Cursor::new(items.concat().into_bytes())
    }

    #[test]
    fn merge_interleaves_round_robin() {
        // Stride split of lines a..g over 3 shards.
        let mut shards = vec![
            lines(&["a\n", "d\n", "g\n"]),
            lines(&["b\n", "e\n"]),
            lines(&["c\n", "f\n"]),
        ];
        let mut out = Vec::new();
        let merged = merge_shards(StreamKind::Records, &mut shards, |line| {
            out.extend_from_slice(line);
            Ok(())
        })
        .expect("in-order shards merge");
        assert_eq!(merged, 7);
        assert_eq!(out, b"a\nb\nc\nd\ne\nf\ng\n");
    }

    #[test]
    fn merge_renormalises_missing_trailing_newline() {
        let mut shards = vec![lines(&["a\n", "c"]), lines(&["b\n"])];
        let mut out = Vec::new();
        merge_shards(StreamKind::Records, &mut shards, |line| {
            out.extend_from_slice(line);
            Ok(())
        })
        .expect("in-order shards merge");
        assert_eq!(out, b"a\nb\nc\n");
    }

    #[test]
    fn merge_rejects_out_of_order_shards() {
        // Shard 1 (2 lines) passed before shard 0 (3 lines): the longer
        // file yields a line after the shorter ran dry.
        let mut shards = vec![lines(&["b\n", "e\n"]), lines(&["a\n", "d\n", "g\n"])];
        let err = merge_shards(StreamKind::Records, &mut shards, |_| Ok(())).unwrap_err();
        assert!(err.contains("`--shard` index order"), "{err}");
        assert!(err.contains("still has records"), "{err}");
    }

    #[test]
    fn merge_rejects_non_partition_counts() {
        let mut shards = vec![lines(&["a\n", "b\n", "c\n"]), lines(&["d\n"])];
        let err = merge_shards(StreamKind::Records, &mut shards, |_| Ok(())).unwrap_err();
        assert!(err.contains("not a stride partition"), "{err}");
    }

    #[test]
    fn trace_merge_interleaves_whole_trial_blocks() {
        let block = |trial: u64, lines_between: usize| {
            let mut block = format!("{{\"event\":\"trial-start\",\"trial\":{trial}}}\n");
            for tick in 0..lines_between {
                block.push_str(&format!("{{\"event\":\"group-step\",\"tick\":{tick}}}\n"));
            }
            block.push_str(&format!("{{\"event\":\"trial-end\",\"trial\":{trial}}}\n"));
            block
        };
        // Stride split of trials 0..5 over 2 shards, with block lengths
        // deliberately uneven so line-wise interleaving would garble them.
        let shard0 = [block(0, 3), block(2, 0), block(4, 1)].concat();
        let shard1 = [block(1, 1), block(3, 2)].concat();
        let mut shards = vec![
            Cursor::new(shard0.clone().into_bytes()),
            Cursor::new(shard1.clone().into_bytes()),
        ];
        let mut out = Vec::new();
        let merged = merge_shards(StreamKind::Traces, &mut shards, |line| {
            out.extend_from_slice(line);
            Ok(())
        })
        .expect("in-order shards merge");
        assert_eq!(merged, 5);
        let expected = [
            block(0, 3),
            block(1, 1),
            block(2, 0),
            block(3, 2),
            block(4, 1),
        ]
        .concat();
        assert_eq!(
            String::from_utf8(out).expect("merged traces are UTF-8"),
            expected
        );
    }

    #[test]
    fn trace_merge_rejects_truncated_blocks() {
        let whole =
            "{\"event\":\"trial-start\",\"trial\":0}\n{\"event\":\"trial-end\",\"trial\":0}\n";
        let truncated = "{\"event\":\"trial-start\",\"trial\":1}\n";
        let mut shards = vec![
            Cursor::new(whole.as_bytes().to_vec()),
            Cursor::new(truncated.as_bytes().to_vec()),
        ];
        let err = merge_shards(StreamKind::Traces, &mut shards, |_| Ok(())).unwrap_err();
        assert!(err.contains("mid-trial"), "{err}");
    }

    #[test]
    fn trace_merge_rejects_out_of_order_shards() {
        let block = |trial: u64| {
            format!("{{\"event\":\"trial-start\",\"trial\":{trial}}}\n{{\"event\":\"trial-end\",\"trial\":{trial}}}\n")
        };
        let mut shards = vec![
            Cursor::new(block(1).into_bytes()),
            Cursor::new([block(0), block(2)].concat().into_bytes()),
        ];
        let err = merge_shards(StreamKind::Traces, &mut shards, |_| Ok(())).unwrap_err();
        assert!(err.contains("`--shard` index order"), "{err}");
        assert!(err.contains("still has trial blocks"), "{err}");
    }

    #[test]
    fn merge_propagates_emit_errors() {
        let mut shards = vec![lines(&["a\n"])];
        let err = merge_shards(
            StreamKind::Records,
            &mut shards,
            |_| Err("sink full".into()),
        )
        .unwrap_err();
        assert_eq!(err, "sink full");
    }

    #[test]
    fn merge_order_accepts_scenario_major_trial_minor_streams() {
        let mut order = MergeOrder::new();
        for (scenario, trial) in [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)] {
            order.check(scenario, trial).expect("in order");
        }
    }

    #[test]
    fn merge_order_catches_equal_count_shards_swapped() {
        // Stride shards of a,0 a,1 a,2 a,3: shard0 = trials 0,2; shard1 =
        // trials 1,3.  Merging them swapped yields 1,0,3,2 — the very
        // first record already has the wrong trial index.
        let mut order = MergeOrder::new();
        let err = order.check("a", 1).unwrap_err();
        assert!(err.contains("trial 1 where trial 0 was expected"), "{err}");

        // And mid-scenario swaps are caught by the increment check.
        let mut order = MergeOrder::new();
        order.check("a", 0).expect("in order");
        let err = order.check("a", 2).unwrap_err();
        assert!(err.contains("trial 2 where trial 1 was expected"), "{err}");
    }

    #[test]
    fn merge_order_rejects_non_contiguous_scenarios() {
        let mut order = MergeOrder::new();
        order.check("a", 0).expect("in order");
        order.check("b", 0).expect("in order");
        let err = order.check("a", 1).unwrap_err();
        assert!(err.contains("not contiguous"), "{err}");
    }

    /// One trial's trace block: a real `trial-start` line, one event and
    /// a `trial-end` line.
    fn trace_block(scenario: &str, trial: u64) -> String {
        let mut block = Vec::new();
        TraceEvent::TrialStart {
            scenario: scenario.into(),
            algorithm: "minimum".into(),
            topology: "ring".into(),
            environment: "static".into(),
            mode: "sync".into(),
            delivery: "-".into(),
            agents: 8,
            trial,
            seed: trial,
        }
        .write_jsonl(&mut block);
        let start = String::from_utf8(block).expect("JSONL is UTF-8");
        format!(
            "{start}{{\"event\":\"group-step\",\"tick\":0}}\n\
             {{\"event\":\"trial-end\",\"trial\":{trial}}}\n"
        )
    }

    #[test]
    fn trace_merge_order_rejects_swapped_shards() {
        // Two cells of two trials, stride-split over two shards: both
        // shards hold two blocks, so a swap passes every count check.
        let shard0 = [trace_block("a", 0), trace_block("b", 0)].concat();
        let shard1 = [trace_block("a", 1), trace_block("b", 1)].concat();
        let merge = |first: &str, second: &str| {
            let mut shards = vec![Cursor::new(first), Cursor::new(second)];
            let mut order = MergeOrder::new();
            merge_shards(StreamKind::Traces, &mut shards, |block| {
                order.check_trace_block(block)
            })
        };
        assert_eq!(merge(&shard0, &shard1), Ok(4));
        let err = merge(&shard1, &shard0).expect_err("swapped trace shards");
        assert!(
            err.contains("scenario `a` trial 1 where trial 0 was expected"),
            "{err}"
        );
        // A block's opening line is read by field name; each way it can
        // fail to be a `trial-start` with a trial index is named.
        for (start, problem) in [
            ("trial-start", "malformed trace line: JSON error"),
            (
                r#"{"event":"group-step","tick":0}"#,
                "opens with a `group-step` event, not `trial-start`",
            ),
            (
                r#"{"event":"trial-start","scenario":"a"}"#,
                "malformed trace line: missing field trial",
            ),
            (
                r#"{"event":"trial-start","scenario":"a","trial":1.5}"#,
                "malformed trace line: expected u64",
            ),
            (
                r#"{"event":"trial-start","scenario":"a","trial":"0"}"#,
                "malformed trace line: expected u64",
            ),
        ] {
            let block = format!("{start}\n{{\"event\":\"trial-end\",\"trial\":0}}\n");
            let err = merge(&block, "").expect_err(start);
            assert!(err.contains(problem), "{start}: {err}");
        }
    }
}
