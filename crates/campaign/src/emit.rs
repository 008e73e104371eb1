//! Emitters: JSON-lines for machines, markdown tables for humans.
//!
//! Both formats are byte-deterministic for a given campaign result: records
//! are emitted in trial order, summaries in scenario-name order, and all
//! numbers use stable formatting.

use std::io::Write;

use crate::aggregate::ScenarioSummary;
use crate::trial::TrialRecord;

/// Writes one JSON object per trial record, one per line.
///
/// Delegates to [`TrialRecord::write_jsonl`] — the same serializer the
/// streaming runner spills through — so collecting records and emitting
/// them afterwards produces byte-for-byte what
/// [`Campaign::stream_to`](crate::Campaign::stream_to) streams.
pub fn write_jsonl<W: Write>(mut out: W, records: &[TrialRecord]) -> std::io::Result<()> {
    let mut line = Vec::new();
    for record in records {
        line.clear();
        record.write_jsonl(&mut line);
        out.write_all(&line)?;
    }
    Ok(())
}

/// Renders the per-scenario summaries as one JSON object per line,
/// through [`ScenarioSummary::write_jsonl`].
pub fn write_summary_jsonl<W: Write>(
    mut out: W,
    summaries: &[ScenarioSummary],
) -> std::io::Result<()> {
    let mut line = Vec::new();
    for summary in summaries {
        line.clear();
        summary.write_jsonl(&mut line);
        out.write_all(&line)?;
    }
    Ok(())
}

/// Renders the per-scenario summaries as a GitHub-flavoured markdown table.
pub fn markdown_summary(summaries: &[ScenarioSummary]) -> String {
    let mut out = String::new();
    out.push_str(
        "| scenario | mode | delivery | trials | converged | expected | mean rounds | p95 rounds | mean msgs | mean dropped | mean req | effectiveness | monotone |\n",
    );
    out.push_str("|---|:---:|:---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|:---:|\n");
    for s in summaries {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {}/{} | {}/{} | {} | {} | {:.0} | {:.0} | {:.0} | {:.2} | {} |\n",
            s.scenario,
            s.mode,
            s.delivery,
            s.trials,
            s.converged,
            s.trials,
            s.expectation_met,
            s.trials,
            format_rounds(s.converged, s.rounds.mean),
            format_rounds(s.converged, s.rounds.p95),
            s.messages.mean,
            s.messages_dropped.mean,
            s.messages_requeued.mean,
            s.effectiveness.mean,
            if s.all_monotone { "yes" } else { "NO" },
        ));
    }
    out
}

/// `—` when nothing converged (a zero would read as "instant").
fn format_rounds(converged: u64, value: f64) -> String {
    if converged == 0 {
        "—".to_string()
    } else {
        format!("{value:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfsim_trace::Summary;

    fn sample_summary(name: &str, converged: u64) -> ScenarioSummary {
        ScenarioSummary {
            scenario: name.into(),
            algorithm: "minimum".into(),
            topology: "ring".into(),
            environment: "static".into(),
            mode: "sync".into(),
            delivery: "-".into(),
            agents: 8,
            trials: 5,
            converged,
            expectation_met: converged,
            convergence_rate: converged as f64 / 5.0,
            rounds: Summary::of_counts(&[3, 4, 5]),
            messages: Summary::of(&[100.0, 120.0]),
            messages_dropped: Summary::of(&[0.0, 0.0]),
            messages_requeued: Summary::of(&[0.0, 0.0]),
            effectiveness: Summary::of(&[0.5, 0.6]),
            all_monotone: true,
        }
    }

    fn sample_record() -> TrialRecord {
        TrialRecord {
            scenario: "minimum/ring/static/n=8/sync".into(),
            algorithm: "minimum".into(),
            topology: "ring".into(),
            environment: "static".into(),
            mode: "sync".into(),
            delivery: "-".into(),
            agents: 8,
            trial: 0,
            seed: 42,
            converged: true,
            expected: "converge".into(),
            meets_expectation: true,
            rounds_to_convergence: Some(4),
            rounds_executed: 4,
            group_steps: 4,
            effective_group_steps: 3,
            messages: 32,
            messages_dropped: 0,
            messages_requeued: 0,
            events_processed: 0,
            peak_queue_depth: 0,
            initial_objective: 100.0,
            final_objective: 8.0,
            objective_monotone: true,
        }
    }

    #[test]
    fn jsonl_round_trips_records() {
        let mut buffer = Vec::new();
        write_jsonl(&mut buffer, &[sample_record(), sample_record()]).expect("in-memory write");
        let text = String::from_utf8(buffer).expect("JSONL is UTF-8");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let back: TrialRecord = serde_json::from_str(line).expect("line parses back");
            assert_eq!(back, sample_record());
        }
    }

    #[test]
    fn jsonl_is_byte_deterministic() {
        let records = [sample_record()];
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_jsonl(&mut a, &records).expect("in-memory write");
        write_jsonl(&mut b, &records).expect("in-memory write");
        assert_eq!(a, b);
    }

    fn summary_line(summary: ScenarioSummary) -> String {
        let mut buffer = Vec::new();
        write_summary_jsonl(&mut buffer, &[summary]).expect("in-memory write");
        String::from_utf8(buffer).expect("JSONL is UTF-8")
    }

    /// Pins the summary line's bytes: fields in declaration order, each
    /// statistic a nested object.
    #[test]
    fn summary_jsonl_keeps_its_bytes() {
        assert_eq!(
            summary_line(sample_summary("a", 5)),
            concat!(
                r#"{"scenario":"a","algorithm":"minimum","topology":"ring","environment":"static","#,
                r#""mode":"sync","delivery":"-","agents":8,"trials":5,"converged":5,"#,
                r#""expectation_met":5,"convergence_rate":1.0,"#,
                r#""rounds":{"count":3,"mean":4.0,"stddev":0.816496580927726,"min":3.0,"max":5.0,"median":4.0,"p95":5.0},"#,
                r#""messages":{"count":2,"mean":110.0,"stddev":10.0,"min":100.0,"max":120.0,"median":120.0,"p95":120.0},"#,
                r#""messages_dropped":{"count":2,"mean":0.0,"stddev":0.0,"min":0.0,"max":0.0,"median":0.0,"p95":0.0},"#,
                r#""messages_requeued":{"count":2,"mean":0.0,"stddev":0.0,"min":0.0,"max":0.0,"median":0.0,"p95":0.0},"#,
                r#""effectiveness":{"count":2,"mean":0.55,"stddev":0.04999999999999999,"min":0.5,"max":0.6,"median":0.6,"p95":0.6},"#,
                r#""all_monotone":true}"#,
                "\n"
            )
        );
    }

    /// Labels are escaped like every other string the program writes:
    /// quote, backslash and newline get short escapes, non-ASCII copies
    /// through.
    #[test]
    fn summary_jsonl_escapes_labels() {
        let summary = ScenarioSummary {
            environment: "caf\u{e9}(e=0.3)".into(),
            rounds: Summary::of(&[]),
            all_monotone: false,
            ..sample_summary("say \"hi\"\\n=8\nnext", 0)
        };
        assert_eq!(
            summary_line(summary),
            concat!(
                r#"{"scenario":"say \"hi\"\\n=8\nnext","algorithm":"minimum","topology":"ring","#,
                r#""environment":"café(e=0.3)","mode":"sync","delivery":"-","agents":8,"trials":5,"#,
                r#""converged":0,"expectation_met":0,"convergence_rate":0.0,"#,
                r#""rounds":{"count":0,"mean":0.0,"stddev":0.0,"min":0.0,"max":0.0,"median":0.0,"p95":0.0},"#,
                r#""messages":{"count":2,"mean":110.0,"stddev":10.0,"min":100.0,"max":120.0,"median":120.0,"p95":120.0},"#,
                r#""messages_dropped":{"count":2,"mean":0.0,"stddev":0.0,"min":0.0,"max":0.0,"median":0.0,"p95":0.0},"#,
                r#""messages_requeued":{"count":2,"mean":0.0,"stddev":0.0,"min":0.0,"max":0.0,"median":0.0,"p95":0.0},"#,
                r#""effectiveness":{"count":2,"mean":0.55,"stddev":0.04999999999999999,"min":0.5,"max":0.6,"median":0.6,"p95":0.6},"#,
                r#""all_monotone":false}"#,
                "\n"
            )
        );
    }

    #[test]
    fn markdown_has_header_and_one_row_per_summary() {
        let md = markdown_summary(&[sample_summary("a", 5), sample_summary("b", 0)]);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| scenario |"));
        assert!(lines[2].contains("| a |"));
        // A never-converging cell shows an em dash, not 0.0 rounds.
        assert!(lines[3].contains("—"));
    }
}
