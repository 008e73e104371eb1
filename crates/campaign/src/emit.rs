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

/// Renders the per-scenario summaries as one JSON object per line.
pub fn write_summary_jsonl<W: Write>(
    mut out: W,
    summaries: &[ScenarioSummary],
) -> std::io::Result<()> {
    for summary in summaries {
        let line = serde_json::to_string(summary)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
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

    #[test]
    fn summary_jsonl_round_trips() {
        let mut buffer = Vec::new();
        write_summary_jsonl(&mut buffer, &[sample_summary("a", 5)]).expect("in-memory write");
        let text = String::from_utf8(buffer).expect("JSONL is UTF-8");
        let back: ScenarioSummary = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(back, sample_summary("a", 5));
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
