//! Run recording, convergence metrics, summary statistics and tabular output.
//!
//! The paper's evaluation is qualitative, so the quantitative experiments of
//! this reproduction (EXPERIMENTS.md, E4–E12) need a small measurement
//! layer: every simulated run produces a [`RunMetrics`] record, repeated
//! runs are condensed with [`Summary`] statistics, and the experiment
//! binaries render results as aligned text tables or CSV via [`Table`].
//!
//! Nothing here is specific to self-similar algorithms — the baselines use
//! the same records so comparisons are apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
mod metrics;
mod obs;
mod stats;
mod table;

pub use event::{EventLog, TraceEvent};
pub use metrics::RunMetrics;
pub use obs::{Counter, Histogram, MetricsRegistry, StageTimer};
pub use stats::Summary;
pub use table::Table;
