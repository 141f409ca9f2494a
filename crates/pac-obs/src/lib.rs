//! Campaign-scale observability for the PAC harness.
//!
//! Three cooperating tiers, all zero-cost when disabled:
//!
//! 1. **Harness self-metrics** — the structural types live in
//!    `pac_types::obs` ([`pac_types::RunnerStats`],
//!    [`pac_types::StallCycles`]) so the
//!    simulation crates can accumulate them without depending on this
//!    crate; this crate gives them a wire format and an aggregator.
//! 2. **Live progress stream** — [`ProgressSink`] emits a versioned
//!    JSONL event stream (`--progress <path|->` on every harness
//!    binary): cell lifecycle, exact histogram snapshots, worker
//!    utilization, checkpoint/resume markers, ETA.
//!    The sink mirrors the `TraceHandle` idiom: a disabled sink is an
//!    `Option::None` behind one predictable branch, and event payloads
//!    are never formatted on the disabled path.
//! 3. **Aggregation** — [`CampaignReport`] ingests any number of
//!    progress streams and emits per-(bench × coalescer × backend ×
//!    config) p50/p95/p99/max SLO tables as JSON, markdown, and a
//!    Prometheus text-exposition snapshot. Histograms travel as exact
//!    parts ([`pac_trace::LatencyHistogram::nonzero_buckets`] plus
//!    sum/count/max), so the aggregator reproduces in-run percentiles
//!    bit-identically — there is no re-quantization step.
//!
//! The stream format is the substrate for the future `pac-serve` job
//! server: every event is one self-describing JSON object per line,
//! tagged `"v":1`, and unknown event kinds must be skipped by readers.

#![deny(missing_docs)]

pub mod json;
pub mod progress;
pub mod report;

pub use json::Json;
pub use progress::{CellId, PhaseTimer, ProgressSink, SharedBuf, PROGRESS_STREAM_VERSION};
pub use report::CampaignReport;
