//! Corruption fuzzing for the two durable on-disk formats, and for the
//! workspace's one JSON reader.
//!
//! The repo persists exactly two things a later process must trust:
//! PACSNAP1 checkpoint images (`SimSystem::save_state` /
//! `SimSystem::restore`) and pac-serve's write-ahead journal
//! (`Journal::push` / `Journal::replay`). Both survive `kill -9`, disk
//! bit-rot, and partial writes only if the *parsers* treat every input
//! byte as hostile. These properties drive random single-bit flips and
//! random truncations through both parsers and assert the contract:
//!
//! * **refusal or quarantine, never a panic** — a corrupt snapshot is
//!   an `Err`, a corrupt journal line is either a hard error (interior)
//!   or a quarantined torn tail (final line);
//! * **never a forged result** — no corruption can mint a `done` cell
//!   that the clean history does not contain, or double-count one.
//!
//! The same flips and cuts reach the JSON reader's other two callers, a
//! captured trace file (`trace_json::from_json`) and a progress stream
//! (`CampaignReport::ingest_str`): each reads to `Ok` or a located
//! `Err`, never a panic. A last property checks that the reader
//! inverts `escape` on arbitrary strings.
//!
//! Failing seeds persist to `proptest-regressions/<property>.txt` and
//! replay on every future run (see the shim in `crates/proptest`).

use pac_obs::{CampaignReport, CellId, ProgressSink};
use pac_repro::sim::{run_bench, trace_json, ExperimentConfig};
use pac_repro::sim::{CoalescerKind, RunProgress, SimSystem, Stepping};
use pac_repro::types::json::{escape, Json};
use pac_repro::types::{RasClass, RasPlan, RunnerStats, SimConfig, SupervisorStats, WorkerStats};
use pac_repro::workloads::multiproc::{single_process, CoreSpec};
use pac_repro::workloads::Bench;
use pac_serve::journal::{CellFingerprint, Journal, Record};
use pac_trace::{LatencyHistogram, MetricsRegistry};
use proptest::{prop_assert, prop_assert_eq, proptest};
use std::sync::OnceLock;

const ACCESSES: u64 = 800;
const SEED: u64 = 0xF0_22;

fn specs(cfg: &SimConfig) -> Vec<CoreSpec> {
    single_process(Bench::Stream, cfg.cores, SEED)
}

/// One checkpoint image, paused mid-run with the RAS layer armed (the
/// richest snapshot we can produce: device queues, coalescer state,
/// link-retry buffers, and the RAS plan's RNG all live). Built once and
/// shared across every fuzz case.
fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let cfg = SimConfig::default();
        let mut sys = SimSystem::with_options(
            cfg,
            specs(&cfg),
            CoalescerKind::Pac,
            false,
            false,
            Stepping::SkipAhead,
        );
        sys.set_ras_plan(RasPlan::new(RasClass::LinkBitError, 0xB17_F11))
            .expect("link faults are native to the hmc backend");
        sys.begin_run(ACCESSES);
        let paused = sys.advance(sys.run_limit(), 2_000);
        assert_eq!(paused, RunProgress::Paused, "run drained before the checkpoint");
        sys.save_state("fuzz/pac").expect("checkpoint serializes")
    })
}

/// A canonical journal: header, leases, checkpoints, a done with a full
/// fingerprint, a failure, a quarantine, a resume segment, and a drain
/// marker — every record kind the wire format defines.
fn journal_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let fp = |n: u64| CellFingerprint {
            cycles: 40_000 + n,
            raw_requests: 12_800,
            dispatched: 3_200,
            comparisons: 9_000 + n,
            transaction_bytes: 204_800 + 64 * n,
            latency_bits: (93.25f64 + n as f64).to_bits(),
            faults_injected: n % 2,
            retries_issued: n % 2,
            oracle_accepted: 12_800,
            oracle_served: 12_800,
            oracle_dispatches: 3_200,
            oracle_responses: 3_200,
        };
        let records = vec![
            Record::Campaign {
                spec: "pac-serve-spec v1 name=fuzz backends=hmc benches=STREAM".to_string(),
                spec_hash: 0x51EC_4A54,
                cells: 4,
                seed: 7,
            },
            Record::Lease { cell: 0, attempt: 1, worker: 0, lease: 1 },
            Record::Ckpt { cell: 0, attempt: 1, cycle: 8_000, path: "c0.pacsnap".into() },
            Record::Lease { cell: 0, attempt: 1, worker: 1, lease: 2 },
            Record::Done { cell: 0, attempt: 1, wall_ms: 104, fp: fp(0) },
            Record::Lease { cell: 1, attempt: 1, worker: 0, lease: 3 },
            Record::Fail { cell: 1, attempt: 1, reason: "oracle: 2 violation(s)".into() },
            Record::Lease { cell: 1, attempt: 2, worker: 0, lease: 4 },
            Record::Quarantine { cell: 1, attempts: 2, reason: "wedged \"hard\"".into() },
            Record::Resume { spec_hash: 0x51EC_4A54, pending: 2, done: 1 },
            Record::Lease { cell: 2, attempt: 1, worker: 0, lease: 5 },
            Record::Done { cell: 2, attempt: 1, wall_ms: 99, fp: fp(2) },
            Record::Drain { reason: "signal".into(), done: 2 },
        ];
        let mut text = String::new();
        for r in &records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        text
    })
}

/// A captured trace file, as `trace_tool capture` writes it: the first
/// 32 entries of a short GS run.
fn trace_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let cfg =
            ExperimentConfig { accesses_per_core: 100, capture_trace: true, ..Default::default() };
        let (_, trace) = run_bench(Bench::Gs, CoalescerKind::Raw, &cfg);
        trace_json::to_json(&trace[..32])
    })
}

/// A progress stream carrying every event kind, a `metrics` event's
/// nested histogram parts and escaped, non-ASCII strings included.
fn progress_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let (sink, buf) = ProgressSink::to_buffer();
        let id = CellId { bench: "GS", kind: "pac", backend: "hmc", config: "q=\"µ\"" };
        let mut hist = LatencyHistogram::new();
        for v in [3, 9, 250, 40_000] {
            hist.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.insert("stage2_decoder", hist);
        let worker = WorkerStats { cells_claimed: 2, busy_seconds: 1.0, idle_seconds: 0.5 };
        sink.campaign_start("fuzz", "hmc", 2, 2);
        sink.cell_start(0, &id);
        sink.metrics(0, &id, &reg);
        sink.cell_finish(0, &id, "pass", 0.25, 123_456);
        sink.cell_retry(1, 1, 250, "oracle: 2 violation(s)");
        sink.cell_quarantined(1, 2, "wedged\n\"hard\"");
        sink.worker_util(&RunnerStats { wall_seconds: 1.5, workers: vec![worker] });
        sink.phase("clean_matrix", 1.5);
        sink.checkpoint(8_000, "c0.pacsnap");
        sink.resumed(8_000, "c0.pacsnap");
        sink.supervisor(&SupervisorStats::default());
        sink.campaign_end();
        buf.contents()
    })
}

/// `bytes` with bit `bit` of byte `at` (taken modulo the length)
/// flipped, lossy-decoded as a reader would see it.
fn flip(bytes: &[u8], at: u64, bit: u32) -> String {
    let mut bytes = bytes.to_vec();
    let at = (at % bytes.len() as u64) as usize;
    bytes[at] ^= 1u8 << bit;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The first `cut` (modulo the length plus one) bytes of `text`.
fn cut_to(text: &str, cut: u64) -> String {
    let cut = (cut % (text.len() as u64 + 1)) as usize;
    String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned()
}

/// Write `text` to a fresh temp file and replay it.
fn replay_text(tag: &str, text: &str) -> Result<pac_serve::journal::Replay, String> {
    let dir = std::env::temp_dir().join(format!("pac_fuzz_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, text).expect("write journal");
    let out = Journal::replay(&path);
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Byte offset where the final journal line starts.
fn last_line_start(text: &str) -> usize {
    text[..text.len() - 1].rfind('\n').map_or(0, |p| p + 1)
}

proptest! {
    /// Any single-bit flip anywhere in a PACSNAP1 image is refused by
    /// `restore`: the format checksums its whole payload, and the
    /// header fields (magic, version, lengths) are validated before any
    /// state is rebuilt. No flip may panic, and none may restore.
    #[test]
    fn snapshot_bit_flips_are_refused(at in proptest::any::<u64>(), bit in 0u32..8) {
        let clean = snapshot_bytes();
        let mut bytes = clean.to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1u8 << bit;
        let cfg = SimConfig::default();
        let out = SimSystem::restore(specs(&cfg), &bytes, "fuzz/pac");
        prop_assert!(
            out.is_err(),
            "flipped bit {bit} of byte {at}/{} yet restore succeeded",
            bytes.len()
        );
    }

    /// Any truncation of a PACSNAP1 image — from an empty file to one
    /// byte short — is refused: a partial write after `kill -9` can
    /// never half-restore.
    #[test]
    fn snapshot_truncations_are_refused(cut in proptest::any::<u64>()) {
        let clean = snapshot_bytes();
        let cut = (cut % clean.len() as u64) as usize;
        let cfg = SimConfig::default();
        let out = SimSystem::restore(specs(&cfg), &clean[..cut], "fuzz/pac");
        prop_assert!(out.is_err(), "truncation to {cut}/{} bytes restored", clean.len());
    }

    /// Any single-bit flip in the journal is detected: an interior hit
    /// is a hard replay error (history after it is untrustworthy), a
    /// final-line hit is quarantined as a torn tail. Either way the
    /// replay never panics, never forges a `done` the clean history
    /// lacks, and never double-counts a cell.
    #[test]
    fn journal_bit_flips_are_refused_or_quarantined(at in proptest::any::<u64>(), bit in 0u32..8) {
        let clean = journal_text();
        let base = replay_text("base", clean).expect("clean journal replays");
        let mut bytes = clean.as_bytes().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= 1u8 << bit;
        // The flip may produce invalid UTF-8; the parser works on &str,
        // so lossy-decode exactly as a reader would refuse it anyway.
        let text = String::from_utf8_lossy(&bytes).into_owned();
        match replay_text("flip", &text) {
            Err(_) => {} // refusal: the corrupt line was interior
            Ok(replayed) => {
                prop_assert!(
                    replayed.torn.is_some(),
                    "flip of bit {bit} at byte {at} replayed clean"
                );
                prop_assert!(
                    at >= last_line_start(clean),
                    "interior flip (byte {at}) was quarantined instead of refused"
                );
                prop_assert!(replayed.done() <= base.done(), "corruption forged a done cell");
                prop_assert_eq!(replayed.double_done.len(), 0);
            }
        }
    }

    /// Truncating the journal at any byte recovers exactly the complete
    /// good lines before the cut: a partial trailing fragment is
    /// quarantined as torn, a cut inside the campaign header is a hard
    /// error, and the recovered prefix never contains more work than
    /// the clean history.
    #[test]
    fn journal_truncations_recover_the_good_prefix(cut in proptest::any::<u64>()) {
        let clean = journal_text();
        let base = replay_text("base2", clean).expect("clean journal replays");
        let cut = (cut % (clean.len() as u64 + 1)) as usize;
        let text = &clean[..cut];
        let complete_lines = text.matches('\n').count() as u64;
        let fragment = !text.is_empty() && !text.ends_with('\n');
        match replay_text("cut", text) {
            Err(_) => {
                // Only an unreadable campaign header (or an empty file)
                // justifies refusing the whole journal.
                prop_assert!(
                    complete_lines == 0,
                    "cut at {cut} refused a journal with {complete_lines} good line(s)"
                );
            }
            Ok(replayed) => {
                prop_assert_eq!(
                    replayed.records,
                    complete_lines,
                    "cut at {cut}: replay count != complete good lines"
                );
                prop_assert_eq!(
                    replayed.torn.is_some(),
                    fragment,
                    "cut at {cut}: torn-tail report disagrees with the fragment"
                );
                prop_assert!(replayed.done() <= base.done());
                prop_assert_eq!(replayed.double_done.len(), 0);
            }
        }
    }

    /// A flipped bit anywhere in a captured trace file reads to `Ok` or
    /// an error located inside the text, and every truncation short of
    /// the whole file is refused: the array is never closed.
    #[test]
    fn trace_file_flips_and_cuts_never_panic(
        at in proptest::any::<u64>(),
        bit in 0u32..8,
        cut in proptest::any::<u64>()
    ) {
        let clean = trace_text();
        let text = flip(clean.as_bytes(), at, bit);
        if let Err(e) = trace_json::from_json(&text) {
            prop_assert!(e.byte <= text.len(), "{e}");
        }
        let text = cut_to(clean, cut);
        prop_assert!(
            text.len() == clean.len() || trace_json::from_json(&text).is_err(),
            "a cut to {} of {} bytes read as a whole trace",
            text.len(),
            clean.len()
        );
    }

    /// A flipped bit or a truncation of a progress stream costs at most
    /// the lines it touches: a flip damages one line (two, if it makes a
    /// newline), a cut only the torn last one, and nothing panics.
    #[test]
    fn progress_stream_flips_and_cuts_never_panic(
        at in proptest::any::<u64>(),
        bit in 0u32..8,
        cut in proptest::any::<u64>()
    ) {
        let clean = progress_text();
        let mut report = CampaignReport::new();
        report.ingest_str(&flip(clean.as_bytes(), at, bit), "flip.jsonl");
        prop_assert!(report.errors().len() <= 2, "{:?}", report.errors());
        let mut report = CampaignReport::new();
        report.ingest_str(&cut_to(clean, cut), "cut.jsonl");
        prop_assert!(report.errors().len() <= 1, "{:?}", report.errors());
    }

    /// The reader inverts `escape` on arbitrary strings: quotes,
    /// backslashes, control characters, ASCII and every other scalar
    /// value (each class of `units` picks from one of those).
    #[test]
    fn escaped_strings_read_back_exactly(
        units in proptest::collection::vec((0u32..4, 0u32..0x11_0000), 0..48)
    ) {
        let s: String = units
            .iter()
            .map(|&(class, v)| match class {
                0 => ['"', '\\', '/', '\u{7f}'][v as usize % 4],
                1 => char::from_u32(v % 0x20).expect("a control character"),
                2 => char::from_u32(0x20 + v % 0x5f).expect("printable ASCII"),
                _ => char::from_u32(v).unwrap_or('\u{fffd}'),
            })
            .collect();
        let doc = format!("\"{}\"", escape(&s));
        prop_assert_eq!(Json::parse(&doc), Ok(Json::Str(s)), "{doc:?}");
    }
}

/// The other side of the fuzz coin: the clean artifacts actually work.
/// A fuzz suite whose baseline never parses proves nothing.
#[test]
fn clean_snapshot_and_journal_still_parse() {
    let cfg = SimConfig::default();
    let mut sys = SimSystem::restore(specs(&cfg), snapshot_bytes(), "fuzz/pac")
        .expect("untampered snapshot restores");
    assert_eq!(sys.advance(sys.run_limit(), u64::MAX), RunProgress::Done);

    let replay = replay_text("clean", journal_text()).expect("untampered journal replays");
    assert_eq!(replay.records, 13);
    assert_eq!(replay.done(), 2);
    assert_eq!(replay.quarantined(), 1);
    assert_eq!(replay.segments, 2);
    assert!(replay.drained);
    assert!(replay.torn.is_none());
    assert!(replay.double_done.is_empty());

    assert_eq!(trace_json::from_json(trace_text()).expect("untampered trace reads").len(), 32);
    let mut report = CampaignReport::new();
    report.ingest_str(progress_text(), "clean.jsonl");
    assert!(report.errors().is_empty(), "{:?}", report.errors());
    assert_eq!((report.total_cells(), report.worker().map(|w| w.cells())), (1, Some(2)));
}
