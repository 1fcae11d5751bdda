//! Trace ingestion + delayed-hit benchmark: `BENCH_trace.json`.
//!
//! Exercises the real-trace pipeline end to end: obtain a `.events` trace
//! (replay the file given with `--trace-in`, or export the scenario's own
//! synthetic workload through the binary format — an ingest round-trip),
//! then replay it through the hybrid plan at a sweep of remote-fetch
//! latencies. Asserts two invariants in-process:
//!
//! * **Off-switch identity** — fetch latency 0 is bit-identical to the
//!   instant-fetch path (`fetch_latency: None`).
//! * **Coalescing accounting** — at positive latency, delayed hits appear
//!   and every cause bucket still sums to the measured request count.
//!
//! Emits `BENCH_trace.json` (scale, event count, the two invariants and
//! wall-clock) and `bench_trace.csv` (one row per fetch latency: delayed
//! hits, origin, peer and cache fetches, mean latency) under the results
//! directory.
//!
//! `bench_trace --help` lists the flags it accepts.

use cdn_bench::harness::{
    banner, flush, progress, record, write_json, BenchArgs, PhaseTimings, Table, REPLAYING,
};
use cdn_core::{export_events, replay_events, Scenario, Strategy};
use cdn_sim::SimReport;
use cdn_workload::TraceEvent;
use std::fmt::Write as _;

/// The remote-fetch latencies (in ticks) the sweep replays at. 0 is the
/// off switch (asserted bit-identical to `None`); the rest show coalescing
/// rising with the in-flight window.
const FETCH_LATENCIES: [u64; 4] = [0, 16, 64, 256];

fn replay_at(
    scenario: &mut Scenario,
    plan: &cdn_core::PlanResult,
    events: &[TraceEvent],
    fetch_latency: Option<u64>,
) -> SimReport {
    scenario.config.sim.fetch_latency = fetch_latency;
    replay_events(scenario, plan, events.to_vec())
}

fn main() {
    let args = BenchArgs::parse("bench_trace", REPLAYING);
    let scale = args.scale;
    banner("bench_trace: .events replay + delayed-hit sweep", scale);

    let config = args.config(0.05, 0.0, cdn_workload::LambdaMode::Uncacheable);
    let mut timings = PhaseTimings::new(args.threads);
    let mut scenario = timings.time("scenario", || Scenario::generate(&config));

    let (events, source) = timings.time("ingest", || match &args.trace_in {
        Some(path) => {
            progress(&format!("reading trace {}", path.display()));
            let events = cdn_workload::read_events_file(path).unwrap_or_else(|e| {
                eprintln!("error: reading {}: {e}", path.display());
                std::process::exit(1);
            });
            (events, path.display().to_string())
        }
        None => {
            // Ingest round-trip on the synthetic workload: export through
            // the binary codec and decode back, so the format sits on the
            // replay path even without an external trace.
            progress("exporting synthetic workload to .events");
            let encoded = cdn_workload::encode_events(&export_events(&scenario));
            let events = cdn_workload::decode_events(&encoded).expect("round-trip decode");
            (events, "synthetic (ingest round-trip)".to_string())
        }
    });
    println!("  trace: {} events from {source}", events.len());
    assert!(!events.is_empty(), "empty trace");

    let plan = timings.time("placement", || scenario.plan(Strategy::Hybrid));

    progress("replay: instant-fetch baseline");
    let instant = timings.time("replay_instant", || {
        replay_at(&mut scenario, &plan, &events, None)
    });
    record("replay_instant", &instant);
    let mut table = Table::new(
        "bench_trace.csv",
        "fetch_latency,delayed_hits,origin_fetches,peer_fetches,cache_hits,mean_latency_ms",
    );
    // Latency 0 is the off switch, bit-identical to instant fetch; a
    // positive latency produces delayed hits; and at every latency the
    // cause buckets still account for every measured request.
    let (mut off_identical, mut coalesced) = (false, false);
    for latency in FETCH_LATENCIES {
        progress(&format!("replay: fetch latency {latency}"));
        let report = timings.time(&format!("replay_l{latency}"), || {
            replay_at(&mut scenario, &plan, &events, Some(latency))
        });
        record(&format!("replay_l{latency}"), &report);
        table.row(format!(
            "{latency},{},{},{},{},{:.3}",
            report.delayed_hits,
            report.origin_fetches,
            report.peer_fetches,
            report.cache_hits,
            report.mean_latency_ms
        ));
        let bucket_sum = report.cache_hits
            + report.replica_hits
            + report.delayed_hits
            + report.origin_fetches
            + report.peer_fetches
            + report.failover_fetches
            + report.failed_requests;
        assert_eq!(
            bucket_sum, report.measured_requests,
            "cause buckets must sum to measured requests at latency {latency}"
        );
        assert_eq!(report.cause.total_requests(), report.measured_requests);
        if latency == 0 {
            off_identical = report == instant;
        }
        coalesced |= latency > 0 && report.delayed_hits > 0;
    }
    table.finish();
    println!("  fetch latency 0 bit-identical to instant fetch: {off_identical}");
    println!("  positive latencies produced delayed hits: {coalesced}");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.label());
    let _ = writeln!(json, "  \"events\": {},", events.len());
    let _ = writeln!(json, "  \"off_switch_identical\": {off_identical},");
    let _ = writeln!(json, "  \"coalesced\": {coalesced},");
    let _ = writeln!(json, "  \"wall_clock\": {}", timings.to_json());
    json.push_str("}\n");
    write_json("BENCH_trace.json", &json);
    flush();

    assert!(off_identical, "fetch latency 0 diverged from instant fetch");
    assert!(coalesced, "no delayed hits at any positive fetch latency");
}
