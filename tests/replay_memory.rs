//! Replay's memory bound: `ReplayStreams::from_events` holds its input
//! once plus one chunk, not twice.
//!
//! This is its own test binary, so no other test allocates in the process
//! while the peak is read. The input is 64 MiB, above glibc's 32 MiB
//! mmap-threshold ceiling, so it is mapped on its own and the tail the
//! partition releases leaves the process. The peak (`VmHWM`) is read from
//! `/proc/self/status`; the test is skipped where that file is absent.

use cdn_core::workload::{pack_key, TraceEvent};
use cdn_core::ReplayStreams;

/// The process's peak resident set in kB, where the kernel reports it.
fn peak_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

#[test]
fn partition_raises_the_peak_by_less_than_half_its_input() {
    if peak_kb().is_none() {
        eprintln!("skipped: no VmHWM in /proc/self/status");
        return;
    }
    const EVENTS: u64 = 4 << 20;
    let events: Vec<TraceEvent> = (0..EVENTS)
        .map(|i| TraceEvent {
            key: pack_key(
                (i % 97) as u32,
                (i.wrapping_mul(0x9E37_79B9) % 5_000) as u32,
            ),
            timestamp_us: EVENTS - i,
        })
        .collect();
    let input_kb = (events.len() * std::mem::size_of::<TraceEvent>()) as u64 / 1024;
    assert!(input_kb >= 64 << 10, "the input must be at least 64 MiB");
    let before = peak_kb().unwrap();
    let streams = ReplayStreams::from_events(events, 64, 97, 5_000);
    let rise = peak_kb().unwrap().saturating_sub(before);
    assert_eq!(streams.total_events(), EVENTS);
    assert!(
        rise < input_kb / 2,
        "the partition raised the peak by {rise} kB for a {input_kb} kB input"
    );
}
