//! The NP's two books agree: for hardware-monitored traffic through every
//! data-plane entry point plus an operator reset, the process-wide `np_*`
//! metrics equal the [`NpStats`] counters they shadow. The stream pass
//! runs on a traced bus, and the `trace_*` metrics equal the span events
//! it recorded.
//!
//! The metrics registry is process-wide and this file is its own test
//! binary with a single test, so nothing else adds to the counters and the
//! comparison can be exact rather than a delta.
//!
//! [`NpStats`]: sdmmon_npu::np::NpStats

use sdmmon_monitor::graph::MonitoringGraph;
use sdmmon_monitor::hash::MerkleTreeHash;
use sdmmon_monitor::monitor::HardwareMonitor;
use sdmmon_npu::np::{NetworkProcessor, StreamConfig};
use sdmmon_npu::programs::{self, testing};
use sdmmon_obs::{metrics, Counter, EventBus, Span, TraceContext};
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn np_metrics_equal_np_stats_across_entry_points() {
    let program = programs::vulnerable_forward().unwrap();
    let mut np = NetworkProcessor::new(4);
    np.set_shards(2);
    np.install_all(&program.to_bytes(), program.base, |core| {
        let hash = MerkleTreeHash::new(0x5EED_0000 + core as u32);
        let graph = MonitoringGraph::extract(&program, &hash).unwrap();
        Box::new(HardwareMonitor::new(graph, hash))
    });
    // Injected code the monitor flags, and injected code that traps on its
    // first fetch before the monitor sees an instruction.
    let flagged = testing::hijack_packet(
        "li $t4, 1\nli $t5, 2\naddu $t6, $t4, $t5\nxor $t7, $t6, $t5\nbreak 0",
    )
    .unwrap();
    let trapping = testing::hijack_packet("break 1").unwrap();
    let traffic: Vec<Vec<u8>> = (0..64u8)
        .map(|i| match i % 8 {
            3 => flagged.clone(),
            6 => trapping.clone(),
            _ => testing::ipv4_packet([10, 1, i, 1], [10, 0, 0, 1 + i % 15], 64, b"pay"),
        })
        .collect();

    np.process_batch(&traffic);
    let bus = Arc::new(EventBus::traced(TraceContext::new(0x5EED, 200)));
    np.set_event_bus(Some(bus.clone()));
    let rounds = [traffic.clone(), traffic.clone()];
    np.process_stream(&rounds, &StreamConfig { shard_capacity: 24 });
    np.set_event_bus(None);
    for packet in &traffic[..8] {
        np.process_on(1, packet);
    }
    np.reset_core(0);
    np.reset_core(3);

    let stats = np.stats();
    assert!(
        stats.violations > 0 && stats.faults > 0,
        "the traffic must exercise both kinds of unclean halt: {stats}"
    );
    let m = metrics();
    assert_eq!(m.counter(Counter::NpPackets), stats.processed, "np_packets");
    assert_eq!(
        m.counter(Counter::NpViolations),
        stats.violations,
        "np_violations"
    );
    assert_eq!(m.counter(Counter::NpFaults), stats.faults, "np_faults");
    assert_eq!(
        m.counter(Counter::NpRecoveries),
        stats.recoveries,
        "np_recoveries"
    );

    // Span books: every `span.*` event is one `trace_spans` count, and
    // each promotion flushes its flight events at one (clock, core).
    let mut spans = 0u64;
    let mut promotions = BTreeSet::new();
    for event in bus.take() {
        match event.span {
            Some(Span::Flight { core, .. }) => {
                promotions.insert((event.clock, core));
            }
            Some(_) => spans += 1,
            None => {}
        }
    }
    assert!(
        spans > 0 && !promotions.is_empty(),
        "the stream traced nothing"
    );
    assert_eq!(m.counter(Counter::TraceSpans), spans, "trace_spans");
    assert_eq!(
        m.counter(Counter::TraceFlightPromotions),
        promotions.len() as u64,
        "trace_flight_promotions"
    );
}
