//! The metrics registry: fixed-identity counters, gauges, and
//! power-of-two-bucket histograms over relaxed atomics.
//!
//! Metric identities are enums, not string keys: recording indexes a fixed
//! atomic array (no hashing, no allocation, no lock), and snapshots walk
//! the enums in declaration order, so the rendered JSON key order is a
//! compile-time constant. All operations are commutative adds/stores, so a
//! snapshot taken after a deterministic workload is deterministic even
//! though the recording interleaving across shard workers is not.
//!
//! The process-wide registry ([`metrics`]) is what the instrumented crates
//! record into; tests that need isolation construct their own
//! [`MetricsRegistry`].

use crate::json::write_json_string;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema identifier stamped on every metrics snapshot.
pub const METRICS_SCHEMA: &str = "sdmmon-metrics-v1";

/// Histogram bucket count: bucket `i` holds values `v` with
/// `bit_width(v) == i` (bucket 0 is exactly zero, bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i)`), and the last bucket absorbs everything wider.
pub const HIST_BUCKETS: usize = 22;

/// Per-shard gauge slots tracked by the registry (shards beyond this are
/// still processed, just not individually gauged).
pub const MAX_SHARD_SLOTS: usize = 16;

/// The histogram bucket a value lands in: `bit_width(value)` clamped to
/// the last bucket (see [`HIST_BUCKETS`]). Public so consumers computing
/// percentiles from their own bucket arrays (the frontier harness) use
/// exactly the registry's layout.
pub const fn bucket_index(value: u64) -> usize {
    let index = (u64::BITS - value.leading_zeros()) as usize;
    if index < HIST_BUCKETS {
        index
    } else {
        HIST_BUCKETS - 1
    }
}

/// Inclusive `(lo, hi)` value range of histogram bucket `index`: bucket 0
/// is exactly `(0, 0)`, bucket `i ≥ 1` is `(2^(i-1), 2^i - 1)`, and the
/// last bucket runs to `u64::MAX`.
///
/// # Panics
///
/// Panics if `index >= HIST_BUCKETS`.
pub const fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < HIST_BUCKETS, "bucket index out of range");
    if index == 0 {
        (0, 0)
    } else if index == HIST_BUCKETS - 1 {
        (1 << (index - 1), u64::MAX)
    } else {
        (1 << (index - 1), (1 << index) - 1)
    }
}

macro_rules! metric_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)+
        }

        impl $name {
            /// Every variant, in snapshot order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $name::ALL.len();

            /// The stable snake_case snapshot key.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic counters. Per-packet costs are one or two relaxed adds;
    /// everything else fires on control-plane or failure paths.
    Counter {
        /// Packets settled by a network processor (all dispatch paths).
        NpPackets => "np_packets",
        /// Retired instructions summed per packet at settle (no
        /// per-instruction atomics).
        NpInstructionsRetired => "np_instructions_retired",
        /// Monitor-stopped runs (detections).
        NpViolations => "np_violations",
        /// Trap/step-limit-stopped runs.
        NpFaults => "np_faults",
        /// Recovery resets (every unclean halt).
        NpRecoveries => "np_recoveries",
        /// Supervisor redeploy escalations.
        NpRedeploys => "np_redeploys",
        /// Supervisor quarantine escalations.
        NpQuarantines => "np_quarantines",
        /// Batches dispatched through the sharded engine.
        NpBatches => "np_batches",
        /// Full 16-lane retirement blocks verified through the monitor's
        /// bit-sliced hash path (settled once per packet).
        MonitorBlocksVerified => "monitor_blocks_verified",
        /// Instructions verified by the block path's scalar tail — partial
        /// final blocks at trap/`break`/step-limit boundaries.
        MonitorScalarTailInstructions => "monitor_scalar_tail_instructions",
        /// RSA signatures produced.
        CryptoRsaSign => "crypto_rsa_sign",
        /// RSA signature verifications.
        CryptoRsaVerify => "crypto_rsa_verify",
        /// RSA private-key unwraps (package key decryption).
        CryptoRsaUnwrap => "crypto_rsa_unwrap",
        /// Transport attempts issued by the download client.
        NetDownloadAttempts => "net_download_attempts",
        /// Complete chunks delivered.
        NetDownloadChunks => "net_download_chunks",
        /// Failed transport attempts (short reads, stalls, refusals,
        /// integrity rejects) — the retry count.
        NetDownloadRetries => "net_download_retries",
        /// Whole-file restarts forced by the integrity re-check.
        NetIntegrityRestarts => "net_integrity_restarts",
        /// Bytes salvaged from short reads.
        NetResumedBytes => "net_resumed_bytes",
        /// Modelled backoff, in nanoseconds (deterministic — modelled time,
        /// not wall time).
        NetBackoffNanos => "net_backoff_nanos",
        /// Deploy cycles started by `Fleet::deploy_resilient` (download,
        /// verify, install) and by `distrib::deploy_fleet` (fetch,
        /// assemble, install).
        FleetDeployCycles => "fleet_deploy_cycles",
        /// Routers that reached `Installed`.
        FleetRoutersInstalled => "fleet_routers_installed",
        /// Routers that ended `Quarantined`.
        FleetRoutersQuarantined => "fleet_routers_quarantined",
        /// PKCS#1 type-2 key-wrap encryptions (public-key operations).
        CryptoRsaWrap => "crypto_rsa_wrap",
        /// Shared fleet updates prepared by the operator (one per push).
        FleetUpdatesPrepared => "fleet_updates_prepared",
        /// Per-router symmetric-key wraps performed for fleet updates.
        FleetKeyWraps => "fleet_key_wraps",
        /// Relay syncs of the shared ciphertext document from the origin.
        FleetRelaySyncs => "fleet_relay_syncs",
        /// Wire-format-v2 sections fetched over a link (cache misses).
        FleetSectionsFetched => "fleet_sections_fetched",
        /// Wire-format-v2 sections reused from a local cache (delta hits).
        FleetSectionsReused => "fleet_sections_reused",
        /// Payload bytes served by the operator's origin server.
        FleetOriginEgressBytes => "fleet_origin_egress_bytes",
        /// Payload bytes served to routers by regional relays.
        FleetRelayEgressBytes => "fleet_relay_egress_bytes",
        /// Graded-supervisor alerts (threat level reached Low).
        NpAlerts => "np_alerts",
        /// Graded-supervisor throttles (dispatch share halved).
        NpThrottles => "np_throttles",
        /// Graded-supervisor zeroize orders (wrapped key destruction).
        NpZeroizes => "np_zeroizes",
        /// NP lockdown latches (first zeroize order escalates fleet-wide).
        NpLockdowns => "np_lockdowns",
        /// Parole steps restoring throttled/quarantined cores.
        NpParoles => "np_paroles",
        /// Packets offered to the streaming ingest engine (pre-admission).
        StreamOffered => "stream_offered",
        /// Packets admitted past the bounded per-shard ingress queues.
        StreamAdmitted => "stream_admitted",
        /// Packets shed by ingress admission control (backpressure drops).
        StreamDropped => "stream_dropped",
        /// Whole core queues moved off their home shard by the streaming
        /// engine's deterministic work stealing.
        StreamSteals => "stream_steals",
        /// Span events emitted by the trace layer (head-sampled flows).
        TraceSpans => "trace_spans",
        /// Flight-recorder promotions: unsampled flows retroactively
        /// traced on a monitor flag or a graded escalation.
        TraceFlightPromotions => "trace_flight_promotions",
    }
}

metric_enum! {
    /// Last-write-wins gauges (scalar; per-shard queue depth has its own
    /// indexed slots).
    Gauge {
        /// Shard count of the most recent batch dispatch.
        BatchShards => "batch_shards",
        /// Packets in the most recent batch.
        BatchPackets => "batch_packets",
        /// Max−min per-shard queue load of the most recent batch — the
        /// imbalance the flow-affinity partition produced.
        ShardImbalance => "shard_imbalance",
    }
}

metric_enum! {
    /// Fixed-bucket histograms (see [`HIST_BUCKETS`] for the layout).
    Hist {
        /// Retired instructions until the monitor fired, per detection.
        DetectionLatencySteps => "detection_latency_steps",
        /// Transport attempts per completed download.
        DownloadAttempts => "download_attempts",
        /// Full bit-sliced blocks per packet on the monitor's block path —
        /// together with the block/tail counters this makes block-path
        /// coverage visible in `sdmmon stats`.
        MonitorBlocksPerPacket => "monitor_blocks_per_packet",
        /// Per-packet queueing delay at streaming admission: how many
        /// already-admitted packets sit ahead of it in its core's ingress
        /// queue. A logical-time latency — deterministic per seed and
        /// independent of the shard count.
        StreamQueueDelay => "stream_queue_delay",
    }
}

/// The value at percentile `per_mille`/1000 of a power-of-two histogram,
/// reported as the lower bound of the bucket the rank falls in (the same
/// convention the frontier latency table has always used: p50 of a
/// histogram whose median landed in `[64, 128)` reports 64).
///
/// The rank is `ceil(count * per_mille / 1000)`, clamped to at least 1, so
/// `percentile(h, 1000)` is the bucketed maximum and `percentile(h, 0)`
/// the bucketed minimum.
///
/// **Sentinel:** an *empty* histogram (every bucket zero — nothing was
/// ever observed) reports `0` at every percentile. A histogram whose
/// observations were all the value zero (all counts in bucket 0) also
/// reports `0` — as bucket 0's genuine lower bound, not as the sentinel.
/// The two are indistinguishable from the return value alone; callers
/// that need to tell "no data" from "all zeros" must check the bucket
/// sum first, which is what `sdmmon stats` does before printing tails.
///
/// # Panics
///
/// Panics if `per_mille > 1000`.
pub fn percentile(buckets: &[u64; HIST_BUCKETS], per_mille: u64) -> u64 {
    assert!(per_mille <= 1000, "percentile beyond the distribution");
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = (total * per_mille).div_ceil(1000).max(1);
    let mut seen = 0u64;
    for (index, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_bounds(index).0;
        }
    }
    bucket_bounds(HIST_BUCKETS - 1).0
}

/// One histogram's cells.
#[derive(Debug)]
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

impl HistCells {
    const fn new() -> HistCells {
        HistCells {
            buckets: [ZERO; HIST_BUCKETS],
            count: ZERO,
            sum: ZERO,
        }
    }
}

/// The registry: every metric the workspace records, as fixed atomic
/// slots. See the module docs for the determinism argument.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    shard_depth: [AtomicU64; MAX_SHARD_SLOTS],
    shard_slots_used: AtomicU64,
    hists: [HistCells; Hist::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub const fn new() -> MetricsRegistry {
        #[allow(clippy::declare_interior_mutable_const)]
        const HIST: HistCells = HistCells::new();
        MetricsRegistry {
            counters: [ZERO; Counter::COUNT],
            gauges: [ZERO; Gauge::COUNT],
            shard_depth: [ZERO; MAX_SHARD_SLOTS],
            shard_slots_used: ZERO,
            hists: [HIST; Hist::COUNT],
        }
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Adds `delta` to a counter (relaxed; counters are commutative).
    #[inline]
    pub fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Sets a scalar gauge (last write wins).
    #[inline]
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge as usize].store(value, Ordering::Relaxed);
    }

    /// Reads a scalar gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    /// Sets the queue-depth gauge of one shard. Shards at or beyond
    /// [`MAX_SHARD_SLOTS`] are ignored (the engine itself is not limited).
    pub fn set_shard_depth(&self, shard: usize, depth: u64) {
        if let Some(slot) = self.shard_depth.get(shard) {
            slot.store(depth, Ordering::Relaxed);
            self.shard_slots_used
                .fetch_max(shard as u64 + 1, Ordering::Relaxed);
        }
    }

    /// Records one histogram observation: one bucket add plus count/sum.
    #[inline]
    pub fn observe(&self, hist: Hist, value: u64) {
        let cells = &self.hists[hist as usize];
        let index = ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1);
        cells.buckets[index].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Reads a histogram's observation count.
    pub fn hist_count(&self, hist: Hist) -> u64 {
        self.hists[hist as usize].count.load(Ordering::Relaxed)
    }

    /// Reads a histogram's observation sum.
    pub fn hist_sum(&self, hist: Hist) -> u64 {
        self.hists[hist as usize].sum.load(Ordering::Relaxed)
    }

    /// Copies a histogram's bucket array out of the registry — the input
    /// [`percentile`] expects. Callers isolating one workload take the
    /// array before and after and subtract.
    pub fn hist_buckets(&self, hist: Hist) -> [u64; HIST_BUCKETS] {
        let cells = &self.hists[hist as usize];
        let mut out = [0u64; HIST_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&cells.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Zeroes every slot. The CLI calls this at command start so a
    /// `--metrics` snapshot covers exactly one run.
    pub fn reset(&self) {
        for slot in self
            .counters
            .iter()
            .chain(&self.gauges)
            .chain(&self.shard_depth)
            .chain([&self.shard_slots_used])
        {
            slot.store(0, Ordering::Relaxed);
        }
        for hist in &self.hists {
            for bucket in &hist.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            hist.count.store(0, Ordering::Relaxed);
            hist.sum.store(0, Ordering::Relaxed);
        }
    }

    /// Renders the deterministic snapshot: `sdmmon-metrics-v1`, two-space
    /// pretty JSON, keys in enum declaration order. Shard-depth slots are
    /// emitted up to the highest shard ever gauged.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema\": ");
        write_json_string(&mut out, METRICS_SCHEMA);
        out.push_str(",\n  \"counters\": {");
        for (i, &counter) in Counter::ALL.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_json_string(&mut out, counter.name());
            out.push_str(&format!(": {}", self.counter(counter)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, &gauge) in Gauge::ALL.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_json_string(&mut out, gauge.name());
            out.push_str(&format!(": {}", self.gauge(gauge)));
        }
        let used = (self.shard_slots_used.load(Ordering::Relaxed) as usize).min(MAX_SHARD_SLOTS);
        out.push_str(",\n    \"shard_queue_depth\": [");
        for slot in 0..used {
            if slot > 0 {
                out.push_str(", ");
            }
            out.push_str(&self.shard_depth[slot].load(Ordering::Relaxed).to_string());
        }
        out.push_str("]\n  },\n  \"histograms\": {");
        for (i, &hist) in Hist::ALL.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_json_string(&mut out, hist.name());
            let cells = &self.hists[hist as usize];
            out.push_str(&format!(
                ": {{ \"count\": {}, \"sum\": {}, \"buckets\": [",
                cells.count.load(Ordering::Relaxed),
                cells.sum.load(Ordering::Relaxed)
            ));
            for (b, bucket) in cells.buckets.iter().enumerate() {
                if b > 0 {
                    out.push_str(", ");
                }
                out.push_str(&bucket.load(Ordering::Relaxed).to_string());
            }
            out.push_str("] }");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// The process-wide registry every instrumented crate records into.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: MetricsRegistry = MetricsRegistry::new();
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = MetricsRegistry::new();
        m.inc(Counter::NpPackets);
        m.add(Counter::NpPackets, 4);
        m.add(Counter::NetBackoffNanos, 1_000);
        assert_eq!(m.counter(Counter::NpPackets), 5);
        assert_eq!(m.counter(Counter::NetBackoffNanos), 1_000);
        m.reset();
        assert_eq!(m.counter(Counter::NpPackets), 0);
        assert_eq!(m.counter(Counter::NetBackoffNanos), 0);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let m = MetricsRegistry::new();
        let h = Hist::DetectionLatencySteps;
        m.observe(h, 0); // bucket 0
        m.observe(h, 1); // bucket 1
        m.observe(h, 2); // bucket 2
        m.observe(h, 3); // bucket 2
        m.observe(h, 1024); // bucket 11
        m.observe(h, u64::MAX); // clamped to the last bucket
        assert_eq!(m.hist_count(h), 6);
        // fetch_add wraps, so the sum is modular.
        assert_eq!(m.hist_sum(h), 1030u64.wrapping_add(u64::MAX));
        let json = m.snapshot_json();
        let line = json
            .lines()
            .find(|l| l.contains("detection_latency_steps"))
            .unwrap();
        assert!(
            line.contains("\"buckets\": [1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1,"),
            "unexpected bucket layout: {line}"
        );
        assert!(line.contains("0, 1] }"), "overflow bucket: {line}");
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let m = MetricsRegistry::new();
        m.inc(Counter::CryptoRsaSign);
        m.set_gauge(Gauge::BatchShards, 4);
        m.set_shard_depth(0, 7);
        m.set_shard_depth(3, 2);
        let a = m.snapshot_json();
        let b = m.snapshot_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"sdmmon-metrics-v1\""));
        // Slots up to the highest gauged shard are emitted, zeros included.
        assert!(a.contains("\"shard_queue_depth\": [7, 0, 0, 2]"), "{a}");
        // Enum order is snapshot order.
        let np = a.find("\"np_packets\"").unwrap();
        let sign = a.find("\"crypto_rsa_sign\"").unwrap();
        let fleet = a.find("\"fleet_deploy_cycles\"").unwrap();
        assert!(np < sign && sign < fleet);
    }

    #[test]
    fn out_of_range_shard_slots_are_ignored() {
        let m = MetricsRegistry::new();
        m.set_shard_depth(MAX_SHARD_SLOTS + 5, 9);
        assert!(m.snapshot_json().contains("\"shard_queue_depth\": []"));
    }

    #[test]
    fn bucket_boundaries_land_exact_powers_of_two_where_documented() {
        // Bucket 0 is exactly zero.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_bounds(0), (0, 0));
        // Every exact power of two 2^k opens bucket k+1 (it is that
        // bucket's inclusive lower bound), and 2^k - 1 closes bucket k.
        for k in 0..(HIST_BUCKETS - 2) as u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k}");
            assert_eq!(bucket_bounds(k as usize + 1).0, v, "2^{k} lower bound");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "2^{k} - 1");
                assert_eq!(bucket_bounds(k as usize).1, v - 1, "2^{k} - 1 upper");
            }
        }
        // The last bucket absorbs everything wider, up to u64::MAX.
        assert_eq!(bucket_index(1 << (HIST_BUCKETS - 1)), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bounds(HIST_BUCKETS - 1).1, u64::MAX);
        // Contiguity: every bucket's hi + 1 is the next bucket's lo.
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_bounds(i).1 + 1, bucket_bounds(i + 1).0, "bucket {i}");
        }
    }

    #[test]
    fn bucket_index_matches_the_registry_observe_path() {
        let m = MetricsRegistry::new();
        for value in [0u64, 1, 2, 3, 4, 1023, 1024, 1 << 40, u64::MAX] {
            m.observe(Hist::DownloadAttempts, value);
        }
        // Reconstruct the expected bucket array through the public helper.
        // (The snapshot's rendering of the buckets is pinned separately,
        // by `histogram_buckets_by_bit_width`.)
        let mut expected = [0u64; HIST_BUCKETS];
        for value in [0u64, 1, 2, 3, 4, 1023, 1024, 1 << 40, u64::MAX] {
            expected[bucket_index(value)] += 1;
        }
        assert_eq!(
            m.hist_buckets(Hist::DownloadAttempts),
            expected,
            "observe() disagrees with bucket_index()"
        );
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        // The documented sentinel: no observations at all -> 0 at every
        // percentile, including the extremes.
        let buckets = [0u64; HIST_BUCKETS];
        for per_mille in [0, 1, 500, 999, 1000] {
            assert_eq!(percentile(&buckets, per_mille), 0);
        }
    }

    #[test]
    fn percentile_of_all_zero_observations_is_zero_but_not_the_sentinel() {
        // Every observation was the value 0: all mass sits in bucket 0,
        // whose lower bound is 0 — numerically identical to the empty
        // sentinel, but here it is a genuine percentile. The bucket sum
        // is how callers tell the two apart, so pin both halves.
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[bucket_index(0)] = 1234;
        for per_mille in [0, 500, 1000] {
            assert_eq!(percentile(&buckets, per_mille), 0);
        }
        assert!(
            buckets.iter().sum::<u64>() > 0,
            "non-empty histogram distinguishable via the bucket sum"
        );
    }

    #[test]
    fn percentile_reports_bucket_lower_bounds_at_exact_edges() {
        // 100 observations: 50 zeros, 25 in [64, 128) (bucket 7), 25 in
        // the top bucket.
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[bucket_index(0)] = 50;
        buckets[bucket_index(64)] = 25;
        buckets[bucket_index(u64::MAX)] = 25;
        // Rank 50 is the last zero: p50 sits exactly on the bucket edge.
        assert_eq!(percentile(&buckets, 500), 0);
        // One per-mille later the rank crosses into bucket 7.
        assert_eq!(percentile(&buckets, 501), bucket_bounds(bucket_index(64)).0);
        assert_eq!(percentile(&buckets, 750), 64);
        // p751..p1000 land in the overflow bucket, whose reported value is
        // its lower bound — never u64::MAX itself.
        assert_eq!(percentile(&buckets, 751), 1 << (HIST_BUCKETS - 2));
        assert_eq!(percentile(&buckets, 1000), 1 << (HIST_BUCKETS - 2));
    }

    #[test]
    fn percentile_extremes_are_bucketed_min_and_max() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[bucket_index(3)] = 1; // bucket 2, lower bound 2
        buckets[bucket_index(1000)] = 9; // bucket 10, lower bound 512
        assert_eq!(percentile(&buckets, 0), 2, "p0 is the bucketed minimum");
        assert_eq!(percentile(&buckets, 100), 2, "rank 1 of 10");
        assert_eq!(percentile(&buckets, 1000), 512, "bucketed maximum");
    }

    #[test]
    fn percentile_matches_exact_rank_on_registry_observations() {
        let m = MetricsRegistry::new();
        // 1000 observations of value i: p999 must reach the bucket of 999.
        for value in 0..1000u64 {
            m.observe(Hist::StreamQueueDelay, value);
        }
        let buckets = m.hist_buckets(Hist::StreamQueueDelay);
        assert_eq!(
            percentile(&buckets, 500),
            bucket_bounds(bucket_index(499)).0
        );
        assert_eq!(
            percentile(&buckets, 990),
            bucket_bounds(bucket_index(989)).0
        );
        assert_eq!(
            percentile(&buckets, 999),
            bucket_bounds(bucket_index(998)).0
        );
    }

    #[test]
    #[should_panic(expected = "beyond the distribution")]
    fn percentile_rejects_more_than_1000_per_mille() {
        percentile(&[0u64; HIST_BUCKETS], 1001);
    }

    #[test]
    fn global_registry_is_shared() {
        let before = metrics().counter(Counter::NpBatches);
        metrics().inc(Counter::NpBatches);
        assert!(metrics().counter(Counter::NpBatches) > before);
    }
}
