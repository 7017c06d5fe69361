//! Seeded traffic generation for the data-plane experiments.
//!
//! The paper's attacker model AC1 says the adversary "can observe any
//! traffic and inject any type of traffic"; the benchmark harness models
//! the data plane as a mixed stream of legitimate flows plus a configurable
//! fraction of malformed packets.
//!
//! Two layers:
//!
//! * [`TrafficGenerator`] — closed-loop packet synthesis: every call yields
//!   one packet with freshly drawn endpoints, as the fixed-batch benches
//!   have always used.
//! * [`OpenLoopSource`] — an open-loop arrival process on top of it:
//!   long-lived flows with heavy-tailed sizes (deterministic
//!   [`BoundedPareto`] sampler), burst arrivals, and flow churn. Packets of
//!   one flow share src/dst/first-L4-word, so the NP's flow-affinity hash
//!   keeps each flow on one core — the property the streaming engine's
//!   whole-queue work stealing depends on.

use crate::packet::{Ipv4Packet, Ipv4PacketBuilder};
use sdmmon_rng::StdRng;
use sdmmon_rng::{split_seed, Rng, RngCore, SeedableRng};

/// Kind of packet emitted by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Well-formed IPv4 with a routable destination.
    Valid,
    /// Structurally corrupted (bad checksum, truncation, wrong version).
    Malformed,
}

/// Configuration for [`TrafficGenerator`].
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Probability in `[0, 1]` that a packet is malformed.
    pub malformed_rate: f64,
    /// Inclusive payload size range in bytes.
    pub payload_range: (usize, usize),
    /// Destination last octets to draw from (routing fan-out).
    pub destinations: Vec<u8>,
}

impl Default for TrafficConfig {
    fn default() -> TrafficConfig {
        TrafficConfig {
            seed: 0x5D40_0147,
            malformed_rate: 0.0,
            payload_range: (16, 512),
            destinations: (1..=9).collect(),
        }
    }
}

/// A deterministic stream of data-plane packets.
///
/// # Examples
///
/// ```
/// use sdmmon_net::traffic::{TrafficConfig, TrafficGenerator, PacketKind};
///
/// let mut gen = TrafficGenerator::new(TrafficConfig {
///     seed: 7,
///     malformed_rate: 0.5,
///     ..TrafficConfig::default()
/// });
/// let (bytes, kind) = gen.next_packet();
/// assert!(bytes.len() >= 20);
/// assert!(matches!(kind, PacketKind::Valid | PacketKind::Malformed));
/// ```
#[derive(Debug)]
pub struct TrafficGenerator {
    config: TrafficConfig,
    rng: StdRng,
}

impl TrafficGenerator {
    /// Creates a generator from `config`.
    ///
    /// # Panics
    ///
    /// Panics on an empty destination set, an inverted payload range, or a
    /// malformed rate outside `[0, 1]`.
    pub fn new(config: TrafficConfig) -> TrafficGenerator {
        assert!(
            !config.destinations.is_empty(),
            "need at least one destination"
        );
        assert!(
            config.payload_range.0 <= config.payload_range.1,
            "inverted payload range"
        );
        assert!(
            (0.0..=1.0).contains(&config.malformed_rate),
            "malformed rate must be a probability"
        );
        let rng = StdRng::seed_from_u64(config.seed);
        TrafficGenerator { config, rng }
    }

    /// Produces the next packet and its kind.
    pub fn next_packet(&mut self) -> (Vec<u8>, PacketKind) {
        let malformed = self.rng.gen_bool(self.config.malformed_rate);
        let (lo, hi) = self.config.payload_range;
        let len = self.rng.gen_range(lo..=hi);
        let mut payload = vec![0u8; len];
        self.rng.fill_bytes(&mut payload);
        let dst_octet =
            self.config.destinations[self.rng.gen_range(0..self.config.destinations.len())];
        let src = [10, 1, self.rng.gen::<u8>(), self.rng.gen::<u8>()];
        let builder = Ipv4Packet::builder()
            .src(src)
            .dst([10, 0, 0, dst_octet])
            .ttl(self.rng.gen_range(2..=64))
            .payload(&payload);
        if !malformed {
            return (builder.build(), PacketKind::Valid);
        }
        (self.malform(builder), PacketKind::Malformed)
    }

    /// Produces the next packet of a pinned flow: same malformed-rate and
    /// payload machinery as [`TrafficGenerator::next_packet`], but with
    /// caller-fixed endpoints and first L4 word so every packet of the flow
    /// hashes to the same core under the NP's flow-affinity dispatch. The
    /// payload is at least 4 bytes (the flow's L4 word).
    pub fn next_flow_packet(
        &mut self,
        src: [u8; 4],
        dst: [u8; 4],
        l4: [u8; 4],
    ) -> (Vec<u8>, PacketKind) {
        let malformed = self.rng.gen_bool(self.config.malformed_rate);
        let (lo, hi) = self.config.payload_range;
        let len = self.rng.gen_range(lo..=hi).max(4);
        let mut payload = vec![0u8; len];
        self.rng.fill_bytes(&mut payload);
        payload[..4].copy_from_slice(&l4);
        let builder = Ipv4Packet::builder()
            .src(src)
            .dst(dst)
            .ttl(self.rng.gen_range(2..=64))
            .payload(&payload);
        if !malformed {
            return (builder.build(), PacketKind::Valid);
        }
        (self.malform(builder), PacketKind::Malformed)
    }

    /// Applies one of three malformation styles. Checksum corruption keeps
    /// the flow key intact; the version lie and the runt truncation change
    /// it (the NP hashes unparseable packets by raw bytes) — exactly what
    /// hostile garbage does on a real wire.
    fn malform(&mut self, builder: Ipv4PacketBuilder) -> Vec<u8> {
        match self.rng.gen_range(0..3u8) {
            0 => builder.corrupt_checksum().build(),
            1 => {
                let mut b = builder.build();
                b[0] = (b[0] & 0x0f) | 0x60; // claim IPv6
                b
            }
            _ => {
                let b = builder.build();
                b[..12.min(b.len())].to_vec() // truncate to a runt
            }
        }
    }

    /// Convenience: produces `n` packets.
    pub fn take(&mut self, n: usize) -> Vec<(Vec<u8>, PacketKind)> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

/// Deterministic bounded-Pareto sampler: heavy-tailed values in
/// `[low, high]` with tail index `alpha`, drawn by inverting the CDF on
/// one uniform draw. Internet flow sizes are famously heavy-tailed
/// ("elephants and mice"); a *bounded* Pareto keeps the simulation's worst
/// case finite while preserving the power-law body that makes per-core
/// queue loads skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    low: u64,
    high: u64,
    /// Precomputed `(low/high)^alpha`, the CDF's truncation factor.
    ratio_pow: f64,
}

impl BoundedPareto {
    /// Creates a sampler over `[low, high]` with tail index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `alpha` is positive and finite and `1 <= low <= high`.
    pub fn new(alpha: f64, low: u64, high: u64) -> BoundedPareto {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "tail index must be positive and finite"
        );
        assert!((1..=high).contains(&low), "need 1 <= low <= high");
        BoundedPareto {
            alpha,
            low,
            high,
            ratio_pow: (low as f64 / high as f64).powf(alpha),
        }
    }

    /// Draws one value by inverse transform:
    /// `x = low * (1 - U * (1 - (low/high)^alpha))^(-1/alpha)`,
    /// rounded to an integer and clamped to `[low, high]`.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let x = self.low as f64 * (1.0 - u * (1.0 - self.ratio_pow)).powf(-1.0 / self.alpha);
        (x.round() as u64).clamp(self.low, self.high)
    }
}

/// Configuration for [`OpenLoopSource`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Deterministic seed; the arrival process and the packet synthesis
    /// use independent sub-streams derived from it.
    pub seed: u64,
    /// Concurrent flows. Each retired flow is immediately replaced
    /// (churn), so the active set stays at this size.
    pub active_flows: usize,
    /// Packets per flow, drawn once at flow birth.
    pub flow_sizes: BoundedPareto,
    /// Inclusive packets-per-burst range. Each arrival event picks one
    /// active flow and delivers a burst of its packets back to back,
    /// truncated at the flow's end — a burst never spans two flows.
    pub burst_range: (usize, usize),
    /// Arrival events per round (one round = one ingest interval handed to
    /// the streaming engine).
    pub bursts_per_round: usize,
    /// Probability in `[0, 1]` that a packet is malformed.
    pub malformed_rate: f64,
    /// Inclusive payload size range in bytes (min clamped to 4).
    pub payload_range: (usize, usize),
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            seed: 0x57AE_A801,
            active_flows: 32,
            flow_sizes: BoundedPareto::new(1.3, 2, 4096),
            burst_range: (1, 16),
            bursts_per_round: 24,
            malformed_rate: 0.0,
            payload_range: (16, 128),
        }
    }
}

/// One live flow: fixed endpoints and L4 word (the flow key) plus its
/// remaining packet budget.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: [u8; 4],
    dst: [u8; 4],
    l4: [u8; 4],
    remaining: u64,
}

/// An open-loop traffic source: arrivals happen at the configured rate
/// whether or not the engine keeps up — the defining property of an
/// open-loop load generator, and what makes bounded ingress queues shed
/// load instead of silently slowing the offered rate.
///
/// Layered on [`TrafficGenerator`] for packet synthesis; flow lifetimes and
/// burst arrivals come from an independent seeded stream, so the same seed
/// replays the identical packet sequence byte for byte.
///
/// # Examples
///
/// ```
/// use sdmmon_net::traffic::{OpenLoopConfig, OpenLoopSource};
///
/// let mut src = OpenLoopSource::new(OpenLoopConfig::default());
/// let round = src.next_round();
/// assert!(!round.is_empty());
/// let mut again = OpenLoopSource::new(OpenLoopConfig::default());
/// assert_eq!(round, again.next_round(), "same seed, same arrivals");
/// ```
#[derive(Debug)]
pub struct OpenLoopSource {
    config: OpenLoopConfig,
    /// Arrival process: flow churn, burst sizes, flow selection.
    rng: StdRng,
    /// Packet synthesis (payloads, TTLs, malformation).
    gen: TrafficGenerator,
    flows: Vec<Flow>,
    flows_started: u64,
    emitted: u64,
}

impl OpenLoopSource {
    /// Creates a source with `config.active_flows` live flows.
    ///
    /// # Panics
    ///
    /// Panics on zero active flows, zero bursts per round, or an inverted
    /// or zero burst range; packet-synthesis limits are checked by
    /// [`TrafficGenerator::new`].
    pub fn new(config: OpenLoopConfig) -> OpenLoopSource {
        assert!(config.active_flows > 0, "need at least one active flow");
        assert!(config.bursts_per_round > 0, "need at least one burst");
        assert!(
            0 < config.burst_range.0 && config.burst_range.0 <= config.burst_range.1,
            "burst range must be non-empty and non-inverted"
        );
        let gen = TrafficGenerator::new(TrafficConfig {
            seed: split_seed(config.seed, 1),
            malformed_rate: config.malformed_rate,
            payload_range: config.payload_range,
            ..TrafficConfig::default()
        });
        let mut source = OpenLoopSource {
            rng: StdRng::seed_from_u64(split_seed(config.seed, 0)),
            gen,
            flows: Vec::with_capacity(config.active_flows),
            flows_started: 0,
            emitted: 0,
            config,
        };
        for _ in 0..source.config.active_flows {
            let flow = source.fresh_flow();
            source.flows.push(flow);
        }
        source
    }

    /// Births a new flow: fresh endpoints, fresh L4 word, size drawn from
    /// the bounded-Pareto sampler.
    fn fresh_flow(&mut self) -> Flow {
        self.flows_started += 1;
        Flow {
            src: [10, 2, self.rng.gen(), self.rng.gen()],
            dst: [10, 0, 0, self.rng.gen_range(1..=9u8)],
            l4: self.rng.gen(),
            remaining: self.config.flow_sizes.sample(&mut self.rng),
        }
    }

    /// Produces one round of arrivals: `bursts_per_round` burst events,
    /// each delivering up to `burst_range` consecutive packets of one
    /// active flow. A flow that exhausts its budget retires at the burst
    /// boundary and a fresh flow takes its slot (churn).
    pub fn next_round(&mut self) -> Vec<Vec<u8>> {
        let mut round = Vec::new();
        for _ in 0..self.config.bursts_per_round {
            let slot = self.rng.gen_range(0..self.flows.len());
            let (lo, hi) = self.config.burst_range;
            let burst = self.rng.gen_range(lo..=hi) as u64;
            let flow = self.flows[slot];
            let take = burst.min(flow.remaining);
            for _ in 0..take {
                let (bytes, _) = self.gen.next_flow_packet(flow.src, flow.dst, flow.l4);
                round.push(bytes);
            }
            self.emitted += take;
            if flow.remaining <= burst {
                self.flows[slot] = self.fresh_flow();
            } else {
                self.flows[slot].remaining -= take;
            }
        }
        round
    }

    /// Convenience: produces `n` rounds.
    pub fn take_rounds(&mut self, n: usize) -> Vec<Vec<Vec<u8>>> {
        (0..n).map(|_| self.next_round()).collect()
    }

    /// Flows started so far (initial set included) — exceeds
    /// `active_flows` once churn has replaced a retired flow.
    pub fn flows_started(&self) -> u64 {
        self.flows_started
    }

    /// Packets emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let cfg = TrafficConfig {
            seed: 99,
            ..TrafficConfig::default()
        };
        let a = TrafficGenerator::new(cfg.clone()).take(20);
        let b = TrafficGenerator::new(cfg).take(20);
        assert_eq!(a, b);
    }

    #[test]
    fn valid_packets_parse() {
        let mut gen = TrafficGenerator::new(TrafficConfig::default());
        for (bytes, kind) in gen.take(50) {
            assert_eq!(kind, PacketKind::Valid);
            let p = Ipv4Packet::parse(&bytes).expect("valid traffic parses");
            assert!(p.ttl >= 2);
        }
    }

    #[test]
    fn malformed_packets_fail_to_parse() {
        let mut gen = TrafficGenerator::new(TrafficConfig {
            seed: 3,
            malformed_rate: 1.0,
            ..TrafficConfig::default()
        });
        for (bytes, kind) in gen.take(50) {
            assert_eq!(kind, PacketKind::Malformed);
            assert!(Ipv4Packet::parse(&bytes).is_err());
        }
    }

    #[test]
    fn malformed_rate_roughly_respected() {
        let mut gen = TrafficGenerator::new(TrafficConfig {
            seed: 5,
            malformed_rate: 0.25,
            ..TrafficConfig::default()
        });
        let bad = gen
            .take(1000)
            .iter()
            .filter(|(_, k)| *k == PacketKind::Malformed)
            .count();
        assert!((150..350).contains(&bad), "got {bad} malformed of 1000");
    }

    #[test]
    fn payload_range_respected() {
        let mut gen = TrafficGenerator::new(TrafficConfig {
            payload_range: (10, 20),
            ..TrafficConfig::default()
        });
        for (bytes, kind) in gen.take(100) {
            if kind == PacketKind::Valid {
                assert!((30..=40).contains(&bytes.len()), "len {}", bytes.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "destination")]
    fn empty_destinations_rejected() {
        TrafficGenerator::new(TrafficConfig {
            destinations: vec![],
            ..TrafficConfig::default()
        });
    }

    #[test]
    fn flow_packets_keep_their_flow_key() {
        let mut gen = TrafficGenerator::new(TrafficConfig::default());
        for _ in 0..50 {
            let (bytes, kind) =
                gen.next_flow_packet([10, 2, 3, 4], [10, 0, 0, 7], [0xde, 0xad, 0xbe, 0xef]);
            assert_eq!(kind, PacketKind::Valid);
            let p = Ipv4Packet::parse(&bytes).expect("valid flow traffic parses");
            assert_eq!(p.src, [10, 2, 3, 4]);
            assert_eq!(p.dst, [10, 0, 0, 7]);
            assert_eq!(&p.payload[..4], &[0xde, 0xad, 0xbe, 0xef]);
        }
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_replays() {
        let sampler = BoundedPareto::new(1.5, 4, 1 << 20);
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<u64> = (0..5000).map(|_| sampler.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (4..=1 << 20).contains(&s)));
        let mut rng2 = StdRng::seed_from_u64(11);
        let again: Vec<u64> = (0..5000).map(|_| sampler.sample(&mut rng2)).collect();
        assert_eq!(samples, again, "same seed, same sample stream");
        // Heavy tail: the max dwarfs the median by orders of magnitude.
        let max = *samples.iter().max().unwrap();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!(max > median * 50, "max {max} vs median {median}");
    }

    #[test]
    fn bounded_pareto_tail_index_matches_within_tolerance() {
        // Hill estimator over the top order statistics of a pinned-seed
        // draw. The bound (2^20) truncates a vanishing fraction of the
        // unbounded tail at alpha = 1.5, low = 4, so the estimate should
        // recover the configured index.
        let alpha = 1.5;
        let sampler = BoundedPareto::new(alpha, 4, 1 << 20);
        let mut rng = StdRng::seed_from_u64(0x7A11);
        let mut samples: Vec<u64> = (0..20_000).map(|_| sampler.sample(&mut rng)).collect();
        samples.sort_unstable_by(|a, b| b.cmp(a));
        let k = 500;
        let threshold = samples[k] as f64;
        let log_excess: f64 = samples[..k]
            .iter()
            .map(|&x| (x as f64 / threshold).ln())
            .sum();
        let hill = k as f64 / log_excess;
        assert!(
            (hill - alpha).abs() < 0.35,
            "Hill estimate {hill:.3} too far from configured alpha {alpha}"
        );
    }

    #[test]
    #[should_panic(expected = "tail index")]
    fn bounded_pareto_rejects_nonpositive_alpha() {
        BoundedPareto::new(0.0, 1, 10);
    }

    #[test]
    fn open_loop_replays_byte_identically() {
        let cfg = OpenLoopConfig {
            seed: 0xBEEF,
            malformed_rate: 0.1,
            ..OpenLoopConfig::default()
        };
        let a = OpenLoopSource::new(cfg.clone()).take_rounds(6);
        let b = OpenLoopSource::new(cfg).take_rounds(6);
        assert_eq!(a, b, "same seed, same rounds");
    }

    #[test]
    fn open_loop_bursts_stay_within_one_flow() {
        // With distinctive flow keys, consecutive packets of one burst must
        // share src/dst/L4 — a burst never spans two flows.
        let mut src = OpenLoopSource::new(OpenLoopConfig {
            seed: 5,
            burst_range: (4, 8),
            ..OpenLoopConfig::default()
        });
        for round in src.take_rounds(4) {
            let keys: Vec<_> = round
                .iter()
                .map(|bytes| {
                    let p = Ipv4Packet::parse(bytes).expect("valid traffic");
                    (p.src, p.dst, p.payload[..4].to_vec())
                })
                .collect();
            // Count distinct runs: far fewer than packets (bursts >= 4).
            let runs = keys
                .iter()
                .zip(keys.iter().skip(1))
                .filter(|(a, b)| a != b)
                .count()
                + 1;
            assert!(
                runs * 3 <= keys.len(),
                "bursts collapsed: {runs} runs over {} packets",
                keys.len()
            );
        }
    }

    #[test]
    fn open_loop_churns_flows() {
        let mut src = OpenLoopSource::new(OpenLoopConfig {
            seed: 9,
            active_flows: 8,
            flow_sizes: BoundedPareto::new(1.3, 2, 32),
            ..OpenLoopConfig::default()
        });
        let rounds = src.take_rounds(20);
        assert!(
            src.flows_started() > 8,
            "no churn after {} packets",
            rounds.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(
            src.emitted(),
            rounds.iter().map(|r| r.len() as u64).sum::<u64>()
        );
    }
}
