//! The per-core runtime supervisor: graded threat response beyond the
//! paper's "reset core, drop packet".
//!
//! The paper's recovery policy treats every monitor violation identically —
//! reset the core from its pristine image and continue. That is the right
//! response to a one-off hijacked packet, but a production NP needs
//! *graded* responses: a core with a transient deviation should be
//! throttled, not immediately quarantined, while a core under sustained
//! attack must be isolated and its wrapped key zeroized before
//! exfiltration. Two mechanisms run side by side:
//!
//! **The structural strike ladder** (retained from the original
//! supervisor as a fallback floor):
//!
//! 1. **Recover** — each unclean halt still resets the core (a *strike*).
//! 2. **Redeploy** — after [`SupervisorPolicy::redeploy_after`] consecutive
//!    strikes, the core is re-flashed from its last-known-good image and
//!    the strike count starts over.
//! 3. **Quarantine** — after [`SupervisorPolicy::quarantine_after`]
//!    redeploys without a clean packet in between, the core is pulled from
//!    dispatch entirely.
//!
//! **The adaptive graded supervisor** ([`AdaptiveConfig`]): per-core
//! fixed-point EWMA baselines (no floats — the determinism contract) over
//! three signals — deviation rate (per-mille unclean-halt indicator),
//! detection latency in retired instructions, and per-core queue depth at
//! batch entry. Each signal keeps a *fast* EWMA (recent behaviour) and a
//! *slow* EWMA (learned baseline); the deviation-from-baseline score in
//! per-mille classifies into threat levels `None → Low → Elevated → High
//! → Critical`, each with a graded response:
//!
//! | level    | response                                                |
//! |----------|---------------------------------------------------------|
//! | Low      | alert event only                                        |
//! | Elevated | throttle: the core's dispatch share is halved           |
//! | High     | quarantine: the core is pulled from dispatch            |
//! | Critical | zeroize: order key destruction, escalate to NP lockdown |
//!
//! Responses *latch* (a throttled core stays throttled when the score
//! decays) and are released only by **timed parole**: after
//! [`AdaptiveConfig::parole_batches`] consecutive clean batches a
//! quarantined core re-enters dispatch at half share, and a throttled core
//! regains its full share. Zeroized cores are never paroled — the wrapped
//! key is gone and only an operator re-install
//! ([`CoreHealth::reinstated`]) rehabilitates them.
//!
//! The two mechanisms stay separate, folded with `max`, because the strike
//! ladder cannot be restated as [`AdaptiveConfig`] settings without
//! changing pinned byte streams. `ladder(2, ·)` must redeploy after a fresh
//! pair of unclean halts, where the fast deviation EWMA reads 234 at the
//! default shift 3. It must not redeploy after ten unclean halts, one clean
//! packet and one more unclean halt, where the same EWMA reads 689 with a
//! single strike. So no threshold on the EWMA reproduces the strike
//! counter. [`AdaptiveConfig::off`] (`enabled: false`) could only become an
//! inert magic shift, and the benchmark harness (`perfbench/`) builds a
//! policy naming `redeploy_after`, `quarantine_after`, `adaptive` and
//! `critical` in a struct literal.
//!
//! All state is plain integers; given the same packet sequence the graded
//! supervisor replays identically, at every shard count.

use std::fmt;

/// Fraction bits of the Q48.16 fixed-point EWMA values.
pub const FRAC_BITS: u32 = 16;

/// Per-mille scale of the deviation-rate indicator: an unclean halt
/// contributes a sample of `DEV_SCALE`, a clean packet a sample of 0, so
/// the fast EWMA reads directly as a per-mille recent unclean-halt rate.
pub const DEV_SCALE: u64 = 1000;

/// Latency floor (retired instructions, pre-shift) under which the
/// detection-latency baseline is considered unlearned — keeps the first
/// violations from dividing by a near-zero baseline.
const LAT_FLOOR: u64 = 16 << FRAC_BITS;

/// Queue-depth floor (packets, pre-shift) for the same reason.
const QUEUE_FLOOR: u64 = 8 << FRAC_BITS;

/// Divisor on the auxiliary (latency, queue) per-mille scores: the
/// deviation rate is the primary signal, the others contribute at most
/// `DEV_SCALE / AUX_WEIGHT` each.
const AUX_WEIGHT: u64 = 8;

/// One fixed-point EWMA step: `value' = value - value·2^-shift +
/// sample·2^-shift`, with `value` in Q48.16 and `sample` a plain integer.
/// Computed in u128 and saturated to `u64::MAX`, so it can never overflow
/// or panic, for any `value`, `sample`, and `shift < 64`.
pub fn ewma_step(value: u64, sample: u64, shift: u32) -> u64 {
    debug_assert!(shift < 64, "ewma shift out of range");
    let old = value as u128;
    let next = old - (old >> shift) + (((sample as u128) << FRAC_BITS) >> shift);
    if next > u64::MAX as u128 {
        u64::MAX
    } else {
        next as u64
    }
}

/// Threat classification of one core, ordered by severity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThreatLevel {
    /// Behaviour within baseline.
    #[default]
    None,
    /// Transient deviation: worth an alert, no response yet.
    Low,
    /// Sustained deviation: throttle the core's dispatch share.
    Elevated,
    /// Persistent attack pattern: quarantine the core.
    High,
    /// Possible key-extraction attempt: zeroize and lock down.
    Critical,
}

impl ThreatLevel {
    /// Lowercase label used in events and human output.
    pub fn name(self) -> &'static str {
        match self {
            ThreatLevel::None => "none",
            ThreatLevel::Low => "low",
            ThreatLevel::Elevated => "elevated",
            ThreatLevel::High => "high",
            ThreatLevel::Critical => "critical",
        }
    }
}

/// Configuration of the adaptive graded supervisor. All thresholds are
/// per-mille deviation-from-baseline scores (see
/// [`CoreHealth::threat_score`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveConfig {
    /// Master switch; when false the policy degrades to the pure strike
    /// ladder and none of the other fields are consulted.
    pub enabled: bool,
    /// Fast-EWMA smoothing shift (`alpha = 2^-fast_shift`) — tracks recent
    /// behaviour.
    pub fast_shift: u32,
    /// Slow-EWMA smoothing shift — the learned baseline.
    pub slow_shift: u32,
    /// Score at which the core transitions to [`ThreatLevel::Low`].
    pub low: u64,
    /// Score for [`ThreatLevel::Elevated`] (throttle).
    pub elevated: u64,
    /// Score for [`ThreatLevel::High`] (quarantine).
    pub high: u64,
    /// Score for [`ThreatLevel::Critical`] (zeroize + lockdown).
    pub critical: u64,
    /// Consecutive clean batches before a throttled/quarantined core is
    /// paroled one step. `0` disables parole.
    pub parole_batches: u32,
    /// Capacity of the per-core forensic ring (pre-detection packets
    /// flushed as `supervisor.forensic` events on quarantine/zeroize).
    /// `0` disables forensic capture.
    pub forensic_window: usize,
}

impl Default for AdaptiveConfig {
    /// Alert after one isolated strike, throttle a short burst, quarantine
    /// a sustained one, zeroize a core hammered without relief (roughly
    /// strikes 1 / 2 / 3-4 / 7-8 when every packet is unclean; mixed
    /// traffic dilutes the fast EWMA and stretches the ladder out).
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            enabled: true,
            fast_shift: 3,
            slow_shift: 6,
            low: 60,
            elevated: 180,
            high: 320,
            critical: 520,
            parole_batches: 4,
            forensic_window: 8,
        }
    }
}

impl AdaptiveConfig {
    /// Adaptive grading fully disabled (the pure strike ladder).
    pub const fn off() -> AdaptiveConfig {
        AdaptiveConfig {
            enabled: false,
            fast_shift: 0,
            slow_shift: 0,
            low: 0,
            elevated: 0,
            high: 0,
            critical: 0,
            parole_batches: 0,
            forensic_window: 0,
        }
    }

    /// Classifies a per-mille deviation score into a threat level.
    pub fn classify(&self, score: u64) -> ThreatLevel {
        if score >= self.critical {
            ThreatLevel::Critical
        } else if score >= self.high {
            ThreatLevel::High
        } else if score >= self.elevated {
            ThreatLevel::Elevated
        } else if score >= self.low {
            ThreatLevel::Low
        } else {
            ThreatLevel::None
        }
    }
}

/// Escalation thresholds of the runtime supervisor: the structural strike
/// ladder plus the adaptive graded configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Consecutive unclean halts (strikes) before the core is redeployed
    /// from its last-known-good image. `0` disables redeploy.
    pub redeploy_after: u32,
    /// Redeploys before the core is quarantined out of dispatch. `0`
    /// disables quarantine.
    pub quarantine_after: u32,
    /// The adaptive graded supervisor riding on top of the ladder.
    pub adaptive: AdaptiveConfig,
}

impl Default for SupervisorPolicy {
    /// The graded default: adaptive EWMA grading on top of the
    /// three-strikes / two-redeploys structural ladder.
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            redeploy_after: 3,
            quarantine_after: 2,
            adaptive: AdaptiveConfig::default(),
        }
    }
}

impl SupervisorPolicy {
    /// A policy that never escalates — the paper's original reset-only
    /// recovery, for differential tests against the supervised runtime.
    pub fn never() -> SupervisorPolicy {
        SupervisorPolicy {
            redeploy_after: 0,
            quarantine_after: 0,
            adaptive: AdaptiveConfig::off(),
        }
    }

    /// The pure structural strike ladder (adaptive grading off) — the
    /// exact pre-graded supervisor behaviour, byte-for-byte.
    pub fn ladder(redeploy_after: u32, quarantine_after: u32) -> SupervisorPolicy {
        SupervisorPolicy {
            redeploy_after,
            quarantine_after,
            adaptive: AdaptiveConfig::off(),
        }
    }

    /// The default ladder with a custom adaptive configuration.
    pub fn graded(adaptive: AdaptiveConfig) -> SupervisorPolicy {
        SupervisorPolicy {
            redeploy_after: 3,
            quarantine_after: 2,
            adaptive,
        }
    }
}

/// What the supervisor decided after one unclean halt, ordered by
/// severity (the ladder verdict and the graded verdict are folded with
/// `max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SupervisorAction {
    /// Plain recovery: reset and keep dispatching.
    Recover,
    /// Threat Low: emit an alert, keep dispatching.
    Alert,
    /// Threat Elevated: halve the core's dispatch share.
    Throttle,
    /// Strike budget exhausted: re-flash the last-known-good image.
    Redeploy,
    /// Threat High (or redeploy budget exhausted): remove from dispatch.
    Quarantine,
    /// Threat Critical: zeroize the wrapped key, escalate to NP lockdown.
    Zeroize,
}

impl SupervisorAction {
    /// Short lowercase label, used by the trace layer's `span.respond`
    /// events and anywhere else an action needs a stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SupervisorAction::Recover => "recover",
            SupervisorAction::Alert => "alert",
            SupervisorAction::Throttle => "throttle",
            SupervisorAction::Redeploy => "redeploy",
            SupervisorAction::Quarantine => "quarantine",
            SupervisorAction::Zeroize => "zeroize",
        }
    }
}

/// What a parole step restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parole {
    /// Quarantine lifted: the core re-enters dispatch at half share.
    Dispatch,
    /// Throttle lifted: the core regains its full dispatch share.
    Full,
}

/// Supervisor state of one core. Plain `Copy` data — the EWMA values are
/// raw Q48.16 integers stepped with the shifts from the active policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreHealth {
    /// Unclean halts since install (lifetime, never reset by escalation).
    pub unclean_halts: u64,
    /// Consecutive unclean halts since the last clean packet or redeploy.
    pub strikes: u32,
    /// Redeploys since install.
    pub redeploys: u32,
    /// Whether the core is currently out of dispatch.
    pub quarantined: bool,
    /// Fast EWMA of the per-mille deviation indicator (Q48.16).
    pub dev_fast: u64,
    /// Slow (baseline) EWMA of the deviation indicator.
    pub dev_slow: u64,
    /// Fast EWMA of detection latency in retired instructions.
    pub lat_fast: u64,
    /// Baseline EWMA of detection latency.
    pub lat_slow: u64,
    /// Fast EWMA of the core's queue depth at batch entry.
    pub queue_fast: u64,
    /// Baseline EWMA of queue depth.
    pub queue_slow: u64,
    /// Current threat classification (recomputed on every signal fold).
    pub threat: ThreatLevel,
    /// Highest threat level ever reached — the level *responsible* for
    /// whatever response is latched. Cleared only by reinstatement.
    pub peak_threat: ThreatLevel,
    /// Whether the core's dispatch share is currently halved.
    pub throttled: bool,
    /// Whether key zeroization has been ordered for this core.
    pub zeroize_ordered: bool,
    /// Whether the zeroize order has been drained by the control plane.
    pub zeroize_taken: bool,
    /// Consecutive clean batches accumulated toward parole.
    pub clean_batches: u32,
    /// Whether the current batch saw an unclean halt on this core.
    pub batch_unclean: bool,
}

impl CoreHealth {
    /// The per-mille deviation-from-baseline score: the fast-vs-slow
    /// excess of the deviation rate (the primary signal, 0..=1000) plus
    /// down-weighted relative excesses of detection latency and queue
    /// depth (at most `DEV_SCALE / AUX_WEIGHT` each).
    pub fn threat_score(&self) -> u64 {
        let dev = (self.dev_fast >> FRAC_BITS).saturating_sub(self.dev_slow >> FRAC_BITS);
        dev + aux_score(self.lat_fast, self.lat_slow, LAT_FLOOR) / AUX_WEIGHT
            + aux_score(self.queue_fast, self.queue_slow, QUEUE_FLOOR) / AUX_WEIGHT
    }

    /// Folds one unclean halt (with its detection latency in retired
    /// instructions) into the ladder and the adaptive baselines, and
    /// returns the most severe escalation verdict. The caller performs the
    /// actual reset/re-flash/zeroize; this only does the book-keeping.
    pub fn record_unclean(
        &mut self,
        policy: &SupervisorPolicy,
        latency_steps: u64,
    ) -> SupervisorAction {
        self.unclean_halts += 1;
        self.strikes += 1;
        self.batch_unclean = true;
        self.clean_batches = 0;

        // The structural ladder is the fallback floor.
        let mut action = SupervisorAction::Recover;
        if policy.redeploy_after != 0 && self.strikes >= policy.redeploy_after {
            self.strikes = 0;
            self.redeploys += 1;
            action = SupervisorAction::Redeploy;
            if policy.quarantine_after != 0
                && self.redeploys >= policy.quarantine_after
                && !self.quarantined
            {
                self.quarantined = true;
                action = SupervisorAction::Quarantine;
            }
        }

        let cfg = &policy.adaptive;
        if cfg.enabled {
            self.dev_fast = ewma_step(self.dev_fast, DEV_SCALE, cfg.fast_shift);
            self.dev_slow = ewma_step(self.dev_slow, DEV_SCALE, cfg.slow_shift);
            self.lat_fast = ewma_step(self.lat_fast, latency_steps, cfg.fast_shift);
            self.lat_slow = ewma_step(self.lat_slow, latency_steps, cfg.slow_shift);
            let prev = self.threat;
            let level = cfg.classify(self.threat_score());
            self.threat = level;
            self.peak_threat = self.peak_threat.max(level);
            let graded = match level {
                ThreatLevel::Critical if !self.zeroize_ordered => {
                    self.zeroize_ordered = true;
                    self.quarantined = true;
                    SupervisorAction::Zeroize
                }
                ThreatLevel::High | ThreatLevel::Critical if !self.quarantined => {
                    self.quarantined = true;
                    SupervisorAction::Quarantine
                }
                ThreatLevel::Elevated if !self.throttled => {
                    self.throttled = true;
                    SupervisorAction::Throttle
                }
                ThreatLevel::Low if prev < ThreatLevel::Low => SupervisorAction::Alert,
                _ => SupervisorAction::Recover,
            };
            action = action.max(graded);
        }
        action
    }

    /// Folds one clean packet: the consecutive-strike count resets, the
    /// lifetime and redeploy counters stand, and the deviation baseline
    /// decays toward zero (latched responses are released only by parole).
    pub fn record_clean(&mut self, policy: &SupervisorPolicy) {
        self.strikes = 0;
        let cfg = &policy.adaptive;
        if cfg.enabled {
            self.dev_fast = ewma_step(self.dev_fast, 0, cfg.fast_shift);
            self.dev_slow = ewma_step(self.dev_slow, 0, cfg.slow_shift);
            // Absent new violations, recent latency converges back to its
            // learned baseline so a stale excess cannot pin the score up.
            self.lat_fast = ewma_step(self.lat_fast, self.lat_slow >> FRAC_BITS, cfg.fast_shift);
            self.threat = cfg.classify(self.threat_score());
        }
    }

    /// Folds the core's queue depth at batch entry (the third PR 5
    /// signal). Called on the dispatch thread before the batch runs, so
    /// the baseline is identical at every shard count.
    pub fn note_queue_depth(&mut self, depth: u64, policy: &SupervisorPolicy) {
        let cfg = &policy.adaptive;
        if cfg.enabled {
            self.queue_fast = ewma_step(self.queue_fast, depth, cfg.fast_shift);
            self.queue_slow = ewma_step(self.queue_slow, depth, cfg.slow_shift);
        }
    }

    /// Ticks the parole clock at batch end. A batch with no unclean halt
    /// on this core counts toward parole; after
    /// [`AdaptiveConfig::parole_batches`] of them a quarantined core
    /// re-enters dispatch throttled, and a throttled core regains its full
    /// share. Zeroized cores are never paroled.
    pub fn note_batch_end(&mut self, policy: &SupervisorPolicy) -> Option<Parole> {
        let unclean = std::mem::replace(&mut self.batch_unclean, false);
        let cfg = &policy.adaptive;
        if !cfg.enabled || cfg.parole_batches == 0 || self.zeroize_ordered {
            return None;
        }
        if !(self.quarantined || self.throttled) {
            return None;
        }
        if unclean {
            self.clean_batches = 0;
            return None;
        }
        self.clean_batches += 1;
        if self.clean_batches < cfg.parole_batches {
            return None;
        }
        self.clean_batches = 0;
        if self.quarantined {
            self.quarantined = false;
            self.throttled = true;
            self.threat = ThreatLevel::Elevated;
            Some(Parole::Dispatch)
        } else {
            self.throttled = false;
            self.threat = ThreatLevel::None;
            Some(Parole::Full)
        }
    }

    /// Rehabilitation: a fresh bundle install wipes the ladder, the
    /// baselines, and every latched response (the operator vouched for the
    /// core again).
    pub fn reinstated(&mut self) {
        *self = CoreHealth::default();
    }
}

/// Relative per-mille excess of `fast` over `slow`, with `slow` floored to
/// keep unlearned baselines from amplifying the first samples; clamped to
/// `DEV_SCALE`.
fn aux_score(fast: u64, slow: u64, floor: u64) -> u64 {
    let excess = fast.saturating_sub(slow);
    (excess.saturating_mul(DEV_SCALE) / slow.max(floor)).min(DEV_SCALE)
}

impl fmt::Display for CoreHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unclean {} / strikes {} / redeploys {}",
            self.unclean_halts, self.strikes, self.redeploys,
        )?;
        if self.threat != ThreatLevel::None {
            write!(f, " / threat {}", self.threat.name())?;
        }
        if self.throttled {
            write!(f, " / THROTTLED")?;
        }
        if self.quarantined {
            write!(f, " / QUARANTINED")?;
        }
        if self.zeroize_ordered {
            write!(f, " / ZEROIZED")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_matches_hand_computed_sequence() {
        // alpha = 1/4 over a constant 100: 25, 43.75, 57.8125 — exactly
        // representable in Q48.16.
        let e = ewma_step(0, 100, 2);
        assert_eq!(e, 25 << FRAC_BITS);
        let e = ewma_step(e, 100, 2);
        assert_eq!(e, (43 << FRAC_BITS) + (3 << FRAC_BITS) / 4);
        let e = ewma_step(e, 100, 2);
        assert_eq!(e, (57 << FRAC_BITS) + (13 << FRAC_BITS) / 16);
        assert_eq!(e >> FRAC_BITS, 57);
    }

    #[test]
    fn ewma_decays_toward_zero() {
        let e = ewma_step(0, 64, 1);
        assert_eq!(e >> FRAC_BITS, 32);
        let e = ewma_step(e, 0, 1);
        assert_eq!(e >> FRAC_BITS, 16);
        let e = ewma_step(e, 0, 1);
        assert_eq!(e >> FRAC_BITS, 8);
    }

    #[test]
    fn ewma_saturates_at_extremes_without_panicking() {
        assert_eq!(
            ewma_step(0, u64::MAX, 0),
            u64::MAX,
            "shift 0 tracks the sample"
        );
        let e = (0..200).fold(0, |e, _| ewma_step(e, u64::MAX, 1));
        assert_eq!(e, u64::MAX, "saturates instead of wrapping");
        // And a saturated value decays cleanly once samples drop.
        assert!(ewma_step(e, 0, 1) < u64::MAX);
    }

    #[test]
    fn classification_thresholds_are_inclusive() {
        let cfg = AdaptiveConfig::default();
        assert_eq!(cfg.classify(cfg.low - 1), ThreatLevel::None);
        assert_eq!(cfg.classify(cfg.low), ThreatLevel::Low);
        assert_eq!(cfg.classify(cfg.elevated), ThreatLevel::Elevated);
        assert_eq!(cfg.classify(cfg.high), ThreatLevel::High);
        assert_eq!(cfg.classify(cfg.critical), ThreatLevel::Critical);
        assert_eq!(cfg.classify(u64::MAX), ThreatLevel::Critical);
    }

    #[test]
    fn ladder_escalates_in_order() {
        let policy = SupervisorPolicy::ladder(2, 2);
        let mut h = CoreHealth::default();
        assert_eq!(h.record_unclean(&policy, 0), SupervisorAction::Recover);
        assert_eq!(h.record_unclean(&policy, 0), SupervisorAction::Redeploy);
        assert_eq!(h.redeploys, 1);
        assert_eq!(h.strikes, 0, "redeploy restarts the strike count");
        assert_eq!(h.record_unclean(&policy, 0), SupervisorAction::Recover);
        assert_eq!(h.record_unclean(&policy, 0), SupervisorAction::Quarantine);
        assert!(h.quarantined);
        assert_eq!(h.unclean_halts, 4, "lifetime counter never resets");
    }

    #[test]
    fn clean_packets_reset_strikes_but_not_redeploys() {
        let policy = SupervisorPolicy::ladder(2, 3);
        let mut h = CoreHealth::default();
        h.record_unclean(&policy, 0);
        h.record_clean(&policy);
        assert_eq!(h.strikes, 0);
        h.record_unclean(&policy, 0);
        assert_eq!(
            h.record_unclean(&policy, 0),
            SupervisorAction::Redeploy,
            "strikes must be consecutive to redeploy"
        );
        h.record_clean(&policy);
        assert_eq!(h.redeploys, 1, "a clean packet does not forgive redeploys");
    }

    #[test]
    fn never_policy_only_recovers() {
        let policy = SupervisorPolicy::never();
        let mut h = CoreHealth::default();
        for _ in 0..100 {
            assert_eq!(h.record_unclean(&policy, 40), SupervisorAction::Recover);
        }
        assert!(!h.quarantined);
        assert!(!h.throttled);
        assert_eq!(h.threat, ThreatLevel::None);
        assert_eq!(h.redeploys, 0);
        assert_eq!(h.unclean_halts, 100);
    }

    #[test]
    fn graded_supervisor_walks_the_response_table() {
        // Hammer one core with unclean halts at constant latency: the
        // graded ladder must pass through alert, throttle, quarantine, and
        // zeroize, in that order, before the structural ladder (3 strikes
        // x 2 redeploys) would have quarantined on its own.
        let policy = SupervisorPolicy::graded(AdaptiveConfig {
            parole_batches: 0,
            ..AdaptiveConfig::default()
        });
        let mut h = CoreHealth::default();
        let mut seen = Vec::new();
        for _ in 0..12 {
            let action = h.record_unclean(&policy, 40);
            if action != SupervisorAction::Recover && action != SupervisorAction::Redeploy {
                seen.push(action);
            }
        }
        assert_eq!(
            seen,
            vec![
                SupervisorAction::Alert,
                SupervisorAction::Throttle,
                SupervisorAction::Quarantine,
                SupervisorAction::Zeroize,
            ],
            "graded responses fire once each, in severity order",
        );
        assert!(h.quarantined && h.throttled && h.zeroize_ordered);
        assert_eq!(h.peak_threat, ThreatLevel::Critical);
    }

    #[test]
    fn clean_traffic_decays_the_threat_score() {
        let policy = SupervisorPolicy::graded(AdaptiveConfig::default());
        let mut h = CoreHealth::default();
        h.record_unclean(&policy, 40);
        h.record_unclean(&policy, 40);
        let hot = h.threat_score();
        for _ in 0..64 {
            h.record_clean(&policy);
        }
        assert!(h.threat_score() < hot);
        assert_eq!(h.threat, ThreatLevel::None, "score decays below low");
        assert!(h.throttled, "the latched throttle waits for parole");
    }

    #[test]
    fn parole_restores_dispatch_then_full_share() {
        let cfg = AdaptiveConfig {
            parole_batches: 2,
            ..AdaptiveConfig::default()
        };
        let policy = SupervisorPolicy::graded(cfg);
        let mut h = CoreHealth::default();
        for _ in 0..4 {
            h.record_unclean(&policy, 40);
        }
        assert!(h.quarantined);
        assert_eq!(h.note_batch_end(&policy), None, "the dirty batch itself");
        assert_eq!(h.note_batch_end(&policy), None, "one clean batch");
        assert_eq!(h.note_batch_end(&policy), Some(Parole::Dispatch));
        assert!(!h.quarantined);
        assert!(h.throttled, "parolees re-enter dispatch at half share");
        assert_eq!(h.note_batch_end(&policy), None);
        assert_eq!(h.note_batch_end(&policy), Some(Parole::Full));
        assert!(!h.throttled);
    }

    #[test]
    fn unclean_batches_reset_the_parole_clock_and_zeroize_blocks_it() {
        let cfg = AdaptiveConfig {
            parole_batches: 2,
            ..AdaptiveConfig::default()
        };
        let policy = SupervisorPolicy::graded(cfg);
        let mut h = CoreHealth::default();
        h.record_unclean(&policy, 0);
        h.record_unclean(&policy, 0);
        assert!(h.throttled);
        assert_eq!(h.note_batch_end(&policy), None);
        h.record_unclean(&policy, 0); // dirty batch: clock restarts
        assert_eq!(h.note_batch_end(&policy), None);
        assert_eq!(h.clean_batches, 0);
        // A zeroized core never paroles.
        let mut z = CoreHealth {
            zeroize_ordered: true,
            quarantined: true,
            ..CoreHealth::default()
        };
        for _ in 0..10 {
            assert_eq!(z.note_batch_end(&policy), None);
        }
        assert!(z.quarantined);
    }

    #[test]
    fn reinstatement_wipes_the_ladder() {
        let policy = SupervisorPolicy::default();
        let mut h = CoreHealth::default();
        for _ in 0..6 {
            h.record_unclean(&policy, 25);
        }
        assert!(h.quarantined);
        h.reinstated();
        assert_eq!(h, CoreHealth::default());
    }
}
