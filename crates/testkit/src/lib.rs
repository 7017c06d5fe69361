//! # sdmmon-testkit — deterministic fault injection & adversarial campaigns
//!
//! The reproduction's security claims are statements about *populations* of
//! attacks and faults: escape probability falls as 16⁻ᵏ, every wire-level
//! tamper is rejected with the error of the security requirement it
//! violates, recovery restores service after arbitrary instruction-memory
//! corruption. One hand-written test per claim exercises one point of each
//! population; this crate mass-produces the rest.
//!
//! Three layers, all driven by `sdmmon-rng` so an entire campaign replays
//! byte-for-byte from a single `u64` seed:
//!
//! * [`fault`] — the fault-injection primitives: wire-level tampering of
//!   serialized installation bundles (signature/ciphertext/IV bit flips,
//!   foreign key wraps, forged certificates, truncation), live bit flips in
//!   a core's instruction memory, forced mid-run core resets, and packet
//!   mutation.
//! * [`campaign`] — adversarial campaign generators that push attack and
//!   fault variants through the full protocol stack ([`sdmmon_core::system`])
//!   and record detection latency (in retired instructions), escape counts,
//!   and recovery cycles into a strictly accounted [`campaign::Tally`].
//! * [`differential`] — property harnesses asserting that every PR-1 fast
//!   path (parallel deploy, Montgomery/CRT RSA, pre-decoded instruction
//!   cache) stays bit-identical to its in-tree oracle *under injected
//!   faults*, not just on the happy path.
//!
//! [`report::run_campaign`] composes all three into a [`report::CampaignReport`]
//! whose JSON rendering ([`json`]) contains no wall-clock values — two runs
//! with the same seed produce byte-identical reports. The `sdmmon campaign`
//! CLI subcommand is a thin wrapper around it.
//!
//! # Examples
//!
//! ```
//! use sdmmon_testkit::campaign::CampaignConfig;
//! use sdmmon_testkit::report::run_campaign;
//!
//! let config = CampaignConfig::new(7).with_budget(40).with_escape_trials(500);
//! let report = run_campaign(&config).expect("campaign runs");
//! report.verify_accounting().expect("every trial accounted for");
//! let again = run_campaign(&config).expect("campaign replays");
//! assert_eq!(report.to_json(), again.to_json(), "seeded replay is exact");
//! ```

pub mod campaign;
pub mod differential;
pub mod fault;
pub mod fleet;
pub mod frontier;
pub mod json;
pub mod report;

pub use campaign::{CampaignConfig, CampaignOutcome, EscapeRow, Tally};
pub use differential::DifferentialReport;
pub use fault::{WireFault, WireFaultInjector};
pub use fleet::{fleet_report_json, FLEET_SCHEMA};
pub use frontier::{
    frontier_json, frontier_table, run_frontier, FrontierCell, FrontierConfig, FrontierReport,
    FRONTIER_SCHEMA,
};
pub use report::{run_campaign, CampaignReport};
