//! Runtime workload management for multicore network processors — the
//! paper's "Dynamics" requirement.
//!
//! "Multiple processor cores and their monitors need to be managed and
//! reprogrammed at runtime as network traffic and network functionality
//! change" (paper §1). The paper defers the *when* to prior work on
//! runtime task allocation (Wu & Wolf, TPDS 2012) and solves the *how*
//! (secure installation). This module supplies a minimal version of the
//! missing substrate: a [`WorkloadManager`] that tracks per-application
//! demand, computes a proportional core allocation (largest-remainder
//! method), plans minimal reassignments, and drives the secure
//! installation path for every core whose application changes.

use crate::entities::{NetworkOperator, RouterDevice};
use crate::SdmmonError;
use sdmmon_isa::asm::Program;
use sdmmon_rng::RngCore;
use std::collections::BTreeMap;

/// A registered packet-processing application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Unique application name.
    pub name: String,
    /// The application binary (assembled program).
    pub program: Program,
}

/// Demand-driven core allocator + reprogramming driver.
///
/// # Examples
///
/// ```
/// use sdmmon_core::workload::WorkloadManager;
/// use sdmmon_npu::programs;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut manager = WorkloadManager::new();
/// manager.register("ipv4", programs::ipv4_forward()?)?;
/// manager.register("ipv4cm", programs::ipv4_cm()?)?;
/// manager.record_demand("ipv4", 300)?;
/// manager.record_demand("ipv4cm", 100)?;
/// // 4 cores split 3:1 by observed demand.
/// assert_eq!(manager.allocation(4), vec!["ipv4", "ipv4", "ipv4", "ipv4cm"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct WorkloadManager {
    apps: Vec<AppSpec>,
    demand: BTreeMap<String, u64>,
    /// The manager's view of what runs on each core of the managed router.
    assigned: Vec<Option<String>>,
}

impl WorkloadManager {
    /// Creates an empty manager.
    pub fn new() -> WorkloadManager {
        WorkloadManager::default()
    }

    /// Registers an application.
    ///
    /// # Errors
    ///
    /// Returns [`SdmmonError::MalformedPackage`] (reused as a validation
    /// error) when the name is already taken or the program is empty.
    pub fn register(&mut self, name: &str, program: Program) -> Result<(), SdmmonError> {
        if self.apps.iter().any(|a| a.name == name) {
            return Err(SdmmonError::MalformedPackage(format!(
                "application `{name}` already registered"
            )));
        }
        if program.words.is_empty() {
            return Err(SdmmonError::MalformedPackage(format!(
                "application `{name}` has an empty binary"
            )));
        }
        self.demand.insert(name.to_owned(), 0);
        self.apps.push(AppSpec {
            name: name.to_owned(),
            program,
        });
        Ok(())
    }

    /// Registered application names, in registration order.
    pub fn apps(&self) -> impl Iterator<Item = &str> {
        self.apps.iter().map(|a| a.name.as_str())
    }

    /// Adds observed traffic demand (e.g. packets seen) for an application.
    ///
    /// # Errors
    ///
    /// Returns an error for unregistered applications.
    pub fn record_demand(&mut self, name: &str, packets: u64) -> Result<(), SdmmonError> {
        match self.demand.get_mut(name) {
            Some(d) => {
                *d += packets;
                Ok(())
            }
            None => Err(SdmmonError::MalformedPackage(format!(
                "unknown application `{name}`"
            ))),
        }
    }

    /// Exponentially decays all recorded demand (call once per epoch so
    /// the allocation tracks *recent* traffic).
    pub fn decay_demand(&mut self) {
        for d in self.demand.values_mut() {
            *d /= 2;
        }
    }

    /// Computes the target allocation for `cores` cores: proportional to
    /// demand by the largest-remainder method, deterministic, and sorted so
    /// equal-demand ties go to the earlier-registered application. With no
    /// demand at all, every core runs the first registered application.
    ///
    /// # Panics
    ///
    /// Panics if no application is registered or `cores == 0`.
    pub fn allocation(&self, cores: usize) -> Vec<&str> {
        assert!(!self.apps.is_empty(), "no applications registered");
        assert!(cores > 0, "need at least one core");
        let total: u64 = self.demand.values().sum();
        if total == 0 {
            return vec![self.apps[0].name.as_str(); cores];
        }
        // Largest remainder (Hamilton): floor shares, then distribute the
        // remaining cores by descending fractional part.
        let mut shares: Vec<(usize, u64, u64)> = self
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let d = self.demand[&a.name];
                let num = d * cores as u64;
                (i, num / total, num % total)
            })
            .collect();
        let allocated: u64 = shares.iter().map(|&(_, f, _)| f).sum();
        let mut leftover = cores as u64 - allocated;
        // Order by remainder desc, then registration order for stability.
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by(|&x, &y| shares[y].2.cmp(&shares[x].2).then(x.cmp(&y)));
        for &idx in &by_remainder {
            if leftover == 0 {
                break;
            }
            if shares[idx].2 > 0 {
                shares[idx].1 += 1;
                leftover -= 1;
            }
        }
        // If rounding still left cores (all remainders zero), give them to
        // the highest-demand app.
        if leftover > 0 {
            let top = shares
                .iter()
                .enumerate()
                .max_by_key(|(_, &(i, f, _))| (self.demand[&self.apps[i].name], f, usize::MAX - i))
                .map(|(pos, _)| pos)
                .expect("apps non-empty");
            shares[top].1 += leftover;
        }
        let mut out = Vec::with_capacity(cores);
        for &(i, count, _) in &shares {
            for _ in 0..count {
                out.push(self.apps[i].name.as_str());
            }
        }
        debug_assert_eq!(out.len(), cores);
        out
    }

    /// The manager's current view of per-core assignments.
    pub fn assignments(&self) -> &[Option<String>] {
        &self.assigned
    }

    /// Plans the minimal set of `(core, app)` changes to move from the
    /// current assignment to the target allocation for `cores` cores.
    pub fn plan(&self, cores: usize) -> Vec<(usize, String)> {
        let target = self.allocation(cores);
        // Count how many cores each app should run vs currently runs.
        let mut need: BTreeMap<&str, i64> = BTreeMap::new();
        for app in &target {
            *need.entry(app).or_insert(0) += 1;
        }
        let mut current = self.assigned.clone();
        current.resize(cores, None);
        // Keep cores already running an app that still needs instances.
        let mut keep = vec![false; cores];
        for (core, assigned) in current.iter().enumerate() {
            if let Some(app) = assigned {
                if let Some(n) = need.get_mut(app.as_str()) {
                    if *n > 0 {
                        *n -= 1;
                        keep[core] = true;
                    }
                }
            }
        }
        // Assign remaining requirements to the freed cores in order.
        let mut changes = Vec::new();
        let mut free: Vec<usize> = (0..cores).filter(|&c| !keep[c]).collect();
        free.reverse(); // pop from the front
        for (app, n) in need {
            for _ in 0..n {
                let core = free.pop().expect("free cores match remaining need");
                changes.push((core, app.to_owned()));
            }
        }
        changes.sort_unstable();
        changes
    }

    /// Applies the plan to a real router through the secure installation
    /// path: one freshly parameterized package per application that gains
    /// cores. Returns the performed `(core, app)` changes.
    ///
    /// # Errors
    ///
    /// Propagates packaging/installation failures; the manager's view is
    /// only updated for cores whose installation succeeded.
    pub fn reconcile<R: RngCore + ?Sized>(
        &mut self,
        operator: &NetworkOperator,
        router: &mut RouterDevice,
        rng: &mut R,
    ) -> Result<Vec<(usize, String)>, SdmmonError> {
        let cores = router.np().num_cores();
        let changes = self.plan(cores);
        self.assigned.resize(cores, None);
        // Group changed cores per app so one package programs all of them.
        let mut per_app: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (core, app) in &changes {
            per_app.entry(app.as_str()).or_default().push(*core);
        }
        for (app, cores) in per_app {
            let spec = self
                .apps
                .iter()
                .find(|a| a.name == app)
                .expect("plan only names registered apps");
            let bundle = operator.prepare_package(&spec.program, router.public_key(), rng)?;
            router.install_bundle(&bundle, &cores)?;
            for &core in &cores {
                self.assigned[core] = Some(app.to_owned());
            }
        }
        Ok(changes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::Manufacturer;
    use sdmmon_npu::programs::{self, testing};
    use sdmmon_npu::runtime::Verdict;
    use sdmmon_rng::SeedableRng;

    fn manager() -> WorkloadManager {
        let mut m = WorkloadManager::new();
        m.register("ipv4", programs::ipv4_forward().unwrap())
            .unwrap();
        m.register("ipv4cm", programs::ipv4_cm().unwrap()).unwrap();
        m
    }

    #[test]
    fn registration_validates() {
        let mut m = manager();
        assert!(
            m.register("ipv4", programs::ipv4_forward().unwrap())
                .is_err(),
            "duplicate"
        );
        assert!(m.record_demand("nope", 1).is_err(), "unknown app");
        assert_eq!(m.apps().collect::<Vec<_>>(), vec!["ipv4", "ipv4cm"]);
    }

    #[test]
    fn no_demand_defaults_to_first_app() {
        let m = manager();
        assert_eq!(m.allocation(3), vec!["ipv4"; 3]);
    }

    #[test]
    fn allocation_is_proportional() {
        let mut m = manager();
        m.record_demand("ipv4", 750).unwrap();
        m.record_demand("ipv4cm", 250).unwrap();
        let alloc = m.allocation(4);
        assert_eq!(alloc.iter().filter(|a| **a == "ipv4").count(), 3);
        assert_eq!(alloc.iter().filter(|a| **a == "ipv4cm").count(), 1);
    }

    #[test]
    fn largest_remainder_rounds_sensibly() {
        let mut m = manager();
        m.register("third", programs::vulnerable_forward().unwrap())
            .unwrap();
        m.record_demand("ipv4", 100).unwrap();
        m.record_demand("ipv4cm", 100).unwrap();
        m.record_demand("third", 100).unwrap();
        // 4 cores for 3 equal apps: 1 each + 1 by remainder (earliest app).
        let alloc = m.allocation(4);
        for app in ["ipv4", "ipv4cm", "third"] {
            assert!(
                alloc.iter().filter(|a| **a == app).count() >= 1,
                "{app} starved"
            );
        }
        assert_eq!(alloc.len(), 4);
    }

    #[test]
    fn tiny_demand_does_not_starve_total_allocation() {
        let mut m = manager();
        m.record_demand("ipv4", 1_000_000).unwrap();
        m.record_demand("ipv4cm", 1).unwrap();
        let alloc = m.allocation(2);
        assert_eq!(alloc.len(), 2);
        assert_eq!(alloc.iter().filter(|a| **a == "ipv4").count(), 2);
    }

    #[test]
    fn decay_halves_demand() {
        let mut m = manager();
        m.record_demand("ipv4", 100).unwrap();
        m.decay_demand();
        m.record_demand("ipv4cm", 50).unwrap();
        // Equal now: 50 vs 50 → split 1/1 on two cores.
        let alloc = m.allocation(2);
        assert_eq!(alloc.iter().filter(|a| **a == "ipv4").count(), 1);
    }

    #[test]
    fn plan_minimizes_churn() {
        let mut m = manager();
        m.record_demand("ipv4", 300).unwrap();
        m.record_demand("ipv4cm", 100).unwrap();
        // Pretend all 4 cores already run ipv4.
        m.assigned = vec![Some("ipv4".into()); 4];
        let plan = m.plan(4);
        // Target is 3x ipv4 + 1x ipv4cm: exactly one core changes.
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].1, "ipv4cm");
    }

    #[test]
    fn reconcile_drives_secure_reprogramming() {
        let mut rng = sdmmon_rng::StdRng::seed_from_u64(0xD17);
        let manufacturer = Manufacturer::new("m", 512, &mut rng).unwrap();
        let mut operator = crate::entities::NetworkOperator::new("op", 512, &mut rng).unwrap();
        operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
        let mut router = manufacturer
            .provision_router("r", 4, 512, &mut rng)
            .unwrap();
        let mut m = manager();

        // Epoch 1: all traffic is plain IPv4.
        m.record_demand("ipv4", 1000).unwrap();
        let changes = m.reconcile(&operator, &mut router, &mut rng).unwrap();
        assert_eq!(changes.len(), 4, "all cores programmed initially");
        let packet = testing::ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], 64, b"x");
        assert_eq!(router.process(&packet).1.verdict, Verdict::Forward(2));

        // Epoch 2: CM traffic appears; half the cores move over.
        m.decay_demand();
        m.record_demand("ipv4cm", 500).unwrap();
        let changes = m.reconcile(&operator, &mut router, &mut rng).unwrap();
        assert_eq!(
            changes.len(),
            2,
            "minimal churn: two cores switch, got {changes:?}"
        );
        for (_, app) in &changes {
            assert_eq!(app, "ipv4cm");
        }
        // Every core still forwards correctly under its monitor.
        for core in 0..4 {
            assert_eq!(
                router.process_on(core, &packet).verdict,
                Verdict::Forward(2)
            );
        }
        assert_eq!(router.np().stats().violations, 0);

        // Re-reconciling without demand change is a no-op.
        let changes = m.reconcile(&operator, &mut router, &mut rng).unwrap();
        assert!(changes.is_empty(), "steady state: {changes:?}");
    }
}
