//! Deterministic allocation budgets. A counting global allocator makes the
//! bytes a code path allocates an exact function of the code and its
//! inputs, so a regression fails on every run, not on the runs where the
//! host happens to be slow. The binary holds one test, so nothing else in
//! the process allocates while it counts.

use sdmmon::core::distrib::{deploy_fleet, FleetDeployConfig};
use sdmmon::npu::np::NetworkProcessor;
use sdmmon::npu::programs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the bytes of every allocation, and of every reallocation's new
/// size, before handing the call to the system allocator.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated while `f` runs, and its result.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, out)
}

const KIB: u64 = 1024;

/// A router's core memory is a 1 MiB buffer: a fleet deploy must not
/// allocate one per router, and a network processor built after another
/// was dropped must not allocate one per core.
#[test]
fn fleet_deploys_and_np_rebuilds_stay_within_allocation_budgets() {
    let program = programs::ipv4_forward().expect("embedded workload assembles");
    let deploy_bytes = |routers: usize| {
        let config = FleetDeployConfig {
            routers,
            relays: 4,
            key_pool: 8,
            ..FleetDeployConfig::default()
        };
        let run = || deploy_fleet(&config, &program, 27, None).expect("deploy");
        let warm = run();
        let (bytes, report) = allocated_by(run);
        assert_eq!(report.installed, routers);
        assert_eq!(report.installed, warm.installed);
        bytes
    };
    let (small, large) = (deploy_bytes(64), deploy_bytes(256));
    let per_router = large.saturating_sub(small) / (256 - 64);
    assert!(
        per_router <= 256 * KIB,
        "deploy_fleet allocates {per_router} bytes per added router \
         ({small} bytes for 64 routers, {large} for 256)"
    );

    drop(NetworkProcessor::new(8));
    let (np_bytes, np) = allocated_by(|| NetworkProcessor::new(8));
    drop(np);
    assert!(
        np_bytes < 256 * KIB,
        "NetworkProcessor::new(8) after a dropped 8-core NP allocates {np_bytes} bytes"
    );
}
