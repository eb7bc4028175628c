//! The per-job observation rounds' allocation gate: on a converged quiet
//! fleet (one job in twenty busy, the rest settled) a steady metrics round
//! and a steady round of a disabled scaler make no allocation call, at
//! 1 000 and at 4 000 jobs. Each round is called on its own at an instant
//! the schedule is due to call it, before the registry's first compaction
//! (sample 513), from which a compacting series grows its bucket head. The
//! counts are per thread, so other tests' threads cannot disturb them.

use super::{Turbine, TurbineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use turbine_config::JobConfig;
use turbine_types::{Duration, JobId, Resources, SimTime};
use turbine_workloads::TrafficModel;

thread_local! {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialised thread local with no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls `round` makes on `t`.
fn allocation_calls(t: &mut Turbine, round: fn(&mut Turbine)) -> u64 {
    let before = CALLS.with(Cell::get);
    round(t);
    CALLS.with(Cell::get) - before
}

#[test]
fn steady_metrics_and_disabled_scaler_rounds_allocate_nothing() {
    for jobs in [1_000u64, 4_000] {
        let mut t = Turbine::new(TurbineConfig {
            scaler_enabled: false,
            ..TurbineConfig::default()
        });
        t.add_hosts(
            (jobs / 10) as usize,
            Resources::new(56.0, 256.0 * 1024.0, 1.0e6, 1000.0),
        );
        for j in 0..jobs {
            // A busy job keeps up: every reading it publishes holds still.
            let rate = if j % 20 == 0 { 5.0e5 } else { 0.0 };
            t.provision_job(
                JobId(j),
                JobConfig::stateless(&format!("quiet_{j}"), 1, 2),
                TrafficModel::flat(rate),
                1.0e6,
                256.0,
            )
            .expect("provision");
        }
        // Stop one tick short of an instant due both rounds, then run them
        // there as the schedule would.
        let due = SimTime::ZERO + Duration::from_mins(40);
        t.run_until(SimTime::ZERO + (Duration::from_mins(40) - t.config.tick));
        assert_eq!(t.engine.active_jobs(), (jobs / 20) as usize, "converged");
        assert_eq!(t.engine.total_tasks(), jobs as usize, "converged");
        t.now = due;
        let drained = t.scaler_windows_drained;
        assert_eq!(
            allocation_calls(&mut t, Turbine::scaler_round),
            0,
            "{jobs} jobs: a disabled scaler round"
        );
        assert_eq!(
            t.scaler_windows_drained - drained,
            jobs / 20,
            "the busy jobs'"
        );
        assert_eq!(
            allocation_calls(&mut t, Turbine::metrics_round),
            0,
            "{jobs} jobs: a metrics round"
        );
    }
}
