//! The simulator's run loop must not allocate once it is warm.
//!
//! The paper's figures come from millions of simulated cycles per run, so
//! `CmpSystem::run` may allocate only while its containers reach their
//! working size. A thread-local counting allocator checks that exactly:
//! each case builds a system, runs it past a warm-up, and then asserts
//! that the next window makes no heap allocation at all. Every
//! reallocation counts, so amortized container growth is caught as well.
//! A second window goes through `CmpSystem::warm_up` and then `run` again,
//! so the untallied settles and picks, the clearing of the epoch counters
//! and the return of the tally are held to the same rule.
//!
//! The cases cover every `Policy` constructor, DDR2-400 under close and
//! open page, DDR2-800 with 8 cores and DDR2-1600 with 16, the LLC on and
//! off, the per-cycle `step` path (`fast_forward: false`), and a run with
//! an observability `Registry` attached. `cargo test` at the workspace
//! root builds this with tracing off; `cargo test --workspace` turns the
//! `bwpart-obs/trace` feature on, so the same cases then run the `obs_*!`
//! instrumentation too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bwpart::cmp::LlcConfig;
use bwpart::prelude::*;

/// Counts the heap allocations (and reallocations) made by each thread.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this never
    // allocates and stays usable while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// bump beside each call touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from our caller, who meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from our caller, who meets `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from our caller, who meets `realloc`'s
        // contract; `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from our caller; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cycles run before the window, long enough for the queues, rings and
/// heaps to reach their working size.
const WARM_UP: u64 = 200_000;

/// The checked window. It is twice the warm-up, so a container that keeps
/// doubling passes a power of two inside it.
const WINDOW: u64 = 400_000;

/// Each half of the second checked window: an untallied `warm_up`, then a
/// `run` that resumes the tally.
const UNTALLIED: u64 = WINDOW / 4;

/// One system configuration of the matrix.
struct Case {
    label: &'static str,
    dram: DramConfig,
    /// Copies of the four-app mix: 1, 2 or 4 for 4, 8 or 16 cores.
    copies: usize,
    llc: bool,
    fast_forward: bool,
    registry: bool,
}

impl Case {
    fn new(label: &'static str, dram: DramConfig, copies: usize) -> Case {
        Case {
            label,
            dram,
            copies,
            llc: false,
            fast_forward: true,
            registry: false,
        }
    }
}

/// Every `Policy` constructor, for `n` applications.
fn policies(n: usize) -> Vec<(&'static str, Policy)> {
    let weights: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let total: f64 = weights.iter().sum();
    vec![
        ("fcfs", Policy::fcfs(n)),
        ("fr_fcfs", Policy::fr_fcfs(n)),
        (
            "stf",
            Policy::stf(weights.iter().map(|w| w / total).collect()),
        ),
        ("priority", Policy::priority(weights)),
        ("parbs", Policy::parbs(n, 5)),
        ("atlas", Policy::atlas(n, 0.9999)),
        ("tcm", Policy::tcm(n, 2000)),
    ]
}

/// Heap allocations made by the window after the warm-up, and by the
/// untallied window and tallied run after it.
fn window_allocations(case: &Case, mix: &Mix, policy: Policy) -> (u64, u64) {
    let cfg = CmpConfig {
        dram: case.dram.clone(),
        fast_forward: case.fast_forward,
        llc: case.llc.then(LlcConfig::default),
        ..CmpConfig::default()
    };
    let (workloads, core_cfgs) = mix.build(case.copies, 7);
    let mut sys = CmpSystem::new(&cfg, workloads, core_cfgs, policy);
    if case.registry {
        sys.attach_obs(&bwpart_obs::Registry::new());
    }
    sys.run(WARM_UP);
    let before = allocations();
    sys.run(WINDOW);
    let tallied = allocations() - before;
    let before = allocations();
    sys.warm_up(UNTALLIED);
    sys.run(UNTALLIED);
    (tallied, allocations() - before)
}

/// Run every policy on every mix under every case; fail with the list of
/// windows that allocated.
fn assert_warm_loops_do_not_allocate(cases: &[Case], mixes: &[Mix]) {
    let mut allocated = Vec::new();
    for case in cases {
        for mix in mixes {
            for (policy_name, policy) in policies(mix.len() * case.copies) {
                let (run, warm_up) = window_allocations(case, mix, policy);
                if run + warm_up != 0 {
                    allocated.push(format!(
                        "{} {} {policy_name}: {run} allocation(s) in run, {warm_up} in \
                         warm_up and the run after it",
                        case.label, mix.name
                    ));
                }
            }
        }
    }
    assert!(
        allocated.is_empty(),
        "the warm run loop allocated:\n{}",
        allocated.join("\n")
    );
}

fn hetero_4() -> Mix {
    mixes::hetero_mixes().remove(3)
}

#[test]
fn four_cores_under_close_and_open_page() {
    assert_warm_loops_do_not_allocate(
        &[
            Case::new("ddr2-400 close", DramConfig::ddr2_400(), 1),
            Case {
                llc: true,
                ..Case::new(
                    "ddr2-400 open + llc",
                    DramConfig {
                        page_policy: PagePolicy::OpenPage,
                        ..DramConfig::ddr2_400()
                    },
                    1,
                )
            },
        ],
        &mixes::hetero_mixes(),
    );
}

#[test]
fn eight_and_sixteen_cores() {
    assert_warm_loops_do_not_allocate(
        &[
            Case::new("ddr2-800 x2", DramConfig::ddr2_800(), 2),
            Case {
                llc: true,
                ..Case::new("ddr2-1600 x4 + llc", DramConfig::ddr2_1600(), 4)
            },
        ],
        &[hetero_4()],
    );
}

#[test]
fn per_cycle_steps_and_an_attached_registry() {
    assert_warm_loops_do_not_allocate(
        &[
            Case {
                fast_forward: false,
                ..Case::new("ddr2-400 close, per-cycle step", DramConfig::ddr2_400(), 1)
            },
            Case {
                registry: true,
                ..Case::new("ddr2-400 close + registry", DramConfig::ddr2_400(), 1)
            },
        ],
        &[hetero_4()],
    );
}
