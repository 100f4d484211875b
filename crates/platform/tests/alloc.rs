//! Proves the ISSUE 3 acceptance criterion mechanically: after warm-up,
//! `Harness::step` performs **zero heap allocations** on a steady-state
//! (no-trace, no-collision) tick.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counting is
//! armed only around the measured window so test-harness bookkeeping and
//! warm-up growth (msgbus ring, encoder counter map, reused frame/alert
//! buffers reaching their high-water capacity) are excluded — exactly the
//! once-per-run costs the hot-path overhaul amortizes away.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use platform::{DefensePolicy, Harness, HarnessConfig};
use units::{Distance, Seconds};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// An integration test is a separate crate, so the workspace lib crates'
// `#![forbid(unsafe_code)]` does not apply; the unsafety is confined to
// delegating to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Single test so the global counters see exactly one measured window per
/// harness (plain, fault-injected, attacked + faulted + defended, and
/// attacked past the driver's takeover, armed back to back).
#[test]
fn steady_state_tick_does_not_touch_the_heap() {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let cfg = HarnessConfig::no_attack(scenario, 3);
    let mut harness = Harness::new(cfg);

    // A second harness with the fault engine active through the whole
    // measured window: degradation escalation (and its alerts) happens
    // during warm-up, so the window exercises the faulted sensor path,
    // the CAN fault pass and the fail-safe control branch at steady state.
    let faulted_cfg = HarnessConfig::no_attack(scenario, 3).with_faults(FaultSchedule::single(
        FaultSpec::window(FaultKind::SensorDropout, FaultTarget::All, 50, 20_000),
    ));
    let mut faulted = Harness::new(faulted_cfg);

    // A third with everything attached at once: an attacker, a sensor
    // noise window and the Degrade defense (plausibility gates, CAN IDS,
    // invariant detector and context monitor).
    let defended_cfg = HarnessConfig::with_attack(scenario, 3, AttackConfig::default())
        .with_faults(FaultSchedule::single(
            FaultSpec::window(FaultKind::SensorNoiseBurst, FaultTarget::All, 50, 20_000)
                .with_intensity(0.5),
        ))
        .with_defense(DefensePolicy::Degrade);
    let mut defended = Harness::new(defended_cfg);

    // A fourth, attacked but fault-free and undefended: a fixed
    // deceleration window from 1 s makes the driver take over within the
    // warm-up, so the measured window runs the disengaged tick.
    let takeover_attack = AttackConfig {
        attack_type: AttackType::Deceleration,
        strategy: StrategyKind::RandomStDur,
        value_mode: ValueMode::Fixed,
        window_override: Some((Seconds::new(1.0), Seconds::new(3.0))),
        ..AttackConfig::default()
    };
    let mut taken_over = Harness::new(HarnessConfig::with_attack(scenario, 3, takeover_attack));

    // Warm-up: let every reused buffer reach its high-water mark (the
    // encoder's counter map fills on the first engaged tick; the msgbus
    // ring and the drain scratch buffers stabilize within a few ticks).
    for _ in 0..500 {
        harness.step();
        faulted.step();
        defended.step();
        taken_over.step();
    }
    assert!(
        taken_over.result_so_far().driver_engaged.is_some(),
        "the driver took over during the warm-up"
    );

    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..1_000 {
        harness.step();
        faulted.step();
        defended.step();
        taken_over.step();
    }
    ARMED.store(false, Ordering::SeqCst);
    assert!(
        taken_over.world().collision().is_none(),
        "the post-takeover window ran the disengaged tick, not frozen ones"
    );

    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state Harness::step must not allocate, with or without \
         faults, attack, defenses or a driver takeover ({allocs} allocs, \
         {reallocs} reallocs over 1000 ticks)"
    );
}
