//! Counts heap allocations with a counting `#[global_allocator]`, armed
//! only around the measured window and only on the measuring thread, so
//! the test harness's own bookkeeping (and the other test in this binary)
//! is excluded:
//!
//! * after warm-up, `Harness::step` performs **zero heap allocations** on
//!   a steady-state (no-trace, no-collision) tick — warm-up growth (msgbus
//!   ring, encoder counter map, reused frame/alert buffers reaching their
//!   high-water capacity) is the once-per-run cost the hot path amortizes;
//! * `Harness::new` allocates only what its kind of run needs: the CAN
//!   database and the actuator layouts are compile-time data, so wiring a
//!   cell builds no DBC and resolves no signal by name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use platform::{DefensePolicy, Harness, HarnessConfig, TraceConfig};
use units::{Distance, Seconds};

struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if ARMED.with(Cell::get) {
        counter.with(|c| c.set(c.get() + 1));
    }
}

/// Runs `f` with counting armed on this thread; returns its value and the
/// `(allocations, reallocations)` it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let value = f();
    ARMED.with(|a| a.set(false));
    (value, (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get)))
}

// An integration test is a separate crate, so the workspace lib crates'
// `#![forbid(unsafe_code)]` does not apply; the unsafety is confined to
// delegating to the system allocator. The counters are `const`-initialized
// thread-locals without destructors, so reading them never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One measured window over four harnesses stepped back to back (plain,
/// fault-injected, attacked + faulted + defended, and attacked past the
/// driver's takeover).
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

    let ((), (allocs, reallocs)) = counted(|| {
        for _ in 0..1_000 {
            harness.step();
            faulted.step();
            defended.step();
            taken_over.step();
        }
    });
    assert!(
        taken_over.world().collision().is_none(),
        "the post-takeover window ran the disengaged tick, not frozen ones"
    );

    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state Harness::step must not allocate, with or without \
         faults, attack, defenses or a driver takeover ({allocs} allocs, \
         {reallocs} reallocs over 1000 ticks)"
    );
}

/// Wiring a cell allocates only what its kind of run holds, pinned per
/// kind. No kind builds a CAN database or resolves a signal by name: the
/// database and the actuator layouts are `const` data. (When each
/// `CommandEncoder`, Panda and the attack's injector built their own DBC,
/// an attack-free cell made 17 allocations and an attacked one 23.) What
/// is left is the bus, the attacker's state, the fault engine's history
/// ring for a schedule that replays history, and the flight recorder.
#[test]
fn harness_wiring_allocates_only_what_its_kind_needs() {
    let scenario = Scenario::new(ScenarioId::S1, Distance::meters(70.0));
    let plain = HarnessConfig::no_attack(scenario, 3);
    let attacked = HarnessConfig::with_attack(scenario, 3, AttackConfig::default());
    let mut panda = plain;
    panda.panda_enabled = true;
    let dropout = FaultSchedule::single(FaultSpec::window(
        FaultKind::SensorDropout,
        FaultTarget::All,
        50,
        200,
    ));
    let latency = FaultSchedule::single(
        FaultSpec::window(FaultKind::SensorLatency, FaultTarget::Gps, 50, 200).with_delay(3),
    );
    let kinds = [
        ("attack-free", plain, 2),
        ("attacked", attacked, 3),
        ("Panda on", panda, 2),
        ("faulted", plain.with_faults(dropout), 2),
        ("faulted, replaying history", plain.with_faults(latency), 3),
        ("observing defense", plain.with_defense(DefensePolicy::Observe), 2),
        ("acting defense", plain.with_defense(DefensePolicy::Degrade), 2),
        (
            "attacked, faulted, defended",
            attacked.with_faults(dropout).with_defense(DefensePolicy::Degrade),
            3,
        ),
        ("traced", plain.traced(TraceConfig::enabled(64)), 6),
    ];
    for (kind, config, expected) in kinds {
        let (harness, counts) = counted(|| Harness::new(config));
        drop(harness);
        assert_eq!(counts, (expected, 0), "Harness::new, {kind}: (allocations, reallocations)");
    }
}
