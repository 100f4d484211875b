//! Counts heap allocations with a counting `#[global_allocator]`, armed
//! only around the measured window and only on the measuring thread, so
//! the test harness's own bookkeeping (and the other test in this binary)
//! is excluded:
//!
//! * after warm-up, `Harness::step` performs **zero heap allocations** on
//!   a steady-state (no-trace, no-collision) tick, and so does publishing
//!   its traffic to a subscriber drained every tick — warm-up growth
//!   (reused frame/alert buffers, a subscriber's queue and its drain
//!   buffer reaching their high-water capacity) is the once-per-run cost
//!   the hot path amortizes;
//! * `Harness::new` allocates only what its kind of run needs: the CAN
//!   database and the actuator layouts are compile-time data, so wiring a
//!   cell builds no DBC and resolves no signal by name.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use attack_core::{AttackConfig, AttackType, StrategyKind, ValueMode};
use driving_sim::{Scenario, ScenarioId};
use faultinj::{FaultKind, FaultSchedule, FaultSpec, FaultTarget};
use msgbus::{Envelope, Topic};
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

/// One measured window over five harnesses stepped back to back (plain,
/// fault-injected, attacked + faulted + defended, attacked past the
/// driver's takeover, and attacked with every topic tapped).
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

    // A fifth, attacked, with a tap on every topic drained into one reused
    // buffer every tick. The four above have no subscriber, so they never
    // publish; this one publishes the whole tick's traffic, which is the
    // path `Bus::publish`'s allocation claim rests on.
    let mut observed = Harness::new(HarnessConfig::with_attack(
        scenario,
        3,
        AttackConfig::default(),
    ));
    let mut tap = observed.bus().subscribe(&Topic::ALL);
    let mut seen = Vec::<Envelope>::new();

    // Warm-up: let every reused buffer reach its high-water mark. The
    // ADAS output's frame and alert buffers fill on the first engaged
    // ticks, and the tap's queue and drain buffer within the first tick
    // that publishes all six topics.
    for _ in 0..500 {
        harness.step();
        faulted.step();
        defended.step();
        taken_over.step();
        observed.step();
        tap.drain_into(&mut seen);
    }
    assert!(
        taken_over.result_so_far().driver_engaged.is_some(),
        "the driver took over during the warm-up"
    );

    let published_before = observed.bus().published_count();
    let (delivered, (allocs, reallocs)) = counted(|| {
        let mut delivered = 0;
        for _ in 0..1_000 {
            harness.step();
            faulted.step();
            defended.step();
            taken_over.step();
            observed.step();
            delivered += tap.drain_into(&mut seen);
        }
        delivered
    });
    assert!(
        taken_over.world().collision().is_none(),
        "the post-takeover window ran the disengaged tick, not frozen ones"
    );
    assert_eq!(
        delivered as u64,
        observed.bus().published_count() - published_before,
        "the tap drained every message the window published"
    );
    assert!(
        delivered >= 5_000,
        "the observed harness published through most of the window \
         ({delivered} messages)"
    );

    assert_eq!(
        (allocs, reallocs),
        (0, 0),
        "steady-state Harness::step must not allocate, with or without \
         faults, attack, defenses, a driver takeover or a subscriber \
         ({allocs} allocs, {reallocs} reallocs over 1000 ticks)"
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
        (
            "observing defense",
            plain.with_defense(DefensePolicy::Observe),
            2,
        ),
        (
            "acting defense",
            plain.with_defense(DefensePolicy::Degrade),
            2,
        ),
        (
            "attacked, faulted, defended",
            attacked
                .with_faults(dropout)
                .with_defense(DefensePolicy::Degrade),
            3,
        ),
        ("traced", plain.traced(TraceConfig::enabled(64)), 6),
    ];
    for (kind, config, expected) in kinds {
        let (harness, counts) = counted(|| Harness::new(config));
        drop(harness);
        assert_eq!(
            counts,
            (expected, 0),
            "Harness::new, {kind}: (allocations, reallocations)"
        );
    }
}
