//! The paper's Fig. 4: corrupting a steering CAN message in flight,
//! including the checksum repair that keeps the receiving ECU from dropping
//! the frame.
//!
//! ```bash
//! cargo run --example can_spoof
//! ```

use canbus::{decode, rewrite_signal, CanBus, CanFrame, Encoder, VirtualCarDbc, STEER_ANGLE_CMD};
use units::Tick;

fn main() -> Result<(), canbus::CanError> {
    let dbc = VirtualCarDbc::new();
    let steer = dbc.steering_control();
    let mut enc = Encoder::new();

    // The ADAS encodes a benign 0.11 degree steering command on id 0xE4.
    let original = enc.encode(steer, &[("STEER_ANGLE_CMD", 0.11), ("STEER_REQ", 1.0)])?;
    println!("original frame   : {original}");
    println!("  decoded        : {:?}\n", decode(steer, &original)?);

    // A naive attacker flips the angle bytes without touching the checksum…
    let mut naive = original;
    let spoofed = enc.encode(steer, &[("STEER_ANGLE_CMD", 0.5)])?;
    naive.data_mut()[..2].copy_from_slice(&spoofed.data()[..2]);
    println!("naive corruption : {naive}");
    println!(
        "  receiver says  : {:?}\n",
        decode(steer, &naive).unwrap_err()
    );

    // …while the paper's attacker rewrites the signal *and* recomputes the
    // checksum, so the frame still verifies (Fig. 4).
    let attacked = rewrite_signal(steer, &original, &STEER_ANGLE_CMD, 0.5)?;
    println!("strategic rewrite: {attacked}");
    println!("  decoded        : {:?}", decode(steer, &attacked)?);
    println!(
        "  counter kept   : {}",
        decode(steer, &attacked)?["COUNTER"]
    );

    // The same thing through the bus-level man-in-the-middle hook.
    let mut bus = CanBus::new();
    bus.install_interceptor(Box::new(move |_t: Tick, f: CanFrame| {
        if f.id() == 0xE4 {
            rewrite_signal(
                &VirtualCarDbc::new().steering_control().clone(),
                &f,
                &STEER_ANGLE_CMD,
                0.5,
            )
            .unwrap_or(f)
        } else {
            f
        }
    }));
    let benign = enc.encode(steer, &[("STEER_ANGLE_CMD", 0.11)])?;
    bus.send(Tick::ZERO, benign);
    let delivered = bus.deliver(Tick::ZERO);
    println!("\nvia bus MITM     : {}", delivered[0]);
    println!(
        "  angle at ECU   : {} deg (was 0.11)",
        decode(steer, &delivered[0])?["STEER_ANGLE_CMD"]
    );
    println!("  bus stats      : {:?}", bus.stats());
    Ok(())
}
