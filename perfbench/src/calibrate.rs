//! Host-speed calibration: a fixed kernel that shares no code with the
//! program, timed around every campaign repetition.
//!
//! On a shared VM the host's speed wanders by a third within minutes,
//! far more than the bounds a regression is judged by. The kernel slows
//! down with the host, so a campaign's wall time divided by the kernel's
//! time around it stays put while the program does, and moves when the
//! program changes.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel takes on the reference host, about the 2-vCPU x86-64
/// VM the baseline was measured on. A normalised time is the wall time
/// scaled by this ÷ the kernel's measured time: what the campaign would
/// take on a host where the kernel takes this long.
pub const REFERENCE_S: f64 = 0.06;

/// xorshift steps each thread takes per run of the kernel.
const STEPS: u32 = 8_000_000;

/// Times one run of the kernel on `threads` threads, in seconds. Each
/// thread walks a private 64 KiB table with a xorshift generator, mixing
/// loads, stores and unpredictable branches like the simulator's hot loop.
pub fn kernel_s(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            scope.spawn(move || {
                let mut table = vec![0u32; 1 << 14];
                let mut x = 0x9e37_79b9_7f4a_7c15 ^ t;
                let mut acc = 0u64;
                for _ in 0..STEPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x >> 20) as usize & (table.len() - 1);
                    if x & 1 == 0 {
                        table[i] = table[i].wrapping_add(x as u32);
                    } else {
                        acc = acc.wrapping_add(u64::from(table[i]));
                    }
                }
                black_box((acc, &table));
            });
        }
    });
    start.elapsed().as_secs_f64()
}
