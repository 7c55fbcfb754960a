//! A fixed machine-speed probe. On a shared virtual machine the same
//! binary can run up to twice as slow for minutes at a time when
//! neighbours are busy, and that drift, not the program, would set the
//! spread between runs. The probe is a fixed amount of the same kinds of
//! work the proof pipeline does (hash-consing into a hash table, pointer
//! chasing through the interned nodes, string building and sorting),
//! written here so that no change to the program can change it. Its
//! median time over a run gives the host's speed during that run.
//!
//! Each call allocates its buffers afresh, as each measured child process
//! does: a probe reusing already-touched buffers tracked the pipeline's
//! slowdowns worse.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

/// The probe's duration on the reference host the time metrics are
/// scaled to (seconds). A time metric reads as it would on a host where
/// the probe takes exactly this long.
pub const REFERENCE_S: f64 = 0.13;

/// Probes taken between two repetitions. The host's speed swings by 20%
/// or more from one second to the next, so a run needs many probes for
/// their median to be as steady as the median of its repetitions.
pub const PER_GAP: usize = 2;

/// FNV-1a, so the table's layout is the same in every process.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type Table = HashMap<(u32, u32, u32), u32, BuildHasherDefault<Fnv>>;

/// One pass of the probe's work; returns a checksum so nothing is
/// optimised away.
fn work() -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    // Hash-consing: nodes (tag, left, right) interned to dense ids.
    let mut table = Table::default();
    let mut nodes: Vec<(u32, u32, u32)> = Vec::new();
    for i in 0..600_000u32 {
        let r = next();
        let n = nodes.len() as u32;
        let key = if n < 2 {
            (i % 7, 0, 0)
        } else {
            ((r % 7) as u32, (r >> 8) as u32 % n, (r >> 32) as u32 % n)
        };
        if let Entry::Vacant(slot) = table.entry(key) {
            slot.insert(n);
            nodes.push(key);
        }
    }
    // Pointer chasing: bounded walks down the interned DAG.
    let mut sum = 0u64;
    for _ in 0..120_000 {
        let mut at = (next() as usize) % nodes.len();
        for _ in 0..24 {
            let (tag, l, r) = nodes[at];
            sum = sum.wrapping_add(u64::from(tag));
            at = if sum & 1 == 0 { l } else { r } as usize;
        }
    }
    // Strings: render, sort and compare, as scripts and prompts are.
    let mut texts: Vec<String> = nodes
        .iter()
        .take(120_000)
        .map(|(t, l, r)| format!("apply H{t} with ({l} {r})"))
        .collect();
    texts.sort_unstable();
    texts.dedup();
    sum.wrapping_add(texts.len() as u64)
        .wrapping_add(texts.iter().map(|s| s.len() as u64).sum::<u64>())
}

/// Seconds `threads` concurrent copies of the probe take, so that a
/// workload on two workers is compared with the speed of two cores.
pub fn seconds(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(work)).collect();
        for h in handles {
            std::hint::black_box(h.join().unwrap_or(0));
        }
    });
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_deterministic() {
        assert_eq!(work(), work());
        assert!(seconds(1) > 0.0);
    }
}
