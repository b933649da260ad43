//! The word hasher for maps whose keys the process itself assigns.
//!
//! SipHash, std's default, is keyed so that a client cannot choose keys
//! that collide; for keys that are ids, addresses or packed words no
//! client picks, it is most of the cost of a probe. Maps keyed by client
//! bytes (a shape table fed by the daemon's ingest) keep std's hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher over whole words (the Fx hash). Equality, not
/// the hash, decides every lookup of a map that uses it.
#[derive(Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Builds [`WordHasher`]s: `HashMap<K, V, Words>`.
pub type Words = BuildHasherDefault<WordHasher>;
