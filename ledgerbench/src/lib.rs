//! # ledgerbench — the repository's performance ledger
//!
//! One binary drives three workloads through the workspace crates'
//! public functions and checks every output:
//!
//! * `paper_sweep` — every curve of the paper's figures and tables
//!   (two-rank simulated NetPIPE);
//! * `collective_sim` — a round of three 1024-rank simulated
//!   collectives;
//! * `mplite_pingpong` — real round trips between two in-process mplite
//!   ranks over loopback TCP.
//!
//! An untraced run ([`e2e`]) reports the end-to-end metrics; a traced
//! run ([`ledger`]) times each layer from outside and reports the
//! per-layer metrics. `README.md` in this directory lists them all.

pub mod alloc;
pub mod args;
pub mod coll;
pub mod e2e;
pub mod ledger;
pub mod pingpong;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod tripwires;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut simcore::SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// 64-bit FNV-1a, the digest `collectives::Schedule::digest` uses.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
