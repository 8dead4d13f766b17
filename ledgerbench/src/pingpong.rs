//! `mplite_pingpong`: real round trips between two in-process mplite
//! ranks over loopback TCP, alternating blocks of 8 B and 1 MiB
//! messages, every echo checked byte for byte.

use std::time::{Duration, Instant};

use mplite::{Comm, Universe, ANY_TAG};
use simcore::SimRng;

/// Small-message size, bytes.
pub const SMALL: usize = 8;
/// Large-message size, bytes.
pub const LARGE: usize = 1 << 20;
/// Round trips per small block.
pub const SMALL_BLOCK: usize = 200;
/// Round trips per large block.
pub const LARGE_BLOCK: usize = 4;

const TAG_SMALL: i32 = 1;
const TAG_LARGE: i32 = 2;
const TAG_STOP: i32 = 3;

/// Seeded payload pools the blocks cycle through.
pub struct Payloads {
    /// Distinct 8 B payloads.
    pub small: Vec<Vec<u8>>,
    /// Distinct 1 MiB payloads.
    pub large: Vec<Vec<u8>>,
}

impl Payloads {
    /// Payloads drawn from `seed`.
    pub fn new(seed: u64) -> Payloads {
        let mut rng = SimRng::new(seed);
        let mut draw = |len: usize| -> Vec<u8> { (0..len).map(|_| rng.next_u64() as u8).collect() };
        Payloads {
            small: (0..64).map(|_| draw(SMALL)).collect(),
            large: (0..2).map(|_| draw(LARGE)).collect(),
        }
    }
}

/// Per-call timings of one round trip, taken on rank 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Host ns inside `Comm::send`.
    pub send_ns: u64,
    /// Host ns inside `Comm::recv` once the echo has arrived.
    pub recv_ns: u64,
}

/// What one block of round trips measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    /// Round trips completed with a correct echo.
    pub ok: u64,
    /// Round trips that failed or echoed wrong bytes.
    pub failed: u64,
    /// Host ns for the whole block.
    pub ns: u64,
    /// Allocations during the block, all threads.
    pub allocs: u64,
}

/// Rank 0's side of one round trip. With `spans`, the echo is awaited
/// with `probe` so that `recv` is timed without the wait; the waiting
/// thread sleeps between probes rather than spinning, so that it does
/// not take a core from the threads that carry the echo.
fn roundtrip(
    comm: &Comm,
    tag: i32,
    payload: &[u8],
    spans: Option<&mut Spans>,
) -> Result<bool, mplite::MpError> {
    match spans {
        None => {
            comm.send(1, tag, payload)?;
            let (echo, _) = comm.recv(1, tag)?;
            Ok(*echo == *payload)
        }
        Some(sp) => {
            let t0 = Instant::now();
            comm.send(1, tag, payload)?;
            sp.send_ns = t0.elapsed().as_nanos() as u64;
            while comm.probe(1, tag).is_none() {
                std::thread::sleep(Duration::from_micros(10));
            }
            let t1 = Instant::now();
            let (echo, _) = comm.recv(1, tag)?;
            sp.recv_ns = t1.elapsed().as_nanos() as u64;
            Ok(*echo == *payload)
        }
    }
}

/// Run a block of `count` round trips of `pool` payloads (starting at
/// pool index `start`), pushing each RTT in ns to `rtts` and, when
/// `spans` is given, each call's spans to it. Stops early on the first
/// transport error.
pub fn block(
    comm: &Comm,
    large: bool,
    pool: &[Vec<u8>],
    start: usize,
    count: usize,
    rtts: &mut Vec<f64>,
    mut spans: Option<&mut Vec<Spans>>,
) -> Block {
    let tag = if large { TAG_LARGE } else { TAG_SMALL };
    let mut b = Block::default();
    let a0 = crate::alloc::allocs();
    let t0 = Instant::now();
    for i in 0..count {
        let payload = &pool[(start + i) % pool.len()];
        let mut sp = Spans::default();
        let t = Instant::now();
        let res = roundtrip(comm, tag, payload, spans.as_ref().map(|_| &mut sp));
        let rtt = t.elapsed().as_nanos() as f64;
        match res {
            Ok(true) => {
                b.ok += 1;
                if rtts.len() < rtts.capacity() {
                    rtts.push(rtt);
                }
                if let Some(s) = spans.as_deref_mut() {
                    if s.len() < s.capacity() {
                        s.push(sp);
                    }
                }
            }
            Ok(false) => b.failed += 1,
            Err(_) => {
                b.failed += 1;
                break;
            }
        }
    }
    b.ns = t0.elapsed().as_nanos() as u64;
    b.allocs = crate::alloc::allocs() - a0;
    b
}

/// Rank 1: echo every message back on its tag until told to stop or
/// the peer goes away.
pub fn echo(comm: &Comm) {
    while let Ok((data, status)) = comm.recv(0, ANY_TAG) {
        if status.tag == TAG_STOP || comm.send(0, status.tag, &data).is_err() {
            break;
        }
    }
}

/// Tell rank 1 to stop echoing.
pub fn stop(comm: &Comm) {
    // A failed stop means rank 1 is already gone; dropping the comm
    // ends its loop either way.
    let _ = comm.send(1, TAG_STOP, &[]);
}

/// The workload's set-up: a two-rank universe, ready to send.
pub fn setup() -> Vec<Comm> {
    Universe::local(2).expect("a two-rank loopback universe boots")
}

/// Run `f` on rank 0 while rank 1 echoes, each on its own thread, and
/// return `f`'s result once both have finished.
pub fn with_ranks<T: Send>(comms: Vec<Comm>, f: impl FnOnce(&Comm) -> T + Send) -> T {
    let mut comms = comms.into_iter();
    let (c0, c1) = match (comms.next(), comms.next()) {
        (Some(c0), Some(c1)) => (c0, c1),
        _ => panic!("a two-rank universe has two comms"),
    };
    std::thread::scope(|s| {
        let peer = s.spawn(move || echo(&c1));
        let driver = s.spawn(move || {
            let out = f(&c0);
            stop(&c0);
            out
        });
        let out = driver.join().expect("rank 0 thread panicked");
        peer.join().expect("rank 1 thread panicked");
        out
    })
}

/// OS threads of this process (Linux; 0 where `/proc` is absent).
pub fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}
