//! Untraced runs: the end-to-end metrics of each workload.

use std::hint::black_box;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use crate::alloc::HeapPhase;
use crate::args::{Args, Workload};
use crate::report::{Metric, Report};
use crate::stats::Quartiles;
use crate::{coll, pingpong, sweep, tripwires};

/// Set-up batches per run; the reported set-up time is their median.
const SETUP_BATCHES: usize = 21;

/// Set-up timing spread over the measured phase: `SETUP_BATCHES`
/// batches of repeated set-ups, one falling due at each of as many even
/// slots of the phase, so that set-up is timed in the same mix of host
/// states as the operations rather than in one short burst. Only the
/// set-up is timed; each result is dropped outside the clock.
pub struct SetupClock<T, F: FnMut() -> T> {
    setup: F,
    per_batch: usize,
    start: Instant,
    phase: Duration,
    per: Vec<f64>,
    _out: PhantomData<fn() -> T>,
}

impl<T, F: FnMut() -> T> SetupClock<T, F> {
    /// A clock for a measured phase of `phase` starting now.
    pub fn new(per_batch: usize, phase: Duration, setup: F) -> Self {
        SetupClock {
            setup,
            per_batch,
            start: Instant::now(),
            phase,
            per: Vec::with_capacity(SETUP_BATCHES),
            _out: PhantomData,
        }
    }

    fn batch(&mut self) {
        let mut total = Duration::ZERO;
        for _ in 0..self.per_batch {
            let t = Instant::now();
            let v = black_box((self.setup)());
            total += t.elapsed();
            drop(v);
        }
        self.per.push(total.as_secs_f64() / self.per_batch as f64);
    }

    /// Time the next batch if its slot has come; returns whether it ran.
    pub fn tick(&mut self) -> bool {
        let slot = self.per.len() as f64 / SETUP_BATCHES as f64;
        let due =
            self.per.len() < SETUP_BATCHES && self.start.elapsed() >= self.phase.mul_f64(slot);
        if due {
            self.batch();
        }
        due
    }

    /// Time the batches whose slots never came, and return the
    /// per-set-up seconds of every batch.
    pub fn finish(mut self) -> Quartiles {
        while self.per.len() < SETUP_BATCHES {
            self.batch();
        }
        Quartiles::of(&self.per)
    }
}

fn setup_metric(q: &Quartiles) -> Metric {
    Metric::new("setup_s", q.median, q)
}

/// Median over operations of each operation's heap high-water mark
/// above its starting level, in MB.
fn heap_metric(peaks: &[f64]) -> Metric {
    let q = Quartiles::of(peaks);
    Metric::new("heap_peak_mb", q.median / 1e6, &q)
}

/// Host time of one whole operation of a simulated workload: the sum
/// over its parts (curves, collectives) of each part's fastest
/// repetition. Every repetition simulates exactly the same events, so
/// the spread between them is the host's, not the program's; on a
/// shared virtual machine the host alternates every few seconds between
/// a fast state and one ~40 % slower, and the fastest repetition of each
/// part repeats from run to run where a median of whole operations does
/// not. NetPIPE keeps the minimum of its trials for the same reason.
fn sum_of_best(parts: &[Vec<f64>]) -> f64 {
    parts
        .iter()
        .map(|p| p.iter().copied().fold(f64::INFINITY, f64::min))
        .sum()
}

/// Run the workload's untraced measurement.
pub fn run(args: &Args) -> Report {
    match args.workload {
        Workload::PaperSweep => paper_sweep(args),
        Workload::CollectiveSim => collective_sim(args),
        Workload::MplitePingpong => mplite_pingpong(args),
    }
}

/// Check a finished reference pass against the pins.
pub fn check_sweep_pins(reference: &[netpipe::Signature]) -> Vec<String> {
    [
        tripwires::check(
            "netpipe.points",
            sweep::points(reference) as u64,
            tripwires::u64("netpipe.points"),
        ),
        tripwires::check(
            "paper_sweep.digest",
            format!("{:#018x}", sweep::digest(reference)),
            tripwires::raw("paper_sweep.digest").to_string(),
        ),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect()
}

fn paper_sweep(args: &Args) -> Report {
    let mut drivers = sweep::setup(args.seed);
    // The first pass warms caches and is the reference every timed
    // pass must reproduce bit for bit.
    let reference = sweep::pass(&mut drivers, |_, _| {});
    let errors = check_sweep_pins(&reference);
    let points = sweep::points(&reference) as f64;

    let cap = 4 * args.seconds as usize + 4;
    let mut curves: Vec<Vec<f64>> = (0..drivers.len())
        .map(|_| Vec::with_capacity(cap))
        .collect();
    let mut passes = Vec::with_capacity(cap);
    let mut peaks = Vec::with_capacity(cap);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let phase = Duration::from_secs(args.seconds);
    let mut setup = SetupClock::new(1000, phase, || sweep::setup(args.seed));
    let mut heap = HeapPhase::start();
    let deadline = Instant::now() + phase;
    while passes.is_empty() || Instant::now() < deadline {
        // A pass's heap peak is its largest curve's, each curve measured
        // from its own start, so the seed's curve order cannot move it.
        let mut peak = 0;
        let t = Instant::now();
        let sigs = sweep::pass(&mut drivers, |c, dt| {
            peak = peak.max(heap.take());
            if curves[c].len() < cap {
                curves[c].push(dt);
            }
        });
        if passes.len() < cap {
            passes.push(t.elapsed().as_secs_f64());
            peaks.push(peak as f64);
        }
        attempted += 1;
        let same = sigs.len() == reference.len()
            && sigs
                .iter()
                .zip(&reference)
                .all(|(a, b)| sweep::same_signature(a, b));
        if !same {
            failed += 1;
        }
        if setup.tick() {
            heap.take();
        }
    }
    let setup = setup.finish();
    let q = Quartiles::of(&passes);
    let pass_s = sum_of_best(&curves);
    let note = format!("sum of per-curve best; median pass {:.3} s", q.median);
    let bits = sweep::payload_bits(&reference);
    Report {
        workload: args.workload.name(),
        seed: args.seed,
        attempted,
        failed,
        errors,
        metrics: vec![
            Metric::new("ops_per_s", points / pass_s, &q).with_note(&note),
            Metric::new("latency_us", pass_s * 1e6, &q).with_note(&note),
            Metric::new("bandwidth_mbps", bits / pass_s / 1e6, &q).with_note(&note),
            setup_metric(&setup),
            heap_metric(&peaks),
        ],
    }
}

/// Check one simulated collective against its pins and reference.
pub fn check_collective(
    op: collectives::CollOp,
    report: &collectives::SimReport,
    reference: &[collectives::CollOutput],
) -> Vec<String> {
    let name = op.name();
    let mut errors: Vec<String> = [
        tripwires::check(
            &format!("collectives.events.{name}"),
            report.events,
            tripwires::u64(&format!("collectives.events.{name}")),
        ),
        tripwires::check(
            &format!("collectives.sim_us.{name}"),
            report.seconds * 1e6,
            tripwires::f64(&format!("collectives.sim_us.{name}")),
        ),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect();
    if !coll::matches_reference(report, reference) {
        errors.push(format!("{name}: simulated outputs differ from run_local"));
    }
    errors
}

fn collective_sim(args: &Args) -> Report {
    let planned = coll::setup(args.seed, coll::RANKS);
    let references: Vec<_> = planned.iter().map(coll::reference).collect();
    let (spec, profile) = coll::platform();

    // Warm-up round, checked against the pins; its errors are reported
    // once rather than per round.
    let mut errors = Vec::new();
    for ((p, r), (op, _)) in planned.iter().zip(&references).zip(coll::OPS) {
        errors.extend(check_collective(op, &coll::run(&spec, &profile, p), r));
    }

    let cap = 64 * args.seconds as usize + 8;
    let mut ops: Vec<Vec<f64>> = coll::OPS.iter().map(|_| Vec::with_capacity(cap)).collect();
    let mut rounds = Vec::with_capacity(cap);
    let mut peaks = Vec::with_capacity(cap);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let phase = Duration::from_secs(args.seconds);
    let mut setup = SetupClock::new(8, phase, || coll::setup(args.seed, coll::RANKS));
    let mut heap = HeapPhase::start();
    let deadline = Instant::now() + phase;
    while rounds.is_empty() || Instant::now() < deadline {
        let mut round = 0.0;
        let mut ok = true;
        for (i, ((p, r), (op, _))) in planned.iter().zip(&references).zip(coll::OPS).enumerate() {
            let t = Instant::now();
            let report = coll::run(&spec, &profile, p);
            let dt = t.elapsed().as_secs_f64();
            round += dt;
            if ops[i].len() < cap {
                ops[i].push(dt);
            }
            ok &= check_collective(op, &report, r).is_empty();
        }
        if rounds.len() < cap {
            rounds.push(round);
            peaks.push(heap.take() as f64);
        }
        attempted += 1;
        if !ok {
            failed += 1;
        }
        if setup.tick() {
            heap.take();
        }
    }
    let setup = setup.finish();
    let q = Quartiles::of(&rounds);
    let round_s = sum_of_best(&ops);
    let note = format!("sum of per-collective best; median round {:.3} s", q.median);
    let bcast = coll::OPS
        .iter()
        .position(|&(op, _)| op == collectives::CollOp::Bcast)
        .expect("the round has a bcast");
    let qb = Quartiles::of(&ops[bcast]);
    let bcast_s = sum_of_best(&ops[bcast..=bcast]);
    let bcast_bits = 8.0 * coll::BCAST_BYTES as f64 * (coll::RANKS - 1) as f64;
    Report {
        workload: args.workload.name(),
        seed: args.seed,
        attempted,
        failed,
        errors,
        metrics: vec![
            Metric::new("ops_per_s", 1.0 / round_s, &q).with_note(&note),
            Metric::new("latency_us", round_s * 1e6, &q).with_note(&note),
            Metric::new("bandwidth_mbps", bcast_bits / bcast_s / 1e6, &qb)
                .with_note(&format!("best bcast; median bcast {:.3} s", qb.median)),
            setup_metric(&setup),
            heap_metric(&peaks),
        ],
    }
}

fn mplite_pingpong(args: &Args) -> Report {
    let payloads = pingpong::Payloads::new(args.seed);
    let seconds = args.seconds as usize;
    let mut small = Vec::with_capacity(100_000 * seconds);
    let mut large = Vec::with_capacity(2_000 * seconds);
    let mut rates = Vec::with_capacity(1_000 * seconds);
    let mut peaks = Vec::with_capacity(1_000 * seconds);

    let (attempted, failed, setup) = pingpong::with_ranks(pingpong::setup(), |comm| {
        let (mut attempted, mut failed) = (0u64, 0u64);
        // Warm-up blocks: connections, buffers and caches settle;
        // their echoes are still checked.
        let mut scratch = Vec::with_capacity(pingpong::SMALL_BLOCK);
        for (large, pool) in [(false, &payloads.small), (true, &payloads.large)] {
            let b = pingpong::block(comm, large, pool, 0, pool.len(), &mut scratch, None);
            attempted += b.ok + b.failed;
            failed += b.failed;
            scratch.clear();
        }
        let phase = Duration::from_secs(args.seconds);
        let mut setup = SetupClock::new(25, phase, pingpong::setup);
        let mut heap = HeapPhase::start();
        let deadline = Instant::now() + phase;
        let mut k = 0;
        while rates.is_empty() || Instant::now() < deadline {
            let b = pingpong::block(
                comm,
                false,
                &payloads.small,
                k,
                pingpong::SMALL_BLOCK,
                &mut small,
                None,
            );
            if rates.len() < rates.capacity() && b.ok > 0 {
                rates.push(b.ok as f64 / (b.ns as f64 / 1e9));
            }
            let l = pingpong::block(
                comm,
                true,
                &payloads.large,
                k,
                pingpong::LARGE_BLOCK,
                &mut large,
                None,
            );
            if peaks.len() < peaks.capacity() {
                peaks.push(heap.take() as f64);
            }
            attempted += b.ok + b.failed + l.ok + l.failed;
            failed += b.failed + l.failed;
            if b.failed + l.failed > 0 {
                break;
            }
            if setup.tick() {
                heap.take();
            }
            k += 1;
        }
        (attempted, failed, setup.finish())
    });

    let mut errors = Vec::new();
    if small.is_empty() || large.is_empty() || rates.is_empty() {
        errors.push("no round trip completed".to_string());
        small.push(0.0);
        large.push(0.0);
        rates.push(0.0);
    }
    if peaks.is_empty() {
        peaks.push(0.0);
    }
    let qs = Quartiles::of(&small);
    let ql = Quartiles::of(&large);
    let qr = Quartiles::of(&rates);
    Report {
        workload: args.workload.name(),
        seed: args.seed,
        attempted,
        failed,
        errors,
        metrics: vec![
            Metric::new("ops_per_s", qr.median, &qr),
            Metric::new("latency_us", qs.median / 2.0 / 1e3, &qs),
            Metric::new(
                "bandwidth_mbps",
                8.0 * pingpong::LARGE as f64 / (ql.median / 2.0 / 1e3),
                &ql,
            ),
            setup_metric(&setup),
            heap_metric(&peaks),
        ],
    }
}
