//! Traced runs: the per-layer ledger.
//!
//! Every traced run probes every layer, whatever its workload, so that
//! each run reports the whole per-layer metric list. A probe round
//! runs, in order:
//!
//! * the sweep probe — an untraced `paper_sweep` pass, the same pass
//!   through the stepped replica (`simcore`, `protosim`, `mpsim`,
//!   `netpipe`), and a pass with a `tracelab::Tracer` installed;
//! * the hold probe — a bare `simcore::Engine` at two queue depths;
//! * the collective probe — `collective_sim`'s round, plain and with
//!   each collective's plan and run timed (`collectives`);
//! * the mplite probe — a fresh two-rank universe, plain and
//!   instrumented blocks of 8 B and 1 MiB round trips, and the frame
//!   layer's CRC and decoder on their own (`mplite`).
//!
//! Rounds repeat until `--seconds` has passed (at least one), and each
//! timing is the median over rounds. Every output is checked as in the
//! untraced run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use collectives::{combine_bytes, Dtype, ReduceOp};
use mplite::frame::{build_header, crc32c, max_message_size, WIRE_V2};
use mplite::FrameDecoder;
use simcore::{Engine, SimDuration, SimRng, SimTime};

use crate::args::Args;
use crate::report::{Metric, Report};
use crate::stats::{median, percentile, Quartiles};
use crate::{alloc, coll, e2e, pingpong, sweep, tripwires};

/// Samples of one named per-layer metric across probe rounds.
struct Series {
    name: String,
    values: Vec<f64>,
    note: Option<String>,
}

/// Per-layer samples, in the order they were first recorded.
#[derive(Default)]
struct Ledger {
    series: Vec<Series>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Ledger {
    fn record(&mut self, name: &str, value: f64) {
        match self.series.iter_mut().find(|s| s.name == name) {
            Some(s) => s.values.push(value),
            None => self.series.push(Series {
                name: name.to_string(),
                values: vec![value],
                note: None,
            }),
        }
    }

    /// Attach printed context to an already recorded metric.
    fn note(&mut self, name: &str, note: String) {
        if let Some(s) = self.series.iter_mut().find(|s| s.name == name) {
            s.note = Some(note);
        }
    }

    /// Count one probe operation; `errors` empty means it was correct.
    fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            for e in errors {
                if !self.errors.contains(&e) {
                    self.errors.push(e);
                }
            }
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        self.series
            .iter()
            .map(|s| {
                let q = Quartiles::of(&s.values);
                let mut m = Metric::new(&s.name, q.median, &q);
                m.note = s.note.clone();
                m
            })
            .collect()
    }
}

fn mbps(bytes: usize, ns: f64) -> f64 {
    8.0 * bytes as f64 / (ns / 1e3)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The sweep probe: plain pass, replica pass, traced pass.
fn sweep_probe(l: &mut Ledger, seed: u64) {
    let curves = sweep::curves(seed);
    let mut drivers = sweep::setup(seed);

    let t = Instant::now();
    let plain = sweep::pass(&mut drivers, |_, _| {});
    let plain_s = secs(t);
    l.op(e2e::check_sweep_pins(&plain));

    let mut st = sweep::ReplicaStats::default();
    let t = Instant::now();
    let replica = sweep::replica_pass(&curves, &mut st);
    let replica_s = secs(t);
    let mut errors = Vec::new();
    if !replica
        .iter()
        .zip(&plain)
        .all(|(a, b)| sweep::same_signature(a, b))
    {
        errors.push("stepped replica differs from netpipe::run".to_string());
    }
    errors.extend(
        tripwires::check(
            "simcore.events",
            st.events,
            tripwires::u64("simcore.events"),
        )
        .err(),
    );
    l.op(errors);

    for (_, d) in drivers.iter_mut() {
        d.set_trace_sink(tracelab::Tracer::new());
    }
    let t = Instant::now();
    let traced = sweep::pass(&mut drivers, |_, _| {});
    let traced_s = secs(t);
    let same = traced
        .iter()
        .zip(&plain)
        .all(|(a, b)| sweep::same_signature(a, b));
    l.op(if same {
        vec![]
    } else {
        vec!["traced pass differs from untraced pass".to_string()]
    });

    let points = st.points as f64;
    let events = st.events as f64;
    l.record("simcore.events", events);
    l.record("simcore.step_ns", st.step_ns as f64 / events);
    l.record("simcore.queue_depth_max", st.queue_depth_max as f64);
    l.record("simcore.allocs_per_event", st.step_allocs as f64 / events);
    l.record("protosim.engine_build_ns", st.build_ns as f64 / points);
    l.record(
        "protosim.engine_build_allocs",
        st.build_allocs as f64 / points,
    );
    l.record("mpsim.establish_ns", st.establish_ns as f64 / points);
    l.record("mpsim.pingpong_post_ns", st.post_ns as f64 / points);
    l.record("netpipe.points", sweep::points(&plain) as f64);
    l.record(
        "netpipe.point_setup_share",
        (st.build_ns + st.establish_ns) as f64 / 1e9 / replica_s,
    );
    l.note(
        "netpipe.point_setup_share",
        format!("base: replica pass {replica_s:.3} s"),
    );
    l.record("tracelab.overhead_x", traced_s / plain_s);
    l.note(
        "tracelab.overhead_x",
        format!("base: untraced pass {plain_s:.3} s"),
    );
    l.record("ledgerbench.overhead_x.paper_sweep", replica_s / plain_s);
}

/// World of the hold-model test: the increment stream.
struct Hold {
    rng: SimRng,
}

fn hold(e: &mut Engine<Hold>) {
    let d = 1 + e.world.rng.next_below(1_000);
    e.schedule_in(SimDuration::from_nanos(d), hold);
}

/// Host ns per `Engine::step` of the classic hold model — pop the
/// earliest event, schedule one at a random later time — with `depth`
/// events pending throughout.
pub fn hold_ns(depth: usize, steps: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let mut eng = Engine::new(Hold { rng: rng.split() });
    for _ in 0..depth {
        eng.schedule_at(SimTime(rng.next_below(1_000)), hold);
    }
    for _ in 0..depth {
        eng.step();
    }
    let t = Instant::now();
    for _ in 0..steps {
        eng.step();
    }
    let ns = t.elapsed().as_nanos() as f64 / steps as f64;
    assert_eq!(eng.pending(), depth, "the hold model keeps its depth");
    ns
}

fn hold_probe(l: &mut Ledger, seed: u64) {
    l.record("simcore.hold_ns.d16", hold_ns(16, 200_000, seed));
    l.record("simcore.hold_ns.d4096", hold_ns(4096, 200_000, seed));
}

/// The collective probe: a plain round, then the round with each
/// collective's plan and run timed and its allocations counted.
fn collective_probe(
    l: &mut Ledger,
    planned: &[coll::Planned],
    references: &[Vec<collectives::CollOutput>],
) {
    let (spec, profile) = coll::platform();
    let t = Instant::now();
    for p in planned {
        black_box(coll::run(&spec, &profile, p));
    }
    let plain_s = secs(t);

    let t_round = Instant::now();
    for ((p, r), (op, alg)) in planned.iter().zip(references).zip(coll::OPS) {
        let name = op.name();
        let t = Instant::now();
        let schedule = coll::plan(op, alg, p.schedule.nranks);
        l.record(
            &format!("collectives.plan_ns.{name}"),
            t.elapsed().as_nanos() as f64,
        );
        let mut errors = Vec::new();
        if schedule.digest() != p.schedule.digest() {
            errors.push(format!("{name}: replanning changed the schedule"));
        }

        let a0 = alloc::allocs();
        let t = Instant::now();
        let report = coll::run(&spec, &profile, p);
        l.record(
            &format!("collectives.run_ns.{name}"),
            t.elapsed().as_nanos() as f64,
        );
        let allocs = alloc::allocs() - a0;
        let events = report.events as f64;
        l.record(
            &format!("collectives.allocs_per_event.{name}"),
            allocs as f64 / events,
        );
        l.record(&format!("collectives.events.{name}"), events);
        l.record(&format!("collectives.sim_us.{name}"), report.seconds * 1e6);
        errors.extend(e2e::check_collective(op, &report, r));
        l.op(errors);
    }
    l.record(
        "ledgerbench.overhead_x.collective_sim",
        secs(t_round) / plain_s,
    );

    let mut rng = SimRng::new(7);
    let mut acc: Vec<u8> = (0..128)
        .flat_map(|_| rng.uniform(-1.0, 1.0).to_le_bytes())
        .collect();
    let other: Vec<u8> = (0..128)
        .flat_map(|_| rng.uniform(-1.0, 1.0).to_le_bytes())
        .collect();
    const K: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..K {
        combine_bytes(
            Dtype::F64,
            ReduceOp::Sum,
            black_box(&mut acc),
            black_box(&other),
        );
    }
    l.record(
        "collectives.combine_ns",
        t.elapsed().as_nanos() as f64 / f64::from(K),
    );
}

/// The mplite probe: threads, per-call spans, allocations per round
/// trip, tail latency, and the frame layer on its own.
fn mplite_probe(l: &mut Ledger, payloads: &pingpong::Payloads) {
    const REPS: usize = 5;
    let comms = pingpong::setup();
    l.record("mplite.threads", pingpong::os_threads() as f64);

    let small_n = REPS * pingpong::SMALL_BLOCK;
    let large_n = REPS * pingpong::LARGE_BLOCK;
    let mut plain_small = Vec::with_capacity(small_n);
    let mut instr_small = Vec::with_capacity(small_n);
    let mut spans_small = Vec::with_capacity(small_n);
    let mut plain_large = Vec::with_capacity(large_n);
    let mut instr_large = Vec::with_capacity(large_n);
    let mut spans_large = Vec::with_capacity(large_n);
    let mut warm = Vec::with_capacity(payloads.small.len());

    let blocks = pingpong::with_ranks(comms, |c| {
        let mut blocks = Vec::with_capacity(4 * REPS + 2);
        blocks.push(pingpong::block(
            c,
            false,
            &payloads.small,
            0,
            payloads.small.len(),
            &mut warm,
            None,
        ));
        blocks.push(pingpong::block(
            c,
            true,
            &payloads.large,
            0,
            payloads.large.len(),
            &mut warm,
            None,
        ));
        let (mut small_allocs, mut large_allocs) = (0u64, 0u64);
        for rep in 0..REPS {
            let b = pingpong::block(
                c,
                false,
                &payloads.small,
                rep,
                pingpong::SMALL_BLOCK,
                &mut plain_small,
                None,
            );
            small_allocs += b.allocs;
            blocks.push(b);
            blocks.push(pingpong::block(
                c,
                false,
                &payloads.small,
                rep,
                pingpong::SMALL_BLOCK,
                &mut instr_small,
                Some(&mut spans_small),
            ));
            let b = pingpong::block(
                c,
                true,
                &payloads.large,
                rep,
                pingpong::LARGE_BLOCK,
                &mut plain_large,
                None,
            );
            large_allocs += b.allocs;
            blocks.push(b);
            blocks.push(pingpong::block(
                c,
                true,
                &payloads.large,
                rep,
                pingpong::LARGE_BLOCK,
                &mut instr_large,
                Some(&mut spans_large),
            ));
        }
        (blocks, small_allocs, large_allocs)
    });
    let (blocks, small_allocs, large_allocs) = blocks;
    for b in &blocks {
        l.attempted += b.ok + b.failed;
        l.failed += b.failed;
    }
    if plain_small.is_empty()
        || instr_small.is_empty()
        || plain_large.is_empty()
        || instr_large.is_empty()
    {
        l.errors
            .push("mplite probe: no round trip completed".to_string());
        return;
    }

    let span_median = |s: &[pingpong::Spans], f: fn(&pingpong::Spans) -> u64| {
        median(&s.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
    };
    l.record(
        "mplite.send_ns.small",
        span_median(&spans_small, |s| s.send_ns),
    );
    l.record(
        "mplite.recv_ns.small",
        span_median(&spans_small, |s| s.recv_ns),
    );
    l.record(
        "mplite.send_ns.large",
        span_median(&spans_large, |s| s.send_ns),
    );
    l.record(
        "mplite.recv_ns.large",
        span_median(&spans_large, |s| s.recv_ns),
    );
    l.record(
        "mplite.allocs_per_roundtrip.small",
        small_allocs as f64 / plain_small.len() as f64,
    );
    l.record(
        "mplite.allocs_per_roundtrip.large",
        large_allocs as f64 / plain_large.len() as f64,
    );
    l.record(
        "mplite.latency_p99_us",
        percentile(&plain_small, 99.0) / 2.0 / 1e3,
    );
    l.note(
        "mplite.latency_p99_us",
        format!("{} round trips per round", plain_small.len()),
    );
    l.record(
        "ledgerbench.overhead_x.mplite_pingpong",
        median(&instr_small) / median(&plain_small),
    );

    // The frame layer alone: CRC32C and the incremental decoder.
    let big = &payloads.large[0];
    let crc = crc32c(big);
    let mut crc_ns = Vec::with_capacity(16);
    for _ in 0..16 {
        let t = Instant::now();
        let c = crc32c(black_box(big));
        crc_ns.push(t.elapsed().as_nanos() as f64);
        if c != crc {
            l.errors.push("crc32c is not deterministic".to_string());
        }
    }
    l.record("mplite.crc_mbps", mbps(big.len(), median(&crc_ns)));

    let frame = |payload: &[u8]| -> Vec<u8> {
        let (hdr, n) = build_header(WIRE_V2, 0, 1, payload);
        let mut f = hdr[..n].to_vec();
        f.extend_from_slice(payload);
        f
    };
    let mut decoder = FrameDecoder::new(max_message_size());
    let mut decode = |bytes: &[u8], want: &[u8]| -> bool {
        matches!(decoder.feed(bytes), Ok(frames) if frames.len() == 1 && frames[0].payload == want)
    };
    let large_frame = frame(big);
    let mut large_ns = Vec::with_capacity(16);
    for _ in 0..16 {
        let t = Instant::now();
        let ok = decode(black_box(&large_frame), big);
        large_ns.push(t.elapsed().as_nanos() as f64);
        l.op(if ok {
            vec![]
        } else {
            vec!["large frame did not decode".to_string()]
        });
    }
    l.record(
        "mplite.decode_mbps.large",
        mbps(big.len(), median(&large_ns)),
    );

    let small = &payloads.small[0];
    let small_frame = frame(small);
    const K: u32 = 10_000;
    let mut ok = true;
    let t = Instant::now();
    for _ in 0..K {
        ok &= decode(black_box(&small_frame), small);
    }
    l.record(
        "mplite.decode_ns.small",
        t.elapsed().as_nanos() as f64 / f64::from(K),
    );
    l.op(if ok {
        vec![]
    } else {
        vec!["small frame did not decode".to_string()]
    });
}

/// Run probe rounds until `args.seconds` has passed and report the
/// per-layer metrics.
pub fn run(args: &Args) -> Report {
    let mut l = Ledger::default();
    let planned = coll::setup(args.seed, coll::RANKS);
    let references: Vec<_> = planned.iter().map(coll::reference).collect();
    let payloads = pingpong::Payloads::new(args.seed);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        sweep_probe(&mut l, args.seed);
        hold_probe(&mut l, args.seed.wrapping_add(round));
        collective_probe(&mut l, &planned, &references);
        mplite_probe(&mut l, &payloads);
        round += 1;
    }

    Report {
        workload: args.workload.name(),
        seed: args.seed,
        attempted: l.attempted,
        failed: l.failed,
        metrics: l.metrics(),
        errors: l.errors,
    }
}
