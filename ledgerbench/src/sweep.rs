//! `paper_sweep`: every curve of the paper's figures and tables through
//! `netpipe::run`, one after another on one thread, plus the stepped
//! replica of `SimDriver::roundtrip` that the traced run times layer by
//! layer.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use hwmodel::ClusterSpec;
use mpsim::{MpLib, Session};
use netpipe::{Point, PointStatus, RunOptions, Signature, SimDriver};
use protosim::Fabric;
use simcore::units::{secs_to_us, throughput_mbps};
use simcore::{OnlineStats, SimRng};

use crate::alloc;

/// One curve of one experiment.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Position in `all_experiments()` order; signatures are reported
    /// in this order whatever order the seed runs them in.
    pub canonical: usize,
    /// Cluster the curve runs on.
    pub spec: ClusterSpec,
    /// Library model.
    pub lib: MpLib,
}

/// The sweep's curves in a seed-chosen order.
pub fn curves(seed: u64) -> Vec<Curve> {
    let mut out: Vec<Curve> = clusterlab::all_experiments()
        .into_iter()
        .flat_map(|exp| {
            let spec = exp.spec;
            exp.entries
                .into_iter()
                .map(move |e| (e.spec_override.unwrap_or_else(|| spec.clone()), e.lib))
        })
        .enumerate()
        .map(|(canonical, (spec, lib))| Curve {
            canonical,
            spec,
            lib,
        })
        .collect();
    crate::shuffle(&mut out, &mut SimRng::new(seed));
    out
}

/// The workload's set-up: the experiment list and one driver per curve.
pub fn setup(seed: u64) -> Vec<(usize, SimDriver)> {
    curves(seed)
        .into_iter()
        .map(|c| (c.canonical, SimDriver::new(c.spec, c.lib)))
        .collect()
}

/// One pass: every curve through `netpipe::run` with the paper's
/// default schedule, each curve's host seconds passed to `timed` with
/// its canonical index. Signatures come back in canonical order.
pub fn pass(
    drivers: &mut [(usize, SimDriver)],
    mut timed: impl FnMut(usize, f64),
) -> Vec<Signature> {
    let opts = RunOptions::default();
    let mut out: Vec<Option<Signature>> = vec![None; drivers.len()];
    for (canonical, driver) in drivers.iter_mut() {
        let t = Instant::now();
        let sig = netpipe::run(driver, &opts).expect("a fault-free simulated sweep cannot fail");
        timed(*canonical, t.elapsed().as_secs_f64());
        out[*canonical] = Some(sig);
    }
    out.into_iter()
        .map(|s| s.expect("every canonical slot is filled once"))
        .collect()
}

/// NetPIPE points in a pass.
pub fn points(sigs: &[Signature]) -> usize {
    sigs.iter().map(|s| s.points.len()).sum()
}

/// Payload bits a pass moves in simulation: every point is one round
/// trip, two one-way messages of its size.
pub fn payload_bits(sigs: &[Signature]) -> f64 {
    sigs.iter()
        .flat_map(|s| &s.points)
        .map(|p| 2.0 * 8.0 * p.bytes as f64)
        .sum()
}

/// FNV-1a digest of a pass's signatures, bit for bit: names, sizes,
/// times, rates, jitter, status, latency and peak.
pub fn digest(sigs: &[Signature]) -> u64 {
    let mut h = crate::Fnv::new();
    for s in sigs {
        h.bytes(s.name.as_bytes());
        for p in &s.points {
            h.u64(p.bytes);
            h.u64(p.seconds.to_bits());
            h.u64(p.mbps.to_bits());
            h.u64(p.jitter.to_bits());
            h.u64(match p.status {
                PointStatus::Ok => 0,
                PointStatus::Degraded { retries } => 1 + u64::from(retries),
                PointStatus::Failed { .. } => u64::MAX,
            });
        }
        h.u64(s.latency_us.to_bits());
        h.u64(s.max_mbps.to_bits());
    }
    h.finish()
}

/// Bitwise equality of two signatures.
pub fn same_signature(a: &Signature, b: &Signature) -> bool {
    a.name == b.name
        && a.latency_us.to_bits() == b.latency_us.to_bits()
        && a.max_mbps.to_bits() == b.max_mbps.to_bits()
        && a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(p, q)| {
            p.bytes == q.bytes
                && p.seconds.to_bits() == q.seconds.to_bits()
                && p.mbps.to_bits() == q.mbps.to_bits()
                && p.jitter.to_bits() == q.jitter.to_bits()
                && p.status == q.status
        })
}

/// What the stepped replica measured, summed over every point it ran.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStats {
    /// Round trips (NetPIPE points) run.
    pub points: u64,
    /// Engine events executed.
    pub events: u64,
    /// Host ns inside the `Engine::step` loop.
    pub step_ns: u64,
    /// Allocations inside the `Engine::step` loop.
    pub step_allocs: u64,
    /// Highest `pending()` seen.
    pub queue_depth_max: usize,
    /// Host ns inside `Fabric::engine`.
    pub build_ns: u64,
    /// Allocations inside `Fabric::engine`.
    pub build_allocs: u64,
    /// Host ns inside `Session::establish`.
    pub establish_ns: u64,
    /// Host ns inside `mpsim::pingpong` (posting the first leg).
    pub post_ns: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One `SimDriver::roundtrip`, replayed call by call with each layer
/// timed from outside. Returns the round-trip seconds.
fn replica_roundtrip(spec: &ClusterSpec, lib: &MpLib, bytes: u64, st: &mut ReplicaStats) -> f64 {
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let mut eng = Fabric::engine(spec.clone());
    st.build_ns += ns(t0);
    st.build_allocs += alloc::allocs() - a0;

    let t1 = Instant::now();
    let session = Session::establish(&mut eng.world, lib);
    st.establish_ns += ns(t1);

    let out = Rc::new(Cell::new(None));
    let out2 = Rc::clone(&out);
    let t2 = Instant::now();
    mpsim::pingpong(
        &session,
        &mut eng,
        bytes,
        1,
        Box::new(move |_, t| out2.set(Some(t))),
    );
    st.post_ns += ns(t2);

    let mut depth = eng.pending();
    let a3 = alloc::allocs();
    let t3 = Instant::now();
    while eng.step() {
        depth = depth.max(eng.pending());
    }
    st.step_ns += ns(t3);
    st.step_allocs += alloc::allocs() - a3;
    st.queue_depth_max = st.queue_depth_max.max(depth);
    st.events += eng.events_executed();
    st.points += 1;
    out.get()
        .expect("a fault-free simulated round trip completes")
}

/// `netpipe::run` of a `SimDriver` for `lib` on `spec`, replayed with
/// the stepped round trip. Produces the same signature bit for bit.
pub fn replica_run(
    spec: &ClusterSpec,
    lib: &MpLib,
    opts: &RunOptions,
    st: &mut ReplicaStats,
) -> Signature {
    let mut points = Vec::new();
    let mut lat = OnlineStats::new();
    for bytes in netpipe::sizes(&opts.schedule) {
        let mut stats = OnlineStats::new();
        stats.push(replica_roundtrip(spec, lib, bytes, st) / 2.0);
        let best = stats.min();
        let jitter = if stats.min() > 0.0 {
            stats.max() / stats.min() - 1.0
        } else {
            0.0
        };
        if bytes <= opts.latency_bound {
            lat.push(best);
        }
        points.push(Point {
            bytes,
            seconds: best,
            mbps: throughput_mbps(bytes, best),
            jitter,
            status: PointStatus::Ok,
        });
    }
    let max_mbps = points.iter().map(|p| p.mbps).fold(0.0, f64::max);
    Signature {
        name: lib.name().to_string(),
        points,
        latency_us: secs_to_us(lat.mean()),
        max_mbps,
    }
}

/// A whole pass through the replica, in canonical order.
pub fn replica_pass(curves: &[Curve], st: &mut ReplicaStats) -> Vec<Signature> {
    let opts = RunOptions::default();
    let mut out: Vec<Option<Signature>> = vec![None; curves.len()];
    for c in curves {
        out[c.canonical] = Some(replica_run(&c.spec, &c.lib, &opts, st));
    }
    out.into_iter()
        .map(|s| s.expect("every canonical slot is filled once"))
        .collect()
}
