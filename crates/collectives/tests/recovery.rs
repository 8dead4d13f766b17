//! The self-healing contract, enforced end to end:
//!
//! * **deterministic** — the same seed + fault plan reproduces the
//!   `RecoveryReport` and the full trace byte-identically;
//! * **bounded** — a seeded 64-rank allreduce losing two ranks
//!   mid-collective heals in exactly two membership epochs and the 62
//!   survivors finish with the correct wrapped-integer sum;
//! * **complete** — *any* single-rank death, for every algorithm at
//!   every awkward rank count (primes included), still yields the
//!   correct reduction over the survivors;
//! * **carried** — a broadcast whose root dies re-roots on the lowest
//!   survivor that already holds the payload, and every survivor ends
//!   with the root's bytes; a root dead before sending anything leaves
//!   nothing to carry and ends partial, not hung.

use collectives::{
    algorithms_for, build, run_sim, CollOp, Dtype, ExecCtx, RankFault, RecoveryPolicy, ReduceOp,
    Reduction, Schedule, SimOptions, SimReport,
};
use faultlab::FaultPlan;
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use simcore::trace::SharedSink;
use tracelab::Tracer;

const RED: Reduction = Reduction {
    dtype: Dtype::U64,
    op: ReduceOp::Sum,
};

/// Deterministic one-element contribution per rank: a rank-and-constant
/// mix so survivor sums are distinguishable from full sums.
fn contributions(n: usize) -> Vec<Vec<u8>> {
    (0..n as u64)
        .map(|r| {
            r.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1)
                .to_le_bytes()
                .to_vec()
        })
        .collect()
}

fn survivor_sum(contributions: &[Vec<u8>], evicted: &[usize]) -> u64 {
    contributions
        .iter()
        .enumerate()
        .filter(|(r, _)| !evicted.contains(r))
        .fold(0u64, |acc, (_, c)| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&c[..8]);
            acc.wrapping_add(u64::from_le_bytes(b))
        })
}

fn run(schedule: &Schedule, n: usize, options: &SimOptions) -> SimReport {
    run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        schedule,
        ExecCtx {
            root: 0,
            reduction: Some(RED),
        },
        &contributions(n),
        options,
    )
}

/// One traced run of the 64-rank two-kill scenario; returns the report
/// and the exported Chrome trace JSON.
fn traced_two_kill_run() -> (SimReport, String) {
    let n = 64;
    let schedule = build(
        CollOp::Allreduce,
        collectives::Algorithm::RecursiveDoubling,
        n,
    )
    .expect("64-rank recursive-doubling allreduce plans");
    let plan = FaultPlan::parse("seed=7,kill-rank=9@50us,kill-rank=23@120us").expect("valid plan");
    let tracer = Tracer::new();
    let report = run(
        &schedule,
        n,
        &SimOptions {
            trace: Some(tracer.clone() as SharedSink),
            faults: Vec::new(),
            plan: Some(plan),
            recovery: Some(RecoveryPolicy {
                deadline_us: 300.0,
                backoff_us: 100.0,
                max_epochs: 4,
            }),
        },
    );
    let json =
        tracelab::export::chrome_trace_json(&tracer.events(), &|track| format!("track-{track}"));
    (report, json)
}

#[test]
fn same_seed_and_plan_reproduce_report_and_trace_byte_identically() {
    let (a, trace_a) = traced_two_kill_run();
    let (b, trace_b) = traced_two_kill_run();
    let rec_a = a.recovery.expect("first run recovery report");
    let rec_b = b.recovery.expect("second run recovery report");
    assert_eq!(rec_a, rec_b, "recovery reports must be identical");
    assert_eq!(
        rec_a.to_text(),
        rec_b.to_text(),
        "rendered reports must be byte-identical"
    );
    assert_eq!(trace_a, trace_b, "traces must be byte-identical");
    assert!(
        trace_a.contains("coll-suspect") && trace_a.contains("coll-evict"),
        "trace records the recovery lifecycle"
    );
}

#[test]
fn two_timed_kills_heal_into_sixty_two_survivors() {
    let n = 64;
    let (report, _) = traced_two_kill_run();
    let rec = report.recovery.as_ref().expect("recovery report");
    assert_eq!(rec.evicted, vec![9, 23], "both killed ranks evicted");
    assert_eq!(rec.epochs.len(), 2, "one membership epoch per eviction");
    assert_eq!(report.completed, n - 2, "62 survivors completed");
    assert!(report.all_survivors_completed());
    let want = survivor_sum(&contributions(n), &rec.evicted).to_le_bytes();
    for (r, out) in report.outputs.iter().enumerate() {
        if rec.evicted.contains(&r) {
            continue;
        }
        let out = out
            .as_ref()
            .unwrap_or_else(|| panic!("rank {r} has no output"));
        assert_eq!(out.acc, want, "rank {r} holds the survivor sum");
    }
}

#[test]
fn any_single_rank_death_reduces_correctly_over_survivors() {
    // Primes, powers of two, and their awkward neighbours.
    let counts = [2usize, 3, 4, 5, 7, 8, 9, 13, 16, 17];
    let policy = RecoveryPolicy {
        deadline_us: 2_000.0,
        backoff_us: 500.0,
        max_epochs: 4,
    };
    for n in counts {
        for algorithm in algorithms_for(CollOp::Allreduce, n) {
            let Ok(schedule) = build(CollOp::Allreduce, algorithm, n) else {
                continue;
            };
            for victim in 0..n {
                let report = run(
                    &schedule,
                    n,
                    &SimOptions {
                        trace: None,
                        faults: vec![RankFault::Dead(victim)],
                        plan: None,
                        recovery: Some(policy),
                    },
                );
                let rec = report.recovery.as_ref().unwrap_or_else(|| {
                    panic!("{algorithm:?} n={n} victim={victim}: no recovery report")
                });
                assert_eq!(
                    rec.evicted,
                    vec![victim],
                    "{algorithm:?} n={n}: exactly the dead rank is evicted"
                );
                assert!(
                    report.all_survivors_completed(),
                    "{algorithm:?} n={n} victim={victim}: survivors stalled"
                );
                let want = survivor_sum(&contributions(n), &[victim]).to_le_bytes();
                for (r, out) in report.outputs.iter().enumerate() {
                    if r == victim {
                        continue;
                    }
                    let out = out.as_ref().unwrap_or_else(|| {
                        panic!("{algorithm:?} n={n} victim={victim}: rank {r} has no output")
                    });
                    assert_eq!(
                        out.acc, want,
                        "{algorithm:?} n={n} victim={victim}: rank {r} sum wrong"
                    );
                }
            }
        }
    }
}

const BCAST_N: usize = 8;
const BCAST_ROOT: usize = 1;

fn bcast_payload() -> Vec<u8> {
    (0..4096u32).map(|i| (i * 31 + 7) as u8).collect()
}

fn run_bcast(options: &SimOptions) -> SimReport {
    let mut contributions = vec![Vec::new(); BCAST_N];
    contributions[BCAST_ROOT] = bcast_payload();
    let schedule = build(CollOp::Bcast, collectives::Algorithm::Tree, BCAST_N)
        .expect("8-rank tree bcast plans");
    run_sim(
        &pcs_ga620(),
        &mpich(MpichConfig::tuned()).profile,
        &schedule,
        ExecCtx {
            root: BCAST_ROOT,
            reduction: None,
        },
        &contributions,
        options,
    )
}

const BCAST_POLICY: RecoveryPolicy = RecoveryPolicy {
    deadline_us: 2_000.0,
    backoff_us: 500.0,
    max_epochs: 4,
};

#[test]
fn bcast_root_death_reroots_on_the_lowest_payload_holder() {
    // Rooted at 1, the binomial tree is 1 -> {2, 3, 5}, 2 -> {4, 6},
    // 3 -> 7, 4 -> 0. Rank 4 is dead from the start, so rank 0 (the
    // lowest survivor once the root goes) never receives in the first
    // epoch. The root is killed at 1 ms, after its children received.
    let kill_root_us = 1_000.0;
    let clean = run_bcast(&SimOptions::default());
    for child in [2, 3, 5] {
        let t = clean.finish_secs[child].expect("clean bcast completes") * 1e6;
        assert!(t < kill_root_us, "child {child} received at {t} us");
    }

    let report = run_bcast(&SimOptions {
        faults: vec![RankFault::Dead(4)],
        plan: Some(FaultPlan::parse("seed=1,kill-rank=1@1000us").expect("valid plan")),
        recovery: Some(BCAST_POLICY),
        ..SimOptions::default()
    });
    let rec = report.recovery.as_ref().expect("recovery report");
    // Epoch 1 evicts the dead intermediate, epoch 2 the dead root, and
    // epoch 3 runs from the carry: rank 0 holds nothing, so the new root
    // is rank 2, and an empty or missing carry would show below.
    assert_eq!(rec.evicted, vec![4, BCAST_ROOT]);
    assert_eq!(rec.epochs.len(), 2);
    assert!(report.all_survivors_completed(), "{rec:?}");
    let want = bcast_payload();
    for (r, out) in report.outputs.iter().enumerate() {
        if rec.evicted.contains(&r) {
            assert!(out.is_none(), "evicted rank {r} has an output");
            continue;
        }
        let out = out
            .as_ref()
            .unwrap_or_else(|| panic!("rank {r} has no output"));
        assert_eq!(out.acc, want, "rank {r} holds the root's bytes");
    }
}

#[test]
fn bcast_root_dead_from_the_start_ends_partial() {
    let report = run_bcast(&SimOptions {
        faults: vec![RankFault::Dead(BCAST_ROOT)],
        recovery: Some(BCAST_POLICY),
        ..SimOptions::default()
    });
    let rec = report.recovery.as_ref().expect("recovery report");
    assert_eq!(rec.evicted, vec![BCAST_ROOT]);
    assert!(!report.all_survivors_completed());
    assert_eq!(report.completed, 0, "no survivor can hold the payload");
    assert!(report.outputs.iter().all(Option::is_none));
}
