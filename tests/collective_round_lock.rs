//! Behaviour lock for the N-rank simulated path: the 1024-rank round of
//! the `collective_sim` benchmark workload (`collectives::build` →
//! `run_sim` → `mpsim::MultiSession` → `protosim::multinode`) on the
//! paper's PCs/GA-620 cluster under tuned MPICH.
//!
//! Event counts and simulated seconds are pinned bit for bit, so a
//! change to how fast the simulator runs cannot quietly change what it
//! simulates; outputs must equal the in-memory reference executor.

use collectives::{
    build, run_local, run_sim, Algorithm, CollOp, Dtype, ExecCtx, ReduceOp, Reduction, SimOptions,
};
use hwmodel::presets::pcs_ga620;
use mpsim::libs::{mpich, MpichConfig};
use simcore::SimRng;

const RANKS: usize = 1024;
/// f64 elements per allreduce contribution.
const ALLREDUCE_ELEMS: usize = 128;
/// 1 KiB above tuned MPICH's 128 KiB rendezvous threshold.
const BCAST_BYTES: usize = 129 * 1024;

/// `(op, algorithm, root, events, simulated seconds as f64 bits)`: the
/// seconds are 1230.1, 1493.7 and 27833.55 µs, as `ledgerbench`'s
/// tripwires pin them.
const PINNED: [(CollOp, Algorithm, usize, u64, u64); 3] = [
    (
        CollOp::Barrier,
        Algorithm::Dissemination,
        0,
        41_984,
        0x3f54_2769_d154_f1ca,
    ),
    (
        CollOp::Allreduce,
        Algorithm::RecursiveDoubling,
        0,
        41_984,
        0x3f58_7908_299a_2d3e,
    ),
    (
        CollOp::Bcast,
        Algorithm::Tree,
        517,
        102_301,
        0x3f9c_8065_ebed_2385,
    ),
];

/// Seeded contributions for `op`, and its reduction if it has one.
fn inputs(op: CollOp, root: usize, rng: &mut SimRng) -> (Vec<Vec<u8>>, Option<Reduction>) {
    let mut contributions = vec![Vec::new(); RANKS];
    let mut reduction = None;
    match op {
        CollOp::Allreduce => {
            for c in &mut contributions {
                *c = (0..ALLREDUCE_ELEMS)
                    .flat_map(|_| rng.uniform(-1.0, 1.0).to_le_bytes())
                    .collect();
            }
            reduction = Some(Reduction {
                dtype: Dtype::F64,
                op: ReduceOp::Sum,
            });
        }
        CollOp::Bcast => {
            contributions[root] = (0..BCAST_BYTES).map(|_| rng.next_u64() as u8).collect();
        }
        _ => {}
    }
    (contributions, reduction)
}

#[test]
fn collective_sim_round_is_pinned_and_matches_the_reference() {
    let spec = pcs_ga620();
    let profile = mpich(MpichConfig::tuned()).profile;
    let mut rng = SimRng::new(13);
    for (op, algorithm, root, events, seconds_bits) in PINNED {
        let schedule = build(op, algorithm, RANKS).expect("the round plans at 1024 ranks");
        let (contributions, reduction) = inputs(op, root, &mut rng);
        let ctx = ExecCtx { root, reduction };
        let report = run_sim(
            &spec,
            &profile,
            &schedule,
            ctx,
            &contributions,
            &SimOptions::default(),
        );
        assert!(report.all_completed(), "{op:?}: every rank completes");
        assert_eq!(report.events, events, "{op:?}: events");
        assert_eq!(
            report.seconds.to_bits(),
            seconds_bits,
            "{op:?}: simulated seconds {}",
            report.seconds
        );
        let reference = run_local(&schedule, ctx, &contributions);
        for (rank, (got, want)) in report.outputs.iter().zip(&reference).enumerate() {
            assert_eq!(got.as_ref(), Some(want), "{op:?}: rank {rank} output");
        }
    }
}
