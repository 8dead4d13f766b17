//! `collective_sim`: a round of three 1024-rank simulated collectives on
//! the paper's PCs/GA-620 cluster under tuned MPICH, planned by
//! `collectives::build` and run by `collectives::run_sim`.

use collectives::{
    Algorithm, CollOp, CollOutput, Dtype, ExecCtx, ReduceOp, Reduction, Schedule, SimOptions,
    SimReport,
};
use hwmodel::presets::pcs_ga620;
use hwmodel::ClusterSpec;
use mpsim::libs::{mpich, MpichConfig};
use mpsim::LibProfile;
use simcore::SimRng;

/// Ranks in every collective of the round.
pub const RANKS: usize = 1024;

/// f64 elements per allreduce contribution.
pub const ALLREDUCE_ELEMS: usize = 128;

/// Bcast payload: 1 KiB above tuned MPICH's 128 KiB rendezvous
/// threshold, so every hop takes the rendezvous path.
pub const BCAST_BYTES: usize = 129 * 1024;

/// The round's three collectives, in the order they run.
pub const OPS: [(CollOp, Algorithm); 3] = [
    (CollOp::Barrier, Algorithm::Dissemination),
    (CollOp::Allreduce, Algorithm::RecursiveDoubling),
    (CollOp::Bcast, Algorithm::Tree),
];

/// One planned collective with its seeded inputs.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The schedule `collectives::build` produced.
    pub schedule: Schedule,
    /// Root and reduction.
    pub ctx: ExecCtx,
    /// Actual-rank-indexed contributions.
    pub contributions: Vec<Vec<u8>>,
}

/// Seeded contributions and context for `op` over `n` ranks.
fn inputs(op: CollOp, n: usize, rng: &mut SimRng) -> (ExecCtx, Vec<Vec<u8>>) {
    let root = rng.next_below(n as u64) as usize;
    match op {
        CollOp::Barrier => (
            ExecCtx {
                root,
                reduction: None,
            },
            vec![Vec::new(); n],
        ),
        CollOp::Allreduce => {
            let contributions = (0..n)
                .map(|_| {
                    (0..ALLREDUCE_ELEMS)
                        .flat_map(|_| rng.uniform(-1.0, 1.0).to_le_bytes())
                        .collect()
                })
                .collect();
            (
                ExecCtx {
                    root,
                    reduction: Some(Reduction {
                        dtype: Dtype::F64,
                        op: ReduceOp::Sum,
                    }),
                },
                contributions,
            )
        }
        CollOp::Bcast => {
            let mut contributions = vec![Vec::new(); n];
            contributions[root] = (0..BCAST_BYTES).map(|_| rng.next_u64() as u8).collect();
            (
                ExecCtx {
                    root,
                    reduction: None,
                },
                contributions,
            )
        }
        CollOp::Reduce | CollOp::Allgather => unreachable!("not part of the round"),
    }
}

/// Plan one collective.
pub fn plan(op: CollOp, algorithm: Algorithm, n: usize) -> Schedule {
    collectives::build(op, algorithm, n).expect("every op of the round plans at any rank count")
}

/// The workload's set-up: the round's three plans and their seeded
/// inputs, over `n` ranks.
pub fn setup(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = SimRng::new(seed);
    OPS.iter()
        .map(|&(op, alg)| {
            let schedule = plan(op, alg, n);
            let (ctx, contributions) = inputs(op, n, &mut rng);
            Planned {
                schedule,
                ctx,
                contributions,
            }
        })
        .collect()
}

/// The simulated cluster and library the round runs on.
pub fn platform() -> (ClusterSpec, LibProfile) {
    (pcs_ga620(), mpich(MpichConfig::tuned()).profile)
}

/// Simulate one planned collective.
pub fn run(spec: &ClusterSpec, profile: &LibProfile, p: &Planned) -> SimReport {
    collectives::run_sim(
        spec,
        profile,
        &p.schedule,
        p.ctx,
        &p.contributions,
        &SimOptions::default(),
    )
}

/// The in-memory reference result of one planned collective.
pub fn reference(p: &Planned) -> Vec<CollOutput> {
    collectives::run_local(&p.schedule, p.ctx, &p.contributions)
}

/// Does a simulated run match the reference executor, rank for rank?
pub fn matches_reference(report: &SimReport, reference: &[CollOutput]) -> bool {
    report.all_completed()
        && report.outputs.len() == reference.len()
        && report
            .outputs
            .iter()
            .zip(reference)
            .all(|(got, want)| got.as_ref() == Some(want))
}
