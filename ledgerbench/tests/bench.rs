//! Tests of the benchmark itself: its replicas agree with the program,
//! its arguments are checked, and its metric list is the one
//! `BENCHMARK.json` declares.

use std::process::Command;

use ledgerbench::args::{self, Workload};
use ledgerbench::report::{Better, END_TO_END, PER_LAYER};
use ledgerbench::{coll, ledger, sweep};
use netpipe::{RunOptions, SimDriver};

#[test]
fn stepped_replica_equals_netpipe_run_bitwise() {
    let opts = RunOptions::quick(64 * 1024);
    let mut st = sweep::ReplicaStats::default();
    for c in sweep::curves(1) {
        let mut driver = SimDriver::new(c.spec.clone(), c.lib.clone());
        let want = netpipe::run(&mut driver, &opts).expect("simulated sweep");
        let got = sweep::replica_run(&c.spec, &c.lib, &opts, &mut st);
        assert!(sweep::same_signature(&got, &want), "{} differs", want.name);
    }
    assert!(st.events > st.points, "every round trip runs events");
    assert!(st.queue_depth_max > 0);
}

#[test]
fn sweep_order_follows_the_seed_and_reports_canonically() {
    let a: Vec<usize> = sweep::curves(1).iter().map(|c| c.canonical).collect();
    let b: Vec<usize> = sweep::curves(2).iter().map(|c| c.canonical).collect();
    assert_ne!(a, b, "seeds reorder the curves");
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..a.len()).collect::<Vec<_>>(), "each curve once");
}

#[test]
fn small_collective_round_equals_run_local() {
    let (spec, profile) = coll::platform();
    for n in [2, 5, 8] {
        for p in coll::setup(3, n) {
            let report = coll::run(&spec, &profile, &p);
            let want = coll::reference(&p);
            assert!(
                coll::matches_reference(&report, &want),
                "{} over {n} ranks differs from run_local",
                p.schedule.op.name()
            );
        }
    }
}

#[test]
fn hold_model_keeps_its_depth() {
    assert!(ledger::hold_ns(16, 1_000, 1) > 0.0);
    assert!(ledger::hold_ns(4096, 1_000, 1) > 0.0);
}

#[test]
fn arguments_parse_in_any_order() {
    let a = args::parse(&[
        "--trace",
        "1",
        "--seconds",
        "3",
        "--seed",
        "42",
        "--workload",
        "collective_sim",
    ])
    .expect("valid arguments");
    assert_eq!(a.workload, Workload::CollectiveSim);
    assert_eq!((a.seed, a.seconds, a.trace), (42, 3, true));
}

#[test]
fn bad_arguments_are_rejected() {
    let ok = [
        "--workload",
        "paper_sweep",
        "--seed",
        "1",
        "--seconds",
        "2",
        "--trace",
        "0",
    ];
    assert!(args::parse(&ok).is_ok());
    let bad: [&[&str]; 9] = [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "-1",
            "--seconds",
            "2",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "x",
            "--seconds",
            "2",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "2",
        ],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "yes",
        ],
        &["--workload", "paper_sweep", "--seed", "1", "--seconds", "2"],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "1",
            "--seed",
            "2",
            "--seconds",
            "2",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "paper_sweep",
            "--seed",
            "1",
            "--seconds",
            "2",
            "--trace",
            "0",
            "--extra",
        ],
    ];
    for b in bad {
        assert!(args::parse(b).is_err(), "accepted {b:?}");
    }
}

#[test]
fn binary_exits_nonzero_without_a_result_on_bad_arguments() {
    for bad in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper_sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "7",
        ],
        vec![
            "--workload",
            "paper_sweep",
            "--seed",
            "-3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ledgerbench"))
            .args(&bad)
            .output()
            .expect("the binary runs");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "no result printed for {bad:?}");
    }
}

/// `BENCHMARK.json` with all whitespace removed.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path)
        .expect("BENCHMARK.json at the repository root")
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = benchmark_json();
    for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let better = match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\":\"{}\",\"why\"", w.name())),
            "{}",
            w.name()
        );
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

#[test]
fn unmeasurable_values_make_the_run_incorrect_not_invalid_json() {
    use ledgerbench::report::{Metric, Mode, Report};
    use ledgerbench::stats::Quartiles;
    let q = Quartiles::of(&[1.0]);
    let mut report = Report {
        workload: "mplite_pingpong",
        seed: 1,
        attempted: 4,
        failed: 0,
        errors: vec![],
        metrics: END_TO_END
            .iter()
            .map(|&(name, _, _)| Metric::new(name, 1.0, &q))
            .collect(),
    };
    assert!(report.correct());
    report.metrics[2].value = f64::INFINITY;
    report
        .order(Mode::EndToEnd)
        .expect("every metric is listed");
    assert!(!report.correct());
    assert!(report
        .json()
        .contains("\"bandwidth_mbps\": {\"value\": 0, \"unit\": \"Mbps\"}"));
}
