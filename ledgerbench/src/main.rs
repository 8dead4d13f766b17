//! `ledgerbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload, prints a human-readable report, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` they are the per-layer ones. Exit code 2 means the
//! arguments were rejected.

use ledgerbench::report::Mode;
use ledgerbench::{args, e2e, ledger};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}\n{}", args::USAGE);
            std::process::exit(2);
        }
    };
    let (mut report, mode) = if args.trace {
        (ledger::run(&args), Mode::PerLayer)
    } else {
        (e2e::run(&args), Mode::EndToEnd)
    };
    if let Err(e) = report.order(mode) {
        panic!("the report does not match the metric list: {e}");
    }
    print!("{}", report.human(mode));
    println!("{}", report.json());
}
