//! Command-line arguments, checked where they enter.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every curve of the paper's figures and tables, one after another.
    PaperSweep,
    /// A round of three 1024-rank simulated collectives.
    CollectiveSim,
    /// Real mplite round trips between two in-process ranks.
    MplitePingpong,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSweep,
        Workload::CollectiveSim,
        Workload::MplitePingpong,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::CollectiveSim => "collective_sim",
            Workload::MplitePingpong => "mplite_pingpong",
        }
    }
}

/// Validated arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured phase length, whole seconds (1–600).
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Usage text.
pub const USAGE: &str =
    "usage: ledgerbench --workload <paper_sweep|collective_sim|mplite_pingpong> \
--seed <u64> --seconds <1..600> --trace <0|1>";

/// Parse `--workload W --seed N --seconds S --trace 0|1` (any order,
/// each exactly once).
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| ArgError(format!("{flag} needs a value")))?;
        let slot_taken = match flag {
            "--workload" => workload
                .replace(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| ArgError(format!("unknown workload {value:?}")))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(
                    value
                        .parse::<u64>()
                        .map_err(|_| ArgError(format!("bad seed {value:?}")))?,
                )
                .is_some(),
            "--seconds" => seconds
                .replace(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| ArgError(format!("bad seconds {value:?}")))?,
                )
                .is_some(),
            "--trace" => trace
                .replace(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError(format!("bad trace {value:?}, want 0 or 1"))),
                })
                .is_some(),
            _ => return Err(ArgError(format!("unknown argument {flag:?}"))),
        };
        if slot_taken {
            return Err(ArgError(format!("{flag} given twice")));
        }
    }
    let missing = |name: &str| ArgError(format!("missing {name}"));
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}
