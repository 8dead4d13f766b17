//! The run report: human-readable lines, then one JSON result line.

use crate::stats::Quartiles;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Reported value.
    pub value: f64,
    /// Sample count behind the value.
    pub samples: usize,
    /// Within-run interquartile range of the samples as a share of
    /// their median.
    pub spread: f64,
    /// Context printed beside the value, such as a ratio's base.
    pub note: Option<String>,
}

impl Metric {
    /// The listed metric `name` with `value`, carrying the sample count
    /// and spread of the samples `q` it was derived from. Panics if
    /// `name` is in neither metric list: that is a bug in this benchmark.
    pub fn new(name: &str, value: f64, q: &Quartiles) -> Metric {
        let &(_, unit, better) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples: q.n,
            spread: q.spread(),
            note: None,
        }
    }

    /// The same metric with printed context attached.
    pub fn with_note(mut self, note: &str) -> Metric {
        self.note = Some(note.to_string());
        self
    }
}

/// Which metric list a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Untraced run: the end-to-end metrics.
    EndToEnd,
    /// Traced run: the per-layer metrics.
    PerLayer,
}

/// The end-to-end metrics every untraced run reports: name, unit and
/// direction, in report order.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("ops_per_s", "1/s", Better::Higher),
    ("latency_us", "us", Better::Lower),
    ("bandwidth_mbps", "Mbps", Better::Higher),
    ("setup_s", "s", Better::Lower),
    ("heap_peak_mb", "MB", Better::Lower),
];

/// The per-layer metrics every traced run reports, in report order.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("simcore.events", "count", Better::Lower),
    ("simcore.step_ns", "ns", Better::Lower),
    ("simcore.queue_depth_max", "count", Better::Lower),
    ("simcore.allocs_per_event", "allocs/event", Better::Lower),
    ("simcore.hold_ns.d16", "ns", Better::Lower),
    ("simcore.hold_ns.d4096", "ns", Better::Lower),
    ("protosim.engine_build_ns", "ns", Better::Lower),
    (
        "protosim.engine_build_allocs",
        "allocs/build",
        Better::Lower,
    ),
    ("mpsim.establish_ns", "ns", Better::Lower),
    ("mpsim.pingpong_post_ns", "ns", Better::Lower),
    ("netpipe.points", "count", Better::Higher),
    ("netpipe.point_setup_share", "ratio", Better::Lower),
    ("collectives.plan_ns.barrier", "ns", Better::Lower),
    ("collectives.plan_ns.allreduce", "ns", Better::Lower),
    ("collectives.plan_ns.bcast", "ns", Better::Lower),
    ("collectives.run_ns.barrier", "ns", Better::Lower),
    ("collectives.run_ns.allreduce", "ns", Better::Lower),
    ("collectives.run_ns.bcast", "ns", Better::Lower),
    (
        "collectives.allocs_per_event.barrier",
        "allocs/event",
        Better::Lower,
    ),
    (
        "collectives.allocs_per_event.allreduce",
        "allocs/event",
        Better::Lower,
    ),
    (
        "collectives.allocs_per_event.bcast",
        "allocs/event",
        Better::Lower,
    ),
    ("collectives.events.barrier", "count", Better::Lower),
    ("collectives.events.allreduce", "count", Better::Lower),
    ("collectives.events.bcast", "count", Better::Lower),
    ("collectives.sim_us.barrier", "us", Better::Lower),
    ("collectives.sim_us.allreduce", "us", Better::Lower),
    ("collectives.sim_us.bcast", "us", Better::Lower),
    ("collectives.combine_ns", "ns", Better::Lower),
    ("mplite.threads", "count", Better::Lower),
    ("mplite.send_ns.small", "ns", Better::Lower),
    ("mplite.recv_ns.small", "ns", Better::Lower),
    ("mplite.send_ns.large", "ns", Better::Lower),
    ("mplite.recv_ns.large", "ns", Better::Lower),
    ("mplite.crc_mbps", "Mbps", Better::Higher),
    ("mplite.decode_mbps.large", "Mbps", Better::Higher),
    ("mplite.decode_ns.small", "ns", Better::Lower),
    (
        "mplite.allocs_per_roundtrip.small",
        "allocs/rt",
        Better::Lower,
    ),
    (
        "mplite.allocs_per_roundtrip.large",
        "allocs/rt",
        Better::Lower,
    ),
    ("mplite.latency_p99_us", "us", Better::Lower),
    ("tracelab.overhead_x", "x", Better::Lower),
    ("ledgerbench.overhead_x.paper_sweep", "x", Better::Lower),
    ("ledgerbench.overhead_x.collective_sim", "x", Better::Lower),
    ("ledgerbench.overhead_x.mplite_pingpong", "x", Better::Lower),
];

impl Mode {
    /// The metric list this mode reports.
    pub fn metrics(self) -> &'static [(&'static str, &'static str, Better)] {
        match self {
            Mode::EndToEnd => END_TO_END,
            Mode::PerLayer => PER_LAYER,
        }
    }
}

/// Build fingerprint: where and how the numbers were produced.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} rustc=\"{}\" profile={} transport=loopback",
        env!("LEDGER_RUSTC"),
        env!("LEDGER_PROFILE")
    )
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Descriptions of every failed check (empty when correct).
    pub errors: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Every check passed and every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Put the metrics in `mode`'s list order and turn any non-finite
    /// value into a failed check. `Err` names any metric missing from or
    /// not in `mode`'s list.
    pub fn order(&mut self, mode: Mode) -> Result<(), String> {
        let list = mode.metrics();
        let mut ordered = Vec::with_capacity(list.len());
        for &(name, _, _) in list {
            let i = self
                .metrics
                .iter()
                .position(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let m = self.metrics.swap_remove(i);
            ordered.push(m);
        }
        // A value that could not be measured (nothing completed) is
        // reported as 0 in an incorrect run rather than as invalid JSON.
        for m in ordered.iter_mut().filter(|m| !m.value.is_finite()) {
            self.errors
                .push(format!("{} could not be measured", m.name));
            m.value = 0.0;
        }
        if let Some(extra) = self.metrics.first() {
            return Err(format!("metric {} is not listed", extra.name));
        }
        self.metrics = ordered;
        Ok(())
    }

    /// Human-readable lines: the run's identity, one line per metric
    /// with its direction, sample count and spread, then any failed
    /// checks.
    pub fn human(&self, mode: Mode) -> String {
        let mut out = format!(
            "ledgerbench workload={} seed={} mode={}\n{}\n",
            self.workload,
            self.seed,
            match mode {
                Mode::EndToEnd => "end-to-end",
                Mode::PerLayer => "per-layer",
            },
            fingerprint()
        );
        for m in &self.metrics {
            // Tiny values (set-up seconds) keep their digits.
            let value = if m.value != 0.0 && m.value.abs() < 0.01 {
                format!("{:.4e}", m.value)
            } else {
                format!("{:.4}", m.value)
            };
            out.push_str(&format!(
                "  {:<40} {:>16} {:<12} better={:<6} n={:<7} iqr={:<8}{}\n",
                m.name,
                value,
                m.unit,
                m.better.name(),
                m.samples,
                format!("{:.2}%", m.spread * 100.0),
                m.note
                    .as_deref()
                    .map_or(String::new(), |n| format!(" ({n})"))
            ));
        }
        out.push_str(&format!(
            "attempted={} failed={} correct={}\n",
            self.attempted,
            self.failed,
            self.correct()
        ));
        for e in &self.errors {
            out.push_str(&format!("check failed: {e}\n"));
        }
        out
    }

    /// The single-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
