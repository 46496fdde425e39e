//! End-to-end and per-layer benchmark of the TurboAttention crates.
//!
//! One command drives three workloads from a seed:
//!
//! * `decode_long_gqa` — an 8-layer GQA request whose context grows from
//!   a 256-token prompt to 1792 tokens by teacher-forced decode, with one
//!   layer-WAL group commit per token (decode-bound, real kernels);
//! * `prefill_burst` — a closed loop of 48 MHA requests with prompts
//!   drawn from [256, 1024], 32 decode steps each, a checkpoint after
//!   prefill and a recovery check on one request in 4 (prefill-bound,
//!   real kernels);
//! * `sim_serving` — the serving simulator on the A100 cost model: the
//!   continuous-batching scheduler at four fixed rates, one diurnal fleet
//!   day with chaos bursts and one sharded episode with a kill (no real
//!   kernels; the bypass workload for every kernel change).
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics; traced runs
//! (`--trace 1`) record in-memory spans around every call into a crate
//! and report the per-layer metrics. Every run checks the outputs it
//! produces and reports ops attempted and failed per phase.

pub mod decode_long;
pub mod host;
pub mod json;
pub mod ledger;
pub mod prefill_burst;
pub mod probes;
pub mod report;
pub mod sim_serving;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DecodeLongGqa,
    PrefillBurst,
    SimServing,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DecodeLongGqa,
        Workload::PrefillBurst,
        Workload::SimServing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeLongGqa => "decode_long_gqa",
            Workload::PrefillBurst => "prefill_burst",
            Workload::SimServing => "sim_serving",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload scale: the measured size, or a seconds-long smoke size with
/// the same structure for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget; whole episodes run until it is spent.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its spans (`None`: not written).
    pub out_dir: Option<std::path::PathBuf>,
}

impl Opts {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_SECONDS`]; `setup_s` is the median, so one set-up slowed
/// by other tenants of the host does not move it.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_MIN_SECONDS: f64 = 0.5;

/// Runs `setup` repeatedly and returns the last result with the median
/// set-up time in seconds.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            return (value, stats::median(&times));
        }
    }
}

/// Runs `episode` until `budget` has elapsed (at least `min_runs` times)
/// and returns how many ran.
pub fn run_for(budget: Duration, min_runs: usize, mut episode: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min_runs || start.elapsed() < budget {
        episode(n);
        n += 1;
    }
    n
}

/// Runs one benchmark invocation.
pub fn run(opts: &Opts) -> report::Outcome {
    match opts.workload {
        Workload::DecodeLongGqa => decode_long::run(opts),
        Workload::PrefillBurst => prefill_burst::run(opts),
        Workload::SimServing => sim_serving::run(opts),
    }
}

/// Writes a traced run's spans to `<dir>/spans-<workload>-<seed>.json`.
pub fn write_spans(
    out: &report::Outcome,
    opts: &Opts,
    dir: &std::path::Path,
) -> std::io::Result<()> {
    if !opts.trace {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
    std::fs::write(path, out.tracer.to_json().render())
}
