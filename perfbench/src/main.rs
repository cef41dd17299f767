//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cover-expander|growth-sparse|adversity-stack|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1` is the separate
//! traced run that yields the per-layer metrics. Both print a human-readable report and end
//! with one JSON line `{"correct","attempted","failed","metrics"}`. Any failed output check
//! makes the run exit non-zero. See `perfbench/README.md` for the metric definitions.

mod layers;
mod serve_mix;
mod stats;
mod trace;
mod trials;

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every `--trace 0` run reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("time_ms_p50", "ms"),
    ("time_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Every `--trace 1` run reports each of them.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("graph.instantiate_ms", "ms"),
    ("graph.heap_mb", "MiB"),
    ("graph.neighbor_fetch_ns", "ns"),
    ("sample.uniform_index_ns", "ns"),
    ("sample.stream_open_ns", "ns"),
    ("sample.stream_word_ns", "ns"),
    ("bitset.insert_ns", "ns"),
    ("bitset.collect_ns_per_item", "ns"),
    ("core.build_us", "us"),
    ("core.step_us.sparse", "us"),
    ("core.step_us.saturated", "us"),
    ("core.rounds_per_trial", "count"),
    ("core.rng_words_per_round", "count"),
    ("parallel.build_us", "us"),
    ("parallel.step_us.sparse.t1", "us"),
    ("parallel.step_us.sparse.tN", "us"),
    ("parallel.step_us.saturated.t1", "us"),
    ("parallel.step_us.saturated.tN", "us"),
    ("parallel.fan_out_us", "us"),
    ("wrapper.step_overhead", "ratio"),
    ("wrapper.rng_words_per_round", "count"),
    ("sim.observer_us_per_round", "us"),
    ("protocol.parse_us", "us"),
    ("protocol.encode_us", "us"),
    ("cache.hit_us", "us"),
    ("cache.miss_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("scheduler.handoff_us", "us"),
    ("serve.accept_ms", "ms"),
    ("serve.plain_accept_ms", "ms"),
    ("serve.first_trial_ms_p50", "ms"),
    ("serve.first_trial_ms_p99", "ms"),
    ("recon.span_sum_ratio", "ratio"),
    ("recon.step_model_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("self_s.cobra_graph", "s"),
    ("self_s.cobra_core", "s"),
    ("self_s.cobra_experiments", "s"),
    ("self_s.cobra_stats", "s"),
];

pub const WORKLOADS: [&str; 4] =
    ["cover-expander", "growth-sparse", "adversity-stack", "serve-mix"];

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    /// Toy sizes for the self-test.
    pub toy: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (runs, batches, trials, jobs or spans).
    pub samples: usize,
    /// What the value is, under the name the README's metric tables give it.
    pub note: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        samples: usize,
        note: impl Into<String>,
    ) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.push(Metric { name, unit, value, samples, note: note.into() });
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed, _)| *passed)
    }

    /// Checks that the run reported exactly the declared metrics, each finite.
    fn check_complete(&mut self, declared: &[(&str, &str)]) {
        let missing: Vec<&str> = declared
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.iter().any(|m| m.name == *name))
            .collect();
        let extra: Vec<&str> = self
            .metrics
            .iter()
            .map(|m| m.name)
            .filter(|name| !declared.iter().any(|(d, _)| d == name))
            .collect();
        let non_finite: Vec<&str> =
            self.metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
        let ok = missing.is_empty() && extra.is_empty() && non_finite.is_empty();
        self.check(
            "metrics.complete",
            ok,
            format!("missing {missing:?}, undeclared {extra:?}, non-finite {non_finite:?}"),
        );
    }

    fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns memory freed during set-up to the OS and resets the peak resident set size to
/// the current one, so `peak_rss_mb` covers the measured phase. Without this the peak
/// carries set-up transients whose size varies with the seed (graph generation retries)
/// and with how much freed memory the allocator happens to keep. A no-op where the
/// platform offers neither.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free heap pages; it has no preconditions and
    // touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the enclosing git checkout, read from `.git` without spawning git.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown (not a git checkout)".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long` counters.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds this process has used so far, over all its threads, ended ones included.
/// Time the hypervisor steals is not charged. `NaN` where unsupported.
pub fn cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        const RUSAGE_SELF: i32 = 0;
        let mut usage = Rusage { utime: [0; 2], stime: [0; 2], counters: [0; 14] };
        // SAFETY: `usage` is a live, writable value with the layout of `struct rusage` on
        // 64-bit Linux, as `getrusage` requires.
        if unsafe { getrusage(RUSAGE_SELF, &mut usage) } == 0 {
            let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
            return seconds(usage.utime) + seconds(usage.stime);
        }
    }
    f64::NAN
}

/// `(steal, total)` CPU ticks summed over all CPUs, from `/proc/stat`; zeros elsewhere.
/// Steal is time the hypervisor gave this VM's CPUs to other guests.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|field| field.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn host_block(ctx: &Ctx, workload: &str, trace: bool) -> String {
    format!(
        "host: available_parallelism={} cpu=\"{}\" profile={} git_rev={} workload={workload} \
         seed={} seconds={} trace={}",
        ctx.threads,
        cpu_model(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        git_rev(),
        ctx.seed,
        ctx.seconds,
        u8::from(trace),
    )
}

/// Runs one workload and returns its report.
pub fn run_workload(workload: &str, ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut report = Report::default();
    match workload {
        "serve-mix" => serve_mix::run(ctx, trace, &mut report)?,
        name => {
            let w = trials::workload(name, ctx.toy)
                .ok_or_else(|| format!("unknown workload {name:?} (one of {WORKLOADS:?})"))?;
            trials::run(&w, ctx, trace, &mut report)?;
        }
    }
    report.check_complete(if trace { &PER_LAYER } else { &END_TO_END });
    Ok(report)
}

fn print_report(report: &Report) {
    for m in &report.metrics {
        println!(
            "metric {:<30} {:>14.6} {:<6} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for line in &report.notes {
        println!("note   {line}");
    }
    for (name, passed, detail) in &report.checks {
        println!("check  {:<36} {} {detail}", name, if *passed { "ok  " } else { "FAIL" });
    }
    let rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!("error_rate {rate} ({} failed of {} attempted)", report.failed, report.attempted);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    let seconds = seconds.ok_or_else(|| missing("seconds"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("trace"))?,
    }))
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs every workload in both modes at toy size, then proves the checks can fail.
fn self_test() -> ExitCode {
    let ctx = Ctx { seed: 7, seconds: 0.5, threads: threads(), toy: true };
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            match run_workload(workload, &ctx, trace) {
                Ok(report) => {
                    let passed = report.correct() && report.failed == 0;
                    if !passed {
                        print_report(&report);
                    }
                    println!(
                        "self-test {workload} trace={}: {} checks, {} metrics, {}",
                        u8::from(trace),
                        report.checks.len(),
                        report.metrics.len(),
                        if passed { "ok" } else { "FAIL" }
                    );
                    ok &= passed;
                }
                Err(error) => {
                    println!("self-test {workload} trace={}: error {error}", u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    // A deliberately wrong expected output must be caught by every comparison kind.
    for (name, caught) in [
        ("trial outcomes", trials::check_catches_wrong_outcome(&ctx)),
        ("served summary", serve_mix::check_catches_wrong_summary(&ctx)),
    ] {
        println!("self-test wrong {name}: {}", if caught { "caught" } else { "MISSED" });
        ok &= caught;
    }
    ok &= declared_metrics_match_benchmark_json();
    println!("self-test: {}", if ok { "ok" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric names in `BENCHMARK.json` (read from the working directory, the repository
/// root) must be exactly the ones this program reports.
fn declared_metrics_match_benchmark_json() -> bool {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("self-test: BENCHMARK.json not found in the working directory");
        return false;
    };
    let section = |key: &str| -> Vec<String> {
        let Some(start) = text.find(&format!("\"{key}\"")) else { return Vec::new() };
        let body = &text[start..];
        let end = body.find(']').unwrap_or(body.len());
        body[..end]
            .split("\"name\":")
            .skip(1)
            .filter_map(|part| part.trim().strip_prefix('"')?.split('"').next().map(String::from))
            .collect()
    };
    let names = |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    let ok = section("end_to_end") == names(&END_TO_END)
        && section("per_layer") == names(&PER_LAYER)
        && section("workloads") == WORKLOADS.map(String::from).to_vec();
    println!("self-test BENCHMARK.json names: {}", if ok { "match" } else { "MISMATCH" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return self_test(),
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, threads: threads(), toy: false };
    println!("{}", host_block(&ctx, &args.workload, args.trace));
    let (steal_before, total_before) = cpu_ticks();
    let report = match run_workload(&args.workload, &ctx, args.trace) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    print_report(&report);
    let (steal_after, total_after) = cpu_ticks();
    let steal = (steal_after - steal_before) as f64 / (total_after - total_before).max(1) as f64;
    println!("host: cpu steal during the run {:.1}%", steal * 100.0);
    println!("{}", report.json_line());
    if report.correct() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
