//! The trial workloads: `cover-expander`, `growth-sparse` and `adversity-stack`.
//!
//! Untraced, a run instantiates the graph (`setup_s`), then spends half its time on the
//! default engine (trial-parallel batches through `driver::run_spec_trials`, as
//! `repro --process` runs them) and half on the stream engine (one trial at a time at
//! `threads = nproc`). Traced, it drives each layer call itself inside spans and derives the
//! per-layer rows; [`layer_rows`] is shared with the serve-mix traced run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use cobra_core::sim::{
    ActiveCountTrace, CoverageTrace, FirstVisitTimes, Observer, RunOutcome, Runner, StopReason,
};
use cobra_core::spec::ProcessSpec;
use cobra_core::{CoreError, CountingRng, SpreadingProcess};
use cobra_experiments::driver;
use cobra_graph::generators::GraphFamily;
use cobra_graph::sample::VertexStreams;
use cobra_graph::{Graph, VertexId};
use cobra_stats::parallel::{run_trials, TrialConfig};
use cobra_stats::rng::{SeedSequence, TrialRng};
use rand::RngCore;

use crate::stats::{mean, median, min_samples_for_tail, quantile};
use crate::trace::{self, Tracer};
use crate::{cpu_seconds, layers, peak_rss_mb, reset_peak_rss, serve_mix, Ctx, Report};

/// The bare process every wrapper row is compared against.
pub const BARE: &str = "cobra:k=2";
/// A wrapper stack whose trajectory is bit-identical to [`BARE`]: pure dispatch cost.
pub const BENIGN: &str = "cobra:k=2+drop=0+adv=oblivious+def=passive";
pub const ADVERSITY: &str = "cobra:k=2+drop=0.05+adv=dropfront:f=0.25+def=reseed:m=1%,cooldown=16";
pub const MAX_ROUNDS: usize = 10_000;

/// A trial workload: what runs, and how much of it a run measures.
#[derive(Debug, Clone)]
pub struct TrialWorkload {
    pub name: &'static str,
    pub spec: &'static str,
    pub family: String,
    /// Stop when the active set reaches this fraction of `n` instead of at full cover.
    pub coverage: Option<f64>,
    /// The wrapper stack the wrapper rows compare against bare COBRA.
    pub stack: &'static str,
    /// Trials per default-engine batch.
    pub batch: usize,
    pub setup_reps: usize,
    /// Traced default-engine trials (and stream-engine trials per thread count).
    pub traced_trials: usize,
}

pub fn workload(name: &str, toy: bool) -> Option<TrialWorkload> {
    let n = |full: usize, small: usize| if toy { small } else { full };
    let w = match name {
        "cover-expander" => TrialWorkload {
            name: "cover-expander",
            spec: BARE,
            family: format!("random-regular:n={},r=8", n(100_000, 2_000)),
            coverage: None,
            stack: BENIGN,
            batch: 8,
            setup_reps: 7,
            traced_trials: 6,
        },
        "growth-sparse" => TrialWorkload {
            name: "growth-sparse",
            spec: BARE,
            family: format!("random-regular:n={},r=8", n(1_000_000, 20_000)),
            coverage: Some(0.01),
            stack: BENIGN,
            batch: 16,
            setup_reps: 3,
            traced_trials: 12,
        },
        "adversity-stack" => TrialWorkload {
            name: "adversity-stack",
            spec: ADVERSITY,
            family: format!("random-regular:n={},r=8", n(100_000, 2_000)),
            coverage: None,
            stack: ADVERSITY,
            batch: 8,
            setup_reps: 7,
            traced_trials: 4,
        },
        _ => return None,
    };
    Some(if toy { TrialWorkload { batch: 4, setup_reps: 2, traced_trials: 3, ..w } } else { w })
}

/// Parsed inputs of one (spec, graph) measurement, with the CLI's seeding path.
pub struct Prepared {
    pub spec: ProcessSpec,
    pub family: GraphFamily,
    pub coverage: Option<f64>,
    pub runner: Runner,
    pub seq: SeedSequence,
    pub label: String,
    pub graph: Graph,
}

impl Prepared {
    /// Instantiates `reps` members of `family` on the instance streams `reps - 1` down to
    /// `0`, each replacing the last, and returns the prepared inputs around instance 0 (the
    /// one `repro --process` builds) with each instantiation's seconds. Timing several
    /// members keeps one seed whose generator happens to retry (≈3× slower) from setting
    /// `setup_s` alone.
    pub fn new(
        spec: &str,
        family: &str,
        coverage: Option<f64>,
        seed: u64,
        reps: usize,
        mut instantiate_span: impl FnMut(&mut dyn FnMut()),
    ) -> Result<(Prepared, Vec<f64>), String> {
        let spec: ProcessSpec = spec.parse().map_err(|e| format!("spec {spec}: {e}"))?;
        let family: GraphFamily = family.parse().map_err(|e| format!("graph {family}: {e}"))?;
        let seq = SeedSequence::new(seed).child("ad-hoc");
        let mut graph = None;
        let mut error = None;
        let mut times = Vec::new();
        for instance in (0..reps.max(1) as u64).rev() {
            drop(graph.take());
            let start = Instant::now();
            instantiate_span(&mut || match family
                .instantiate(&mut seq.trial_rng("instance", instance))
            {
                Ok(g) => graph = Some(g),
                Err(e) => error = Some(format!("cannot instantiate {family}: {e}")),
            });
            times.push(start.elapsed().as_secs_f64());
        }
        if let Some(error) = error {
            return Err(error);
        }
        let graph = graph.expect("instantiated at least once");
        spec.build(&graph).map_err(|e| format!("cannot run {spec} on {family}: {e}"))?;
        let mut runner = Runner::new(MAX_ROUNDS);
        if let Some(fraction) = coverage {
            runner = runner.until_coverage(fraction).map_err(|e| e.to_string())?;
        }
        let label = format!("{spec}@{family}");
        Ok((Prepared { spec, family, coverage, runner, seq, label, graph }, times))
    }

    fn goal(&self, process: &dyn SpreadingProcess) -> Option<StopReason> {
        if let Some(fraction) = self.coverage {
            let threshold = (fraction * process.num_vertices() as f64).ceil() as usize;
            if process.num_active() >= threshold {
                return Some(StopReason::TargetReached);
            }
        }
        process.is_complete().then_some(StopReason::Completed)
    }
}

pub fn run(w: &TrialWorkload, ctx: &Ctx, trace: bool, report: &mut Report) -> Result<(), String> {
    if trace {
        return run_traced(w, ctx, report);
    }
    let (p, setup) = Prepared::new(w.spec, &w.family, w.coverage, ctx.seed, w.setup_reps, |f| f())?;
    report.metric(
        "setup_s",
        median(&setup),
        setup.len(),
        format!("instantiate {}, median over instances", p.family),
    );
    reset_peak_rss();
    let timed = timed_phase(&p, w.batch, ctx, report);
    report.metric("peak_rss_mb", peak_rss_mb(), 1, "VmHWM of the benchmark process after setup");
    if let Some(outcomes) = timed.first_batch {
        let sequential = driver::run_spec_trials(
            &p.graph,
            &p.spec,
            &p.runner,
            &p.seq,
            &batch_label(&p.label, 0),
            TrialConfig::sequential(w.batch),
        );
        report.check(
            "default.parallel_equals_sequential",
            outcomes == sequential,
            format!("first batch of {} trials", w.batch),
        );
    } else {
        report.check("default.parallel_equals_sequential", false, "first batch failed");
    }
    check_stream_thread_invariance(&p, ctx, &timed.stream_outcomes, report);
    check_benign_stack(&p, report);
    Ok(())
}

fn batch_label(label: &str, batch: usize) -> String {
    format!("{label}#batch{batch}")
}

fn stream_rng(p: &Prepared, index: usize) -> TrialRng {
    p.seq.trial_rng(&format!("{}#stream", p.label), index as u64)
}

fn count_outcomes(report: &mut Report, engine: &str, outcomes: &[RunOutcome]) {
    let completed = outcomes.iter().filter(|o| o.completed()).count();
    report.note(format!("{engine}: {completed} of {} trials reached their goal", outcomes.len()));
}

#[derive(Default)]
struct Timed {
    first_batch: Option<Vec<RunOutcome>>,
    stream_outcomes: Vec<RunOutcome>,
}

/// The timed phase: default-engine batches (trial-parallel through
/// `driver::run_spec_trials`) alternate with stream-engine trials (one at a time at
/// `threads = nproc`, from `build_parallel` to stop), each engine getting half the time,
/// until `--seconds` have passed and both have enough samples.
///
/// Stream trials are reported as CPU time (all threads). Their wall clock waits at a
/// fork-join every round, so CPU time the hypervisor steals from either core stretches it
/// many times over: at 10 % steal the wall-clock p50 rose by half, the CPU-time p50 by 4 %.
fn timed_phase(p: &Prepared, batch: usize, ctx: &Ctx, report: &mut Report) -> Timed {
    let budget = Duration::from_secs_f64(ctx.seconds);
    let min_stream = min_samples_for_tail(0.9);
    let start = Instant::now();
    let (mut default_time, mut stream_time) = (Duration::ZERO, Duration::ZERO);
    let (mut rates, mut stream_ms) = (Vec::new(), Vec::new());
    let mut stream_cpu_ms = Vec::new();
    let mut default_outcomes = Vec::new();
    let mut timed = Timed::default();
    loop {
        let enough = rates.len() >= 5 && stream_ms.len() >= min_stream;
        if (start.elapsed() >= budget && enough) || start.elapsed() >= budget * 3 {
            break;
        }
        let t = Instant::now();
        if default_time <= stream_time {
            let label = batch_label(&p.label, rates.len());
            let result = catch_unwind(AssertUnwindSafe(|| {
                driver::run_spec_trials(
                    &p.graph,
                    &p.spec,
                    &p.runner,
                    &p.seq,
                    &label,
                    TrialConfig::parallel(batch),
                )
            }));
            let elapsed = t.elapsed();
            default_time += elapsed;
            report.attempted += batch as u64;
            match result {
                Ok(outcomes) => {
                    rates.push(batch as f64 / elapsed.as_secs_f64());
                    default_outcomes.extend_from_slice(&outcomes);
                    timed.first_batch.get_or_insert(outcomes);
                }
                Err(_) => report.failed += batch as u64,
            }
        } else {
            let mut rng = stream_rng(p, stream_ms.len());
            let cpu = cpu_seconds();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut process = p.spec.build_parallel(&p.graph, ctx.threads, &mut rng)?;
                Ok::<_, CoreError>(p.runner.run(process.as_mut(), &mut rng))
            }));
            let elapsed = t.elapsed();
            stream_time += elapsed;
            report.attempted += 1;
            match result {
                Ok(Ok(outcome)) => {
                    stream_cpu_ms.push((cpu_seconds() - cpu) * 1e3);
                    stream_ms.push(elapsed.as_secs_f64() * 1e3);
                    timed.stream_outcomes.push(outcome);
                }
                _ => report.failed += 1,
            }
        }
    }
    count_outcomes(report, "default engine", &default_outcomes);
    count_outcomes(report, "stream engine", &timed.stream_outcomes);
    report.metric(
        "throughput_per_s",
        median(&rates),
        rates.len(),
        format!(
            "trials_per_s: default engine, batches of {batch} trials over {} threads, median \
             of {} batches ({} trials)",
            ctx.threads,
            rates.len(),
            default_outcomes.len()
        ),
    );
    let note = |q: &str, wall: f64| {
        format!(
            "stream_trial_cpu_ms_{q}: stream engine at {} threads, {} trials; wall clock \
             stream_trial_ms_{q} {wall:.3} ms",
            ctx.threads,
            stream_ms.len()
        )
    };
    let (p50, p90) = (quantile(&stream_ms, 0.5), quantile(&stream_ms, 0.9));
    report.metric("time_ms_p50", median(&stream_cpu_ms), stream_ms.len(), note("p50", p50));
    report.metric("time_ms_tail", quantile(&stream_cpu_ms, 0.9), stream_ms.len(), note("p90", p90));
    if stream_ms.len() < min_stream {
        report.note(format!("stream p90 has {} samples, fewer than {min_stream}", stream_ms.len()));
    }
    timed
}

/// Runs `process` to the prepared goal, recording each round's active set (for
/// [`ActiveCountTrace`]-style comparisons).
fn trajectory(
    p: &Prepared,
    process: &mut dyn SpreadingProcess,
    rng: &mut dyn RngCore,
) -> (RunOutcome, Vec<usize>) {
    let mut counts = ActiveCountTrace::new();
    let outcome = p.runner.run_observed(process, rng, &mut [&mut counts as &mut dyn Observer]);
    (outcome, counts.into_trace())
}

fn check_stream_thread_invariance(
    p: &Prepared,
    ctx: &Ctx,
    timed: &[RunOutcome],
    report: &mut Report,
) {
    let k = timed.len().min(3);
    let mut ok = k > 0;
    let mut detail = format!("{k} trials at 1 and {} threads", ctx.threads);
    for (i, expected) in timed.iter().enumerate().take(k) {
        let mut runs = Vec::new();
        for threads in [1, ctx.threads] {
            let mut rng = stream_rng(p, i);
            match p.spec.build_parallel(&p.graph, threads, &mut rng) {
                Ok(mut process) => runs.push(trajectory(p, process.as_mut(), &mut rng)),
                Err(e) => detail = format!("build_parallel failed: {e}"),
            }
        }
        ok &= runs.len() == 2 && runs[0] == runs[1] && runs[0].0 == *expected;
    }
    report.check("stream.t1_equals_tN", ok, detail);
}

/// Bare COBRA against the benign stack on the same trial RNG: the same trajectory, the same
/// rounds and the same `CountingRng` word count.
fn check_benign_stack(p: &Prepared, report: &mut Report) {
    let trials = 2;
    let mut ok = true;
    for i in 0..trials {
        let mut runs = Vec::new();
        for spec in [BARE, BENIGN] {
            let spec: ProcessSpec = spec.parse().expect("constant spec parses");
            let mut rng = CountingRng::new(p.seq.trial_rng(&format!("{}#benign", p.label), i));
            let mut process = spec.build(&p.graph).expect("bare and benign specs build");
            let (outcome, counts) = trajectory(p, process.as_mut(), &mut rng);
            runs.push((outcome, counts, rng.count()));
        }
        ok &= runs[0] == runs[1];
    }
    report.check(
        "wrapper.benign_equals_bare",
        ok,
        format!("{trials} trials of {BENIGN} vs {BARE}"),
    );
}

/// The self-test's deliberately wrong expected output: a perturbed outcome list must fail
/// the same comparison the output checks use.
pub fn check_catches_wrong_outcome(ctx: &Ctx) -> bool {
    let Ok((p, _)) = Prepared::new(BARE, "random-regular:n=256,r=4", None, ctx.seed, 1, |f| f())
    else {
        return false;
    };
    let outcomes = driver::run_spec_trials(
        &p.graph,
        &p.spec,
        &p.runner,
        &p.seq,
        &p.label,
        TrialConfig::parallel(4),
    );
    let mut wrong = outcomes.clone();
    wrong[0].rounds += 1;
    let mut report = Report::default();
    report.check("default.parallel_equals_sequential", outcomes == wrong, "perturbed expectation");
    !report.correct()
}

// ---------------------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------------------

struct StepLog {
    active_before: usize,
    ns: u64,
    words: u64,
}

struct TracedTrial {
    outcome: RunOutcome,
    build_ns: u64,
    steps: Vec<StepLog>,
    frontiers: Vec<Vec<VertexId>>,
}

impl TracedTrial {
    fn step_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.ns).sum()
    }
    fn words(&self) -> u64 {
        self.steps.iter().map(|s| s.words).sum()
    }
    fn active_stepped(&self) -> usize {
        self.steps.iter().map(|s| s.active_before).sum()
    }
}

type Built<'g> = Result<Box<dyn SpreadingProcess + Send + 'g>, CoreError>;

/// Builds and steps one trial with a span around the build and around every `step`,
/// stopping exactly where `Runner::run` would (`full_cover` ignores a coverage target).
#[allow(clippy::too_many_arguments)]
fn traced_trial<'g>(
    tracer: &Tracer,
    p: &Prepared,
    group: u64,
    parent: u64,
    build_name: &'static str,
    step_name: &'static str,
    full_cover: bool,
    keep_frontiers: bool,
    rng: &mut dyn RngCore,
    build: impl FnOnce(&mut dyn RngCore) -> Built<'g>,
) -> Result<TracedTrial, String> {
    tracer.span(trace::CORE, "sim.trial", group, parent, |trial| {
        let mut counting = CountingRng::new(rng);
        let start = Instant::now();
        let mut process = tracer
            .span(trace::CORE, build_name, group, trial, |_| build(&mut counting))
            .map_err(|e| format!("{build_name}: {e}"))?;
        let build_ns = start.elapsed().as_nanos() as u64;
        counting.reset_count();
        let goal = |process: &dyn SpreadingProcess| {
            if full_cover {
                process.is_complete().then_some(StopReason::Completed)
            } else {
                p.goal(process)
            }
        };
        let mut steps = Vec::new();
        let mut frontiers = Vec::new();
        let mut reason = goal(process.as_ref());
        while reason.is_none() && process.round() < p.runner.max_rounds() {
            let active_before = process.num_active();
            let start = Instant::now();
            tracer.span(trace::CORE, step_name, group, trial, |_| process.step(&mut counting));
            steps.push(StepLog {
                active_before,
                ns: start.elapsed().as_nanos() as u64,
                words: counting.take_count(),
            });
            if keep_frontiers {
                let mut frontier = Vec::with_capacity(process.num_active());
                process.for_each_active(&mut |v| frontier.push(v));
                frontiers.push(frontier);
            }
            reason = goal(process.as_ref());
        }
        let outcome = RunOutcome {
            rounds: process.round(),
            final_active: process.num_active(),
            num_vertices: process.num_vertices(),
            reason: reason.unwrap_or(StopReason::BudgetExhausted),
        };
        Ok(TracedTrial { outcome, build_ns, steps, frontiers })
    })
}

/// Median step time in µs over rounds whose active set before the step is sparse
/// (< 5 % of n) or saturated (≥ 50 % of n).
fn step_us(trials: &[TracedTrial], n: usize, saturated: bool) -> (f64, usize) {
    let times: Vec<f64> = trials
        .iter()
        .flat_map(|t| &t.steps)
        .filter(|s| if saturated { s.active_before * 2 >= n } else { s.active_before * 20 < n })
        .map(|s| s.ns as f64 / 1e3)
        .collect();
    (median(&times), times.len())
}

fn has_saturated(trials: &[TracedTrial], n: usize) -> bool {
    trials.iter().flat_map(|t| &t.steps).any(|s| s.active_before * 2 >= n)
}

/// Per-layer rows for the cobra_graph and cobra_core layers on `p`, comparing `stack`
/// against bare COBRA for the wrapper rows. `trials` bounds the traced trial count.
pub fn layer_rows(
    p: &Prepared,
    stack: &str,
    trials: usize,
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let n = p.graph.num_vertices();
    let calls = if ctx.toy { 1 << 12 } else { 1 << 20 };
    let mut micro_rng = p.seq.trial_rng("perfbench-micro", 0);
    report.metric(
        "graph.heap_mb",
        p.graph.heap_bytes() as f64 / (1 << 20) as f64,
        1,
        "Graph::heap_bytes",
    );
    let fetch = tracer.span(trace::GRAPH, "graph.neighbor", 0, 0, |_| {
        layers::neighbor_fetch_ns(&p.graph, &mut micro_rng, calls)
    });
    report.metric(
        "graph.neighbor_fetch_ns",
        fetch,
        calls,
        "Graph::neighbor at random (vertex, slot)",
    );
    let degree = p.graph.max_degree().unwrap_or(1).max(1);
    let draw = tracer.span(trace::GRAPH, "sample.uniform_index", 0, 0, |_| {
        layers::uniform_index_ns(&mut micro_rng, degree, calls)
    });
    report.metric("sample.uniform_index_ns", draw, calls, format!("bound {degree}, trial RNG"));
    let streams = VertexStreams::from_rng(&mut micro_rng);
    let entities = (calls / 4) as u64;
    let (open, word) = tracer
        .span(trace::GRAPH, "sample.stream", 0, 0, |_| layers::stream_costs(&streams, entities));
    report.metric("sample.stream_open_ns", open, entities as usize, "VertexStreams::stream");
    report.metric(
        "sample.stream_word_ns",
        word,
        entities as usize * layers::STREAM_WORDS,
        format!("each of {} next_u64 after open", layers::STREAM_WORDS),
    );

    // Default engine: the driver's seeding path (`run_trials`) with every build and step in
    // a span, each trial paired with an untraced `Runner::run` of the same RNG.
    let label = format!("{}#traced", p.label);
    let paired = tracer.span(trace::STATS, "parallel.run_trials", 0, 0, |parent| {
        run_trials(&p.seq, &label, TrialConfig::sequential(trials), |i, rng| {
            let mut plain_rng = rng.clone();
            let plain = |plain_rng: &mut TrialRng| {
                tracer.span(trace::CORE, "sim.untraced_trial", i as u64 + 1, parent, |_| {
                    let start = Instant::now();
                    let mut process = p.spec.build(&p.graph).expect("spec validated at setup");
                    let outcome = p.runner.run(process.as_mut(), plain_rng);
                    (outcome, start.elapsed().as_nanos() as u64)
                })
            };
            let traced = |rng: &mut TrialRng| {
                let start = Instant::now();
                let trial = traced_trial(
                    tracer,
                    p,
                    i as u64 + 1,
                    parent,
                    "spec.build",
                    "process.step",
                    false,
                    i == 0,
                    rng,
                    |_| p.spec.build(&p.graph),
                );
                (trial, start.elapsed().as_nanos() as u64)
            };
            // Alternate which side runs first.
            let (plain, traced) = if i % 2 == 0 {
                let plain = plain(&mut plain_rng);
                (plain, traced(rng))
            } else {
                let traced = traced(rng);
                (plain(&mut plain_rng), traced)
            };
            (plain, traced)
        })
    });
    let mut core = Vec::new();
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let mut same = true;
    for ((plain_outcome, plain_time), (trial, traced_time)) in paired {
        let trial = trial?;
        same &= trial.outcome == plain_outcome;
        plain_ns += plain_time;
        traced_ns += traced_time;
        core.push(trial);
    }
    report.check(
        "trace.loop_equals_runner",
        same,
        format!("{trials} traced trials vs Runner::run"),
    );
    count_outcomes(
        report,
        "traced default engine",
        &core.iter().map(|t| t.outcome).collect::<Vec<_>>(),
    );
    let builds: Vec<f64> = core.iter().map(|t| t.build_ns as f64 / 1e3).collect();
    report.metric("core.build_us", median(&builds), builds.len(), "ProcessSpec::build per trial");
    let rounds: Vec<f64> = core.iter().map(|t| t.outcome.rounds as f64).collect();
    let total_rounds: f64 = rounds.iter().sum();
    report.metric("core.rounds_per_trial", mean(&rounds), rounds.len(), "mean over traced trials");
    let words: u64 = core.iter().map(TracedTrial::words).sum();
    report.metric(
        "core.rng_words_per_round",
        words as f64 / total_rounds.max(1.0),
        total_rounds as usize,
        format!("CountingRng words per round of {}", p.spec),
    );
    let (sparse, sparse_n) = step_us(&core, n, false);
    report.metric("core.step_us.sparse", sparse, sparse_n, "step with active < 5% n");
    let mut saturated_trials = Vec::new();
    if !has_saturated(&core, n) {
        // The workload stops before saturation: continue one trial to full cover.
        let mut rng = p.seq.trial_rng(&format!("{}#saturated", p.label), 0);
        saturated_trials.push(traced_trial(
            tracer,
            p,
            0,
            0,
            "spec.build",
            "process.step",
            true,
            false,
            &mut rng,
            |_| p.spec.build(&p.graph),
        )?);
    }
    let saturated_source = if saturated_trials.is_empty() { &core } else { &saturated_trials };
    let (saturated, saturated_n) = step_us(saturated_source, n, true);
    report.metric("core.step_us.saturated", saturated, saturated_n, "step with active >= 50% n");

    let (insert, collect) =
        tracer.span(trace::GRAPH, "bitset", 0, 0, |_| layers::bitset_costs(n, &core[0].frontiers));
    let items: usize = core[0].frontiers.iter().map(Vec::len).sum();
    report.metric(
        "bitset.insert_ns",
        insert,
        items,
        "VertexBitset::insert over trial 0's frontiers",
    );
    report.metric("bitset.collect_ns_per_item", collect, items, "VertexBitset::collect_into");

    // Reconciliation: span sums against the measured (untraced) trial time, and counts ×
    // micro-costs against the saturated step. COBRA makes one neighbour fetch and one bitset
    // insert per draw.
    let span_sum: u64 = core.iter().map(|t| t.build_ns + t.step_ns()).sum();
    let recon_time = span_sum as f64 / plain_ns.max(1) as f64;
    report.metric(
        "recon.span_sum_ratio",
        recon_time,
        core.len(),
        "(build + sum of steps) / untraced trial time",
    );
    let sat_steps: Vec<&StepLog> = saturated_source
        .iter()
        .flat_map(|t| &t.steps)
        .filter(|s| s.active_before * 2 >= n)
        .collect();
    let sat_words = mean(&sat_steps.iter().map(|s| s.words as f64).collect::<Vec<_>>());
    let modelled_us = sat_words * (draw + fetch + insert) / 1e3;
    report.metric(
        "recon.step_model_ratio",
        modelled_us / saturated,
        sat_steps.len(),
        format!("{sat_words:.0} draws x (draw + fetch + insert ns) / saturated step"),
    );
    report.metric(
        "trace.overhead_ratio",
        traced_ns as f64 / plain_ns.max(1) as f64,
        core.len(),
        "traced trial time / untraced trial time",
    );
    report.note(format!(
        "reconciliation: layer rows explain {:.1}% of trial time and {:.1}% of a saturated step \
         (target within 15%)",
        recon_time * 100.0,
        modelled_us / saturated * 100.0
    ));

    wrapper_rows(p, stack, ctx, tracer, report)?;
    observer_rows(p, ctx, report);
    stream_rows(p, trials, ctx, tracer, report)?;
    let fan_items = 1024.max(ctx.threads);
    let calls = if ctx.toy { 50 } else { 2_000 };
    let fan = tracer.span(trace::CORE, "parallel.fan_out", 0, 0, |_| {
        layers::fan_out_us(ctx.threads, fan_items, calls)
    });
    report.metric(
        "parallel.fan_out_us",
        fan,
        calls,
        format!("empty shard op over {fan_items} items at {} threads", ctx.threads),
    );
    Ok(())
}

/// `stack` against bare COBRA: per-active-vertex step time ratio, and the stack's words
/// per round.
fn wrapper_rows(
    p: &Prepared,
    stack: &str,
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let trials = if ctx.toy { 1 } else { 2 };
    let mut per_vertex_ns = Vec::new();
    let mut stack_words = (0u64, 0usize);
    for spec_text in [BARE, stack] {
        let spec: ProcessSpec = spec_text.parse().map_err(|e| format!("{spec_text}: {e}"))?;
        let (mut ns, mut active) = (0u64, 0usize);
        for i in 0..trials {
            let mut rng = p.seq.trial_rng(&format!("{}#wrapper", p.label), i);
            let trial = traced_trial(
                tracer,
                p,
                0,
                0,
                "spec.build",
                "process.step",
                false,
                false,
                &mut rng,
                |_| spec.build(&p.graph),
            )?;
            ns += trial.step_ns();
            active += trial.active_stepped();
            if spec_text == stack {
                stack_words.0 += trial.words();
                stack_words.1 += trial.outcome.rounds;
            }
        }
        per_vertex_ns.push(ns as f64 / active.max(1) as f64);
    }
    report.metric(
        "wrapper.step_overhead",
        per_vertex_ns[1] / per_vertex_ns[0],
        trials as usize * 2,
        format!("step ns per active vertex, {stack} / {BARE}"),
    );
    report.metric(
        "wrapper.rng_words_per_round",
        stack_words.0 as f64 / stack_words.1.max(1) as f64,
        stack_words.1,
        format!("CountingRng words per round of {stack} (compare core.rng_words_per_round)"),
    );
    Ok(())
}

/// `Runner::run_observed` with `CoverageTrace` + `FirstVisitTimes` minus `Runner::run`, per
/// round, on identical trials.
fn observer_rows(p: &Prepared, ctx: &Ctx, report: &mut Report) {
    let trials = if ctx.toy { 2 } else { 4 };
    let (mut extra_ns, mut rounds) = (0f64, 0usize);
    for i in 0..trials {
        let rng = p.seq.trial_rng(&format!("{}#observer", p.label), i);
        let plain = || {
            let mut rng = rng.clone();
            let mut process = p.spec.build(&p.graph).expect("spec validated at setup");
            let start = Instant::now();
            let outcome = p.runner.run(process.as_mut(), &mut rng);
            (start.elapsed().as_nanos() as f64, outcome.rounds)
        };
        let observed = || {
            let mut rng = rng.clone();
            let mut process = p.spec.build(&p.graph).expect("spec validated at setup");
            let (mut coverage, mut visits) = (CoverageTrace::new(), FirstVisitTimes::new());
            let mut observers: [&mut dyn Observer; 2] = [&mut coverage, &mut visits];
            let start = Instant::now();
            let outcome = p.runner.run_observed(process.as_mut(), &mut rng, &mut observers);
            (start.elapsed().as_nanos() as f64, outcome.rounds)
        };
        let (a, b) = if i % 2 == 0 {
            (plain(), observed())
        } else {
            let o = observed();
            (plain(), o)
        };
        extra_ns += b.0 - a.0;
        rounds += a.1;
    }
    report.metric(
        "sim.observer_us_per_round",
        extra_ns / rounds.max(1) as f64 / 1e3,
        rounds,
        "run_observed(CoverageTrace + FirstVisitTimes) - run, per round",
    );
}

/// Stream-engine rows: `build_parallel`, and `step` at 1 and at nproc threads.
fn stream_rows(
    p: &Prepared,
    trials: usize,
    ctx: &Ctx,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let n = p.graph.num_vertices();
    let mut builds = Vec::new();
    let mut outcomes: Vec<Vec<RunOutcome>> = Vec::new();
    for (threads, suffix) in [(1, "t1"), (ctx.threads, "tN")] {
        let mut runs = Vec::new();
        for i in 0..trials {
            let mut rng = stream_rng(p, i);
            runs.push(traced_trial(
                tracer,
                p,
                i as u64 + 1,
                0,
                "spec.build_parallel",
                "parallel.step",
                false,
                false,
                &mut rng,
                |rng| p.spec.build_parallel(&p.graph, threads, rng),
            )?);
        }
        if threads == ctx.threads {
            builds.extend(runs.iter().map(|t| t.build_ns as f64 / 1e3));
        }
        outcomes.push(runs.iter().map(|t| t.outcome).collect());
        if !has_saturated(&runs, n) {
            let mut rng = stream_rng(p, usize::MAX >> 1);
            runs.push(traced_trial(
                tracer,
                p,
                0,
                0,
                "spec.build_parallel",
                "parallel.step",
                true,
                false,
                &mut rng,
                |rng| p.spec.build_parallel(&p.graph, threads, rng),
            )?);
        }
        let (sparse, sparse_n) = step_us(&runs, n, false);
        let (saturated, saturated_n) = step_us(&runs, n, true);
        let (sparse_name, saturated_name) = match suffix {
            "t1" => ("parallel.step_us.sparse.t1", "parallel.step_us.saturated.t1"),
            _ => ("parallel.step_us.sparse.tN", "parallel.step_us.saturated.tN"),
        };
        report.metric(
            sparse_name,
            sparse,
            sparse_n,
            format!("stream step at {threads} threads, active < 5% n"),
        );
        report.metric(
            saturated_name,
            saturated,
            saturated_n,
            format!("stream step at {threads} threads, active >= 50% n"),
        );
    }
    report.metric(
        "parallel.build_us",
        median(&builds),
        builds.len(),
        format!("build_parallel at {} threads", ctx.threads),
    );
    report.check(
        "trace.stream_t1_equals_tN",
        outcomes[0] == outcomes[1],
        format!("{trials} traced stream trials"),
    );
    Ok(())
}

fn run_traced(w: &TrialWorkload, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tracer = Tracer::new();
    let (p, times) = Prepared::new(w.spec, &w.family, w.coverage, ctx.seed, 1, |f| {
        tracer.span(trace::GRAPH, "graph.instantiate", 0, 0, |_| f())
    })?;
    report.metric(
        "graph.instantiate_ms",
        times[0] * 1e3,
        1,
        format!("GraphFamily::instantiate {}", p.family),
    );
    layer_rows(&p, w.stack, w.traced_trials, ctx, &tracer, report)?;
    drop(p);
    serve_mix::serve_rows(ctx, &tracer, report)?;
    finish_trace(w.name, ctx, &tracer, report);
    Ok(())
}

/// Self time per layer from the spans, and the span dump.
pub fn finish_trace(workload: &str, ctx: &Ctx, tracer: &Tracer, report: &mut Report) {
    let spans = tracer.spans().len();
    for (layer, seconds) in tracer.self_seconds_by_layer() {
        let name = match layer {
            trace::GRAPH => "self_s.cobra_graph",
            trace::CORE => "self_s.cobra_core",
            trace::EXPERIMENTS => "self_s.cobra_experiments",
            _ => "self_s.cobra_stats",
        };
        report.metric(name, seconds, spans, "self time from spans");
    }
    let path =
        std::path::PathBuf::from(format!("perfbench/out/spans-{workload}-{}.ndjson", ctx.seed));
    match tracer.write(&path) {
        Ok(()) => report.note(format!("{spans} spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
    }
}
