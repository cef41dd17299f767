//! The `serve-mix` workload: `serve::spawn` driven over a real socket by a closed-loop load.
//!
//! `nproc` client connections each send their next `submit` + `results` only after the
//! previous `summary` arrived. Jobs are drawn Zipf-skewed over 16 (family, seed) keys with
//! a graph-cache budget below the working set, so hits, misses and evictions all occur.
//! Every served summary is checked byte for byte against the recomputation through
//! `driver::run_spec_trials` + `protocol::summary_event`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cobra_core::sim::{RunOutcome, Runner};
use cobra_experiments::driver;
use cobra_experiments::serve::cache::GraphCache;
use cobra_experiments::serve::protocol::{self, JobParams};
use cobra_experiments::serve::{spawn, ServeConfig, ServerHandle};
use cobra_graph::generators::GraphFamily;
use cobra_graph::Graph;
use cobra_stats::parallel::TrialConfig;
use cobra_stats::rng::{SeedSequence, TrialRng};
use rand::RngCore;

use crate::stats::{median, min_samples_for_tail, quantile};
use crate::trace::{self, Tracer};
use crate::trials::{self, Prepared, ADVERSITY, BARE};
use crate::{layers, peak_rss_mb, reset_peak_rss, Ctx, Report};

/// Graph families by popularity rank (rank 1 first). The chung-lu key is the build-heavy
/// one; its instance seed is fixed (see [`CHUNG_LU_SEED`]).
const FAMILIES: [&str; 16] = [
    "torus:sides=48x48",
    "random-regular:n=1000,r=4",
    "random-regular:n=2000,r=8",
    "torus:sides=32x32",
    "random-regular:n=4000,r=4",
    "random-regular:n=1000,r=8",
    "random-regular:n=8000,r=8",
    "chung-lu:n=512,gamma=3,d=8",
    "random-regular:n=2000,r=4",
    "random-regular:n=16000,r=4",
    "random-regular:n=4000,r=8",
    "torus:sides=64x64",
    "random-regular:n=8000,r=4",
    "random-regular:n=16000,r=8",
    "torus:sides=96x96",
    "random-regular:n=12000,r=8",
];

/// Chung–Lu generation retries until the instance has no isolated vertex, so its build
/// time swings with the instance seed (5 to 35 ms at n = 512, 0.2 to 2.2 s at n = 1024). A
/// fixed seed keeps the one build-heavy key equally heavy for every workload seed. At
/// n = 1024 a single rebuild stalled all clients for ≈0.5 s, and whether a run saw one or
/// two such stalls flipped its p99 between ≈230 and ≈480 ms.
const CHUNG_LU_SEED: u64 = 1;
/// Specs with their mix shares; the adversity stack only runs on random-regular keys.
const SPECS: [(&str, f64); 3] = [(BARE, 0.70), ("cobra:k=2+drop=0.1", 0.15), (ADVERSITY, 0.15)];
const TRACE_SHARE: f64 = 0.1;
const JOB_MAX_ROUNDS: usize = 5_000;
/// Cache budget as a share of the working set (all 16 instances).
const CACHE_SHARE: f64 = 0.75;
const SETUP_REPS: usize = 5;

/// Closed-loop clients: four per worker keep a short queue in front of the workers, so
/// jobs/s measures the server's capacity rather than the client-server round trip. With
/// one client per worker the quartile spread of jobs/s and p50 over five seeds was 0.14
/// and 0.16; with four it was 0.08.
fn clients(ctx: &Ctx) -> usize {
    4 * ctx.threads
}

fn unit(rng: &mut dyn RngCore) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The job mix: keys, their popularity, and the reference instances the checks use.
pub struct Mix {
    families: Vec<GraphFamily>,
    seeds: Vec<u64>,
    cdf: Vec<f64>,
    graphs: Vec<Graph>,
    instantiate_ms: Vec<f64>,
    cache_bytes: usize,
}

impl Mix {
    pub fn new(seed: u64, toy: bool) -> Result<Mix, String> {
        let count = if toy { 6 } else { FAMILIES.len() };
        let mut key_rng = SeedSequence::new(seed).trial_rng("serve-mix/keys", 0);
        let mut mix = Mix {
            families: Vec::new(),
            seeds: Vec::new(),
            cdf: Vec::new(),
            graphs: Vec::new(),
            instantiate_ms: Vec::new(),
            cache_bytes: 0,
        };
        let mut total = 0.0;
        for (rank, text) in FAMILIES.iter().take(count).enumerate() {
            let text = if toy {
                text.replace("chung-lu:n=512", "chung-lu:n=256")
            } else {
                text.to_string()
            };
            let family: GraphFamily = text.parse().map_err(|e| format!("graph {text}: {e}"))?;
            let key_seed = match family {
                GraphFamily::ChungLu { .. } => CHUNG_LU_SEED,
                _ => key_rng.next_u64() % 1_000_000_000,
            };
            let start = Instant::now();
            let graph = family
                .instantiate(&mut instance_rng(key_seed))
                .map_err(|e| format!("cannot instantiate {family}: {e}"))?;
            mix.instantiate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            total += 1.0 / (rank + 1) as f64;
            mix.cdf.push(total);
            mix.families.push(family);
            mix.seeds.push(key_seed);
            mix.graphs.push(graph);
        }
        for c in &mut mix.cdf {
            *c /= total;
        }
        let working_set: usize = mix.graphs.iter().map(Graph::heap_bytes).sum();
        mix.cache_bytes = (working_set as f64 * CACHE_SHARE) as usize;
        Ok(mix)
    }

    fn draw(&self, rng: &mut dyn RngCore) -> JobParams {
        let u = unit(rng);
        let key = self.cdf.iter().position(|&c| u < c).unwrap_or(self.cdf.len() - 1);
        let family = self.families[key].clone();
        let u = unit(rng);
        let mut acc = 0.0;
        let mut spec = SPECS.iter().find(|(_, share)| {
            acc += share;
            u < acc
        });
        if spec.is_some_and(|(s, _)| *s == ADVERSITY)
            && !matches!(family, GraphFamily::RandomRegular { .. })
        {
            spec = None;
        }
        let trials = 2 + (rng.next_u64() % 2) as usize;
        JobParams {
            spec: spec.map_or(BARE, |(s, _)| s).parse().expect("mix specs parse"),
            family,
            trials,
            seed: self.seeds[key],
            max_rounds: JOB_MAX_ROUNDS,
            trace: unit(rng) < TRACE_SHARE,
        }
    }

    /// One cheap job per key: the warm-up pass.
    fn warm_up_jobs(&self) -> Vec<JobParams> {
        self.families
            .iter()
            .zip(&self.seeds)
            .map(|(family, &seed)| JobParams {
                spec: BARE.parse().expect("bare spec parses"),
                family: family.clone(),
                trials: 1,
                seed,
                max_rounds: JOB_MAX_ROUNDS,
                trace: false,
            })
            .collect()
    }

    fn key_of(&self, params: &JobParams) -> usize {
        self.families
            .iter()
            .zip(&self.seeds)
            .position(|(f, &s)| *f == params.family && s == params.seed)
            .expect("jobs use mix keys")
    }

    fn config(&self, ctx: &Ctx) -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: ctx.threads,
            cache_bytes: self.cache_bytes,
            queue_capacity: 64,
        }
    }
}

/// The CLI's instance seeding path (`repro --process` and serve share it).
fn instance_rng(seed: u64) -> TrialRng {
    SeedSequence::new(seed).child("ad-hoc").trial_rng("instance", 0)
}

fn submit_line(params: &JobParams) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"spec\":\"{}\",\"graph\":\"{}\",\"trials\":{},\"seed\":{},\
         \"max_rounds\":{},\"trace\":{}}}",
        params.spec, params.family, params.trials, params.seed, params.max_rounds, params.trace
    )
}

fn field_u64(line: &str, name: &str) -> Option<u64> {
    let pattern = format!("\"{name}\":");
    let start = line.find(&pattern)? + pattern.len();
    line[start..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
}

/// Asks the kernel to acknowledge received segments at once instead of delaying the ACK.
/// The server writes each event line as two small writes on a socket with Nagle's algorithm
/// on, so its second write waits for the client's ACK: a delayed ACK stalls every reply by
/// ≈40 ms and rounds every job latency to a multiple of it. The flag is not sticky, so it
/// is re-armed before every read.
#[cfg(target_os = "linux")]
fn quick_ack(sock: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: the descriptor belongs to `sock`, which outlives the call, and `value` points
    // to a live `i32` whose size is passed as `len`.
    unsafe {
        setsockopt(
            sock.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_sock: &TcpStream) {}

struct Client {
    sock: TcpStream,
    lines: Lines<BufReader<TcpStream>>,
    /// Acknowledge immediately (see [`quick_ack`]); off for the plain-client probe.
    quick_ack: bool,
}

impl Client {
    fn connect(addr: SocketAddr, quick_ack: bool) -> std::io::Result<Client> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        let lines = BufReader::new(sock.try_clone()?).lines();
        Ok(Client { sock, lines, quick_ack })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.sock.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<String> {
        if self.quick_ack {
            quick_ack(&self.sock);
        }
        self.lines.next().unwrap_or_else(|| {
            Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
        })
    }
}

/// One job as a client saw it.
struct JobRecord {
    params: JobParams,
    job: u64,
    sent: Instant,
    accepted: Instant,
    first_trial: Instant,
    done: Instant,
    trials_seen: usize,
    /// The terminal record, when it was a summary.
    summary: Option<String>,
}

impl JobRecord {
    fn total_ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// Submits `params`, streams its results and returns what came back; `Err` when the
/// connection broke or the job was refused.
fn run_job(client: &mut Client, params: JobParams) -> std::io::Result<JobRecord> {
    let broken = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let sent = Instant::now();
    client.send(&submit_line(&params))?;
    let accepted_line = client.recv()?;
    let accepted = Instant::now();
    let job = field_u64(&accepted_line, "job")
        .filter(|_| accepted_line.contains("\"event\":\"accepted\""))
        .ok_or_else(|| broken(format!("not accepted: {accepted_line}")))?;
    client.send(&format!("{{\"cmd\":\"results\",\"job\":{job}}}"))?;
    let mut first_trial = None;
    let mut trials_seen = 0;
    loop {
        let line = client.recv()?;
        if line.contains("\"event\":\"trial\"") {
            first_trial.get_or_insert_with(Instant::now);
            trials_seen += 1;
            continue;
        }
        let done = Instant::now();
        let summary = line.contains("\"event\":\"summary\"").then_some(line);
        return Ok(JobRecord {
            params,
            job,
            sent,
            accepted,
            first_trial: first_trial.unwrap_or(done),
            done,
            trials_seen,
            summary,
        });
    }
}

enum Stop {
    At(Instant),
    Jobs(usize),
}

/// Closed-loop load from [`clients`] connections. Returns the jobs that came back and the
/// number of jobs whose connection broke.
fn load(
    addr: SocketAddr,
    mix: &Mix,
    ctx: &Ctx,
    stream: &str,
    stop: &Stop,
    tracer: Option<&Tracer>,
) -> (Vec<JobRecord>, u64) {
    let per_client = |c: usize| {
        let mut rng = SeedSequence::new(ctx.seed).trial_rng(stream, c as u64);
        let mut done = Vec::new();
        let Ok(mut client) = Client::connect(addr, true) else { return (done, 1) };
        loop {
            match *stop {
                Stop::At(deadline) if Instant::now() >= deadline => break,
                Stop::Jobs(jobs) if done.len() >= jobs.div_ceil(clients(ctx)) => break,
                _ => {}
            }
            match run_job(&mut client, mix.draw(&mut rng)) {
                Ok(record) => {
                    if let Some(tracer) = tracer {
                        trace_job(tracer, &record);
                    }
                    done.push(record);
                }
                Err(_) => return (done, 1),
            }
        }
        (done, 0)
    };
    let per_client = &per_client;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..clients(ctx)).map(|c| scope.spawn(move || per_client(c))).collect();
        let mut all = Vec::new();
        let mut broken = 0;
        for handle in handles {
            let (jobs, lost) = handle.join().expect("client thread panicked");
            all.extend(jobs);
            broken += lost;
        }
        (all, broken)
    })
}

fn trace_job(tracer: &Tracer, r: &JobRecord) {
    let id = tracer.id();
    let group = r.job;
    let layer = trace::EXPERIMENTS;
    tracer.interval(tracer.id(), layer, "serve.accept", group, id, r.sent, r.accepted);
    tracer.interval(tracer.id(), layer, "serve.first_trial", group, id, r.accepted, r.first_trial);
    tracer.interval(tracer.id(), layer, "serve.results", group, id, r.first_trial, r.done);
    tracer.interval(id, layer, "serve.job", group, 0, r.sent, r.done);
}

/// Spawns a server and runs the warm-up pass: one job per key from the clients in turn.
fn spawn_warm(mix: &Mix, ctx: &Ctx) -> Result<ServerHandle, String> {
    let server = spawn(&mix.config(ctx)).map_err(|e| format!("serve::spawn: {e}"))?;
    let jobs = mix.warm_up_jobs();
    let chunk = jobs.len().div_ceil(ctx.threads);
    let addr = server.addr();
    let failures: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let Ok(mut client) = Client::connect(addr, true) else { return part.len() };
                    part.iter()
                        .filter(|p| {
                            run_job(&mut client, (*p).clone()).map_or(true, |r| r.summary.is_none())
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm-up client panicked")).sum()
    });
    if failures > 0 {
        server.shutdown();
        return Err(format!("{failures} warm-up jobs failed"));
    }
    Ok(server)
}

fn stats_line(addr: SocketAddr) -> Result<String, String> {
    let mut client = Client::connect(addr, false).map_err(|e| e.to_string())?;
    client.send("{\"cmd\":\"stats\"}").map_err(|e| e.to_string())?;
    client.recv().map_err(|e| e.to_string())
}

/// Recomputes served summaries the CLI way, memoising outcomes per distinct job.
struct Checker<'m> {
    mix: &'m Mix,
    outcomes: BTreeMap<String, Vec<RunOutcome>>,
}

impl Checker<'_> {
    fn outcomes(&mut self, params: &JobParams) -> &[RunOutcome] {
        let key = format!(
            "{}|{}",
            submit_line(&JobParams { trace: false, ..params.clone() }),
            params.seed
        );
        let mix = self.mix;
        self.outcomes.entry(key).or_insert_with(|| {
            let graph = &mix.graphs[mix.key_of(params)];
            let seq = SeedSequence::new(params.seed).child("ad-hoc");
            driver::run_spec_trials(
                graph,
                &params.spec,
                &Runner::new(params.max_rounds),
                &seq,
                &format!("{}@{}", params.spec, params.family),
                TrialConfig::parallel(params.trials),
            )
        })
    }

    fn expected_summary(&mut self, record: &JobRecord) -> String {
        let outcomes = self.outcomes(&record.params).to_vec();
        protocol::summary_event(record.job, &record.params, &outcomes)
    }

    /// Every job ended in a summary, with all its trials, byte-identical to the CLI path.
    fn check(&mut self, records: &[JobRecord], report: &mut Report) {
        let mut mismatched = 0;
        let mut first_bad = String::new();
        for record in records {
            let expected = self.expected_summary(record);
            let ok = record.summary.as_deref() == Some(expected.as_str())
                && record.trials_seen == record.params.trials;
            if !ok {
                mismatched += 1;
                if first_bad.is_empty() {
                    first_bad = format!(
                        " first: served {:?} expected {expected}",
                        record.summary.as_deref().unwrap_or("<no summary>")
                    );
                }
            }
        }
        report.check(
            "serve.summary_byte_identical",
            mismatched == 0 && !records.is_empty(),
            format!(
                "{} jobs, {mismatched} mismatched, {} distinct recomputations{first_bad}",
                records.len(),
                self.outcomes.len()
            ),
        );
    }
}

fn count_jobs(report: &mut Report, records: &[JobRecord], broken: u64) {
    let failed = records.iter().filter(|r| r.summary.is_none()).count() as u64 + broken;
    report.attempted += records.len() as u64 + broken;
    report.failed += failed;
    let trials: usize = records.iter().map(|r| r.trials_seen).sum();
    let completed: u64 = records
        .iter()
        .filter_map(|r| r.summary.as_deref().and_then(|s| field_u64(s, "completed")))
        .sum();
    report.note(format!(
        "serve-mix: {} jobs, {trials} trials served, {completed} trials reached their goal",
        records.len()
    ));
}

pub fn run(ctx: &Ctx, trace: bool, report: &mut Report) -> Result<(), String> {
    if trace {
        return run_traced(ctx, report);
    }
    let mix = Mix::new(ctx.seed, ctx.toy)?;
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let start = Instant::now();
        server = Some(spawn_warm(&mix, ctx)?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("spawned at least once");
    report.metric(
        "setup_s",
        median(&setup),
        setup.len(),
        "serve::spawn + warm-up pass of every key, median",
    );

    reset_peak_rss();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let (records, broken) =
        load(server.addr(), &mix, ctx, "serve-mix/client", &Stop::At(deadline), None);
    let elapsed = start.elapsed().as_secs_f64();
    let stats = stats_line(server.addr())?;
    report.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        1,
        "VmHWM of the benchmark process (server and clients) after setup",
    );
    server.shutdown();

    let latencies: Vec<f64> =
        records.iter().filter(|r| r.summary.is_some()).map(JobRecord::total_ms).collect();
    let n = latencies.len();
    report.metric(
        "throughput_per_s",
        n as f64 / elapsed,
        n,
        format!("jobs_per_s: closed loop, {} clients, {:.1} s", clients(ctx), elapsed),
    );
    report.metric(
        "time_ms_p50",
        median(&latencies),
        n,
        "job_ms_p50: submit sent to summary received",
    );
    report.metric(
        "time_ms_tail",
        quantile(&latencies, 0.99),
        n,
        "job_ms_p99: submit sent to summary received",
    );
    if n < min_samples_for_tail(0.99) {
        report.note(format!("job p99 has {n} samples, fewer than {}", min_samples_for_tail(0.99)));
    }
    report.note(format!("server stats after load: {stats}"));
    count_jobs(report, &records, broken);
    Checker { mix: &mix, outcomes: BTreeMap::new() }.check(&records, report);
    Ok(())
}

/// The serve-layer rows (protocol, cache, scheduler, serve), measured on a traced serve-mix
/// load of at least 1000 jobs. Every traced run reports them.
pub fn serve_rows(ctx: &Ctx, tracer: &Tracer, report: &mut Report) -> Result<Mix, String> {
    let mix = Mix::new(ctx.seed, ctx.toy)?;
    let jobs = if ctx.toy { 40 } else { min_samples_for_tail(0.99) };
    let server = spawn_warm(&mix, ctx)?;
    let (mut records, broken) =
        load(server.addr(), &mix, ctx, "serve-mix/traced-client", &Stop::Jobs(jobs), Some(tracer));
    let stats = stats_line(server.addr())?;
    let plain = plain_client_jobs(server.addr(), &mix, ctx, if ctx.toy { 5 } else { 40 })?;
    server.shutdown();
    let plain_accept: Vec<f64> =
        plain.iter().map(|r| r.accepted.duration_since(r.sent).as_secs_f64() * 1e3).collect();
    report.metric(
        "serve.plain_accept_ms",
        median(&plain_accept),
        plain_accept.len(),
        "submit sent to accepted received, for a client that delays its ACKs",
    );
    records.extend(plain);
    count_jobs(report, &records, broken);
    let mut checker = Checker { mix: &mix, outcomes: BTreeMap::new() };
    checker.check(&records, report);

    let ms = |name: &str| tracer.durations_ns(name).iter().map(|ns| ns / 1e6).collect::<Vec<f64>>();
    let accept = ms("serve.accept");
    report.metric(
        "serve.accept_ms",
        median(&accept),
        accept.len(),
        "submit sent to accepted received",
    );
    let first = ms("serve.first_trial");
    report.metric(
        "serve.first_trial_ms_p50",
        median(&first),
        first.len(),
        "accepted to first trial event",
    );
    report.metric(
        "serve.first_trial_ms_p99",
        quantile(&first, 0.99),
        first.len(),
        "accepted to first trial event",
    );
    let stat = |name: &str| field_u64(&stats, name).unwrap_or(0) as f64;
    let (hits, misses, evictions) =
        (stat("cache_hits"), stat("cache_misses"), stat("cache_evictions"));
    let lookups = (hits + misses) as usize;
    report.metric(
        "cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        lookups,
        "hits / lookups under the traced load",
    );
    report.metric("cache.hits", hits, lookups, "GraphCache hits (stats)");
    report.metric("cache.misses", misses, lookups, "GraphCache misses (stats)");
    report.metric("cache.evictions", evictions, lookups, "GraphCache evictions (stats)");

    // Protocol: parse every request line of the load; encode every job's events.
    let lines: Vec<String> = records
        .iter()
        .flat_map(|r| {
            [submit_line(&r.params), format!("{{\"cmd\":\"results\",\"job\":{}}}", r.job)]
        })
        .collect();
    let parse_us = tracer.span(trace::EXPERIMENTS, "protocol.parse_request", 0, 0, |_| {
        per_item_us(lines.len(), || {
            for line in &lines {
                std::hint::black_box(protocol::parse_request(std::hint::black_box(line)).is_ok());
            }
        })
    });
    report.metric("protocol.parse_us", parse_us, lines.len(), "parse_request per request line");
    let outcomes: Vec<Vec<RunOutcome>> =
        records.iter().map(|r| checker.outcomes(&r.params).to_vec()).collect();
    let encode_us = tracer.span(trace::EXPERIMENTS, "protocol.encode", 0, 0, |_| {
        per_item_us(records.len(), || {
            for (record, outcomes) in records.iter().zip(&outcomes) {
                for (i, outcome) in outcomes.iter().enumerate() {
                    std::hint::black_box(protocol::trial_event(record.job, i, outcome, None));
                }
                std::hint::black_box(protocol::summary_event(record.job, &record.params, outcomes));
            }
        })
    });
    report.metric(
        "protocol.encode_us",
        encode_us,
        records.len(),
        "trial_event per trial + summary_event, per job",
    );

    // Cache: a miss and repeated hits on every key, through a private cache.
    let cache = GraphCache::new(usize::MAX);
    let (mut miss_ms, mut hit_us) = (Vec::new(), Vec::new());
    for (family, &seed) in mix.families.iter().zip(&mix.seeds) {
        let build = || family.instantiate(&mut instance_rng(seed));
        let start = Instant::now();
        tracer
            .span(trace::EXPERIMENTS, "cache.get_or_build", 0, 0, |_| {
                cache.get_or_build(family, seed, build)
            })
            .map_err(|e| format!("cache miss build: {e}"))?;
        miss_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for _ in 0..100 {
            let start = Instant::now();
            let hit =
                cache.get_or_build(family, seed, || family.instantiate(&mut instance_rng(seed)));
            hit_us.push(start.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(hit.is_ok());
        }
    }
    report.metric(
        "cache.miss_ms",
        median(&miss_ms),
        miss_ms.len(),
        "get_or_build on a missing key (builds)",
    );
    report.metric("cache.hit_us", median(&hit_us), hit_us.len(), "get_or_build on a resident key");

    let probe = mix.warm_up_jobs().swap_remove(0);
    let samples = if ctx.toy { 20 } else { 300 };
    let (handoff, n) = tracer.span(trace::EXPERIMENTS, "scheduler.handoff", 0, 0, |_| {
        layers::scheduler_handoff_us(&probe, samples)
    });
    report.metric(
        "scheduler.handoff_us",
        handoff,
        n,
        "Scheduler::submit to next_job on an idle worker",
    );
    Ok(mix)
}

/// Jobs from one client without immediate ACKs: what a plain client of the protocol sees.
fn plain_client_jobs(
    addr: SocketAddr,
    mix: &Mix,
    ctx: &Ctx,
    jobs: usize,
) -> Result<Vec<JobRecord>, String> {
    let mut client = Client::connect(addr, false).map_err(|e| e.to_string())?;
    let mut rng = SeedSequence::new(ctx.seed).trial_rng("serve-mix/plain-client", 0);
    (0..jobs).map(|_| run_job(&mut client, mix.draw(&mut rng)).map_err(|e| e.to_string())).collect()
}

fn per_item_us(items: usize, mut block: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            block();
            start.elapsed().as_secs_f64() * 1e6 / items.max(1) as f64
        })
        .collect();
    median(&reps)
}

/// The representative direct-run job of the mix for the core-layer rows: bare COBRA on the
/// largest random-regular key.
const REPRESENTATIVE: usize = 13;

fn run_traced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let tracer = Tracer::new();
    let mix = serve_rows(ctx, &tracer, report)?;
    report.metric(
        "graph.instantiate_ms",
        median(&mix.instantiate_ms),
        mix.instantiate_ms.len(),
        "GraphFamily::instantiate, median over the mix keys",
    );
    let key = REPRESENTATIVE.min(mix.families.len() - 1);
    let family = mix.families[key].to_string();
    let (p, _) = Prepared::new(BARE, &family, None, mix.seeds[key], 1, |f| {
        tracer.span(trace::GRAPH, "graph.instantiate", 0, 0, |_| f())
    })?;
    trials::layer_rows(&p, trials::BENIGN, if ctx.toy { 3 } else { 8 }, ctx, &tracer, report)?;
    trials::finish_trace("serve-mix", ctx, &tracer, report);
    Ok(())
}

/// The self-test's deliberately wrong expected output: a served summary compared against
/// the recomputation of a different job must fail the byte-identity check.
pub fn check_catches_wrong_summary(ctx: &Ctx) -> bool {
    let Ok(mix) = Mix::new(ctx.seed, true) else { return false };
    let Ok(server) = spawn_warm(&mix, ctx) else { return false };
    let (mut records, _) = load(server.addr(), &mix, ctx, "serve-mix/wrong", &Stop::Jobs(1), None);
    server.shutdown();
    let Some(record) = records.first_mut() else { return false };
    record.params.trials += 1;
    let mut report = Report::default();
    Checker { mix: &mix, outcomes: BTreeMap::new() }.check(&records[..1], &mut report);
    !report.correct()
}
