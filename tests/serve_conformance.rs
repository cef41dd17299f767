//! Black-box conformance suite for `repro serve`: every test spawns the real server on an
//! ephemeral port and drives it over an actual TCP socket, exactly like a scripted client.
//!
//! The load-bearing property is **bit-identity**: a job submitted over the socket must
//! produce per-trial outcomes and a summary record byte-for-byte equal to what the
//! `repro --process` CLI path computes for the same (spec, graph, trials, seed, budget) —
//! across all seven processes, wrapper stacks (faults, adversary, defense, churn),
//! concurrent clients, and cache hits.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cobra::core::sim::{CoverageTrace, FirstVisitTimes, Observer, Runner};
use cobra::core::CoreError;
use cobra::experiments::driver;
use cobra::experiments::serve::cache::GraphCache;
use cobra::experiments::serve::protocol::{self, JobParams, TrialTrace};
use cobra::experiments::serve::scheduler::RETAINED_FINISHED_JOBS;
use cobra::experiments::serve::{spawn, ServeConfig, ServerHandle};
use cobra::graph::generators::GraphFamily;
use cobra::stats::parallel::TrialConfig;
use cobra::stats::rng::SeedSequence;
use serde::Value;

// ---------------------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------------------

fn server(workers: usize, cache_bytes: usize, queue_capacity: usize) -> ServerHandle {
    spawn(&ServeConfig { port: 0, workers, cache_bytes, queue_capacity })
        .expect("ephemeral-port server must spawn")
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to served port");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        Client { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("write request");
    }

    fn recv_opt(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            // A reset is still "the server closed on us" as far as the protocol goes.
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
            Err(e) => panic!("read from server: {e}"),
        }
    }

    fn recv(&mut self) -> String {
        self.recv_opt().expect("server closed the connection unexpectedly")
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn json_object(line: &str) -> Vec<(String, Value)> {
    let value: Value = serde_json::from_str(line)
        .unwrap_or_else(|e| panic!("server line is not JSON: {line}: {e}"));
    value.as_object().unwrap_or_else(|| panic!("server line is not an object: {line}")).to_vec()
}

fn json_str(line: &str, name: &str) -> String {
    let entries = json_object(line);
    entries
        .iter()
        .find(|(key, _)| key == name)
        .and_then(|(_, value)| value.as_str())
        .unwrap_or_else(|| panic!("no string field {name:?} in {line}"))
        .to_string()
}

fn json_u64(line: &str, name: &str) -> u64 {
    let entries = json_object(line);
    entries
        .iter()
        .find(|(key, _)| key == name)
        .and_then(|(_, value)| value.as_f64())
        .unwrap_or_else(|| panic!("no numeric field {name:?} in {line}")) as u64
}

fn event_of(line: &str) -> String {
    json_str(line, "event")
}

fn is_terminal(line: &str) -> bool {
    matches!(event_of(line).as_str(), "summary" | "job-failed" | "job-cancelled")
}

fn submit_line(params: &JobParams) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"spec\":\"{}\",\"graph\":\"{}\",\"trials\":{},\"seed\":{},\
         \"max_rounds\":{},\"trace\":{}}}",
        params.spec, params.family, params.trials, params.seed, params.max_rounds, params.trace
    )
}

fn submit(client: &mut Client, params: &JobParams) -> u64 {
    let reply = client.request(&submit_line(params));
    assert_eq!(event_of(&reply), "accepted", "{reply}");
    json_u64(&reply, "job")
}

/// The job ids of a `batch-accepted` reply.
fn batch_ids(reply: &str) -> Vec<u64> {
    assert_eq!(event_of(reply), "batch-accepted", "{reply}");
    json_object(reply)
        .iter()
        .find(|(key, _)| key == "jobs")
        .and_then(|(_, value)| value.as_array())
        .expect("jobs array")
        .iter()
        .map(|v| v.as_f64().expect("job id") as u64)
        .collect()
}

fn stream_results(client: &mut Client, job: u64) -> Vec<String> {
    client.send(&format!("{{\"cmd\":\"results\",\"job\":{job}}}"));
    let mut lines = Vec::new();
    loop {
        let line = client.recv();
        let done = is_terminal(&line);
        lines.push(line);
        if done {
            return lines;
        }
    }
}

fn params(spec: &str, graph: &str, trials: usize, seed: u64, max_rounds: usize) -> JobParams {
    JobParams {
        spec: spec.parse().expect("test spec parses"),
        family: graph.parse().expect("test graph parses"),
        trials,
        seed,
        max_rounds,
        trace: false,
    }
}

/// Recomputes exactly what the `repro --process` CLI path measures for `params` — same
/// seed-sequence derivation, same churn routing — and renders it through the same
/// [`protocol`] event builders the server uses. Byte equality against the served stream is
/// therefore the full bit-identity check.
fn expected_lines(job: u64, params: &JobParams) -> Vec<String> {
    let seq = SeedSequence::new(params.seed).child("ad-hoc");
    let mut rng = seq.trial_rng("instance", 0);
    let graph = params.family.instantiate(&mut rng).expect("conformance graphs instantiate");
    let runner = Runner::new(params.max_rounds);
    let label = format!("{}@{}", params.spec, params.family);
    let churned = params.spec.fault_plan().and_then(|plan| plan.churn).is_some();
    let outcomes = if churned {
        driver::run_adverse_trials(
            &params.family,
            &params.spec,
            &runner,
            &seq,
            &label,
            TrialConfig::parallel(params.trials),
        )
    } else {
        driver::run_spec_trials(
            &graph,
            &params.spec,
            &runner,
            &seq,
            &label,
            TrialConfig::parallel(params.trials),
        )
    };
    let mut lines: Vec<String> = outcomes
        .iter()
        .enumerate()
        .map(|(index, outcome)| protocol::trial_event(job, index, outcome, None))
        .collect();
    lines.push(protocol::summary_event(job, params, &outcomes));
    lines
}

// ---------------------------------------------------------------------------------------
// Bit-identity
// ---------------------------------------------------------------------------------------

/// All seven processes plus faulted / adversarial / defended / churned wrapper stacks.
const CONFORMANCE_SPECS: &[&str] = &[
    "cobra:k=2",
    "bips:k=2",
    "walk",
    "multiwalk:w=8",
    "push",
    "pushpull",
    "contact:p=0.8,q=0.1",
    "cobra:k=2+drop=0.1+crash=5%",
    "cobra:k=2+gedrop=0.05,0.2,0.4",
    "cobra:k=2+adv=topdeg:budget=5%",
    "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
    "cobra:k=2+churn=8",
];

#[test]
fn served_jobs_are_bit_identical_to_the_cli_path() {
    let handle = server(3, 32 << 20, 64);
    let mut client = Client::connect(handle.addr());
    for spec in CONFORMANCE_SPECS {
        let params = params(spec, "complete:n=32", 3, 2016, 4000);
        let job = submit(&mut client, &params);
        let served = stream_results(&mut client, job);
        assert_eq!(served, expected_lines(job, &params), "bit-identity broke for {spec}");
    }
    handle.shutdown();
}

#[test]
fn traced_jobs_carry_coverage_deltas_without_perturbing_outcomes() {
    let handle = server(2, 32 << 20, 64);
    let mut client = Client::connect(handle.addr());
    let mut traced = params("cobra:k=2", "complete:n=32", 3, 99, 4000);
    traced.trace = true;
    let job = submit(&mut client, &traced);
    let served = stream_results(&mut client, job);

    // Expected: the same per-trial RNG streams, observed locally.
    let seq = SeedSequence::new(traced.seed).child("ad-hoc");
    let graph = traced.family.instantiate(&mut seq.trial_rng("instance", 0)).unwrap();
    let runner = Runner::new(traced.max_rounds);
    let label = format!("{}@{}", traced.spec, traced.family);
    let mut expected = Vec::new();
    let mut outcomes = Vec::new();
    for index in 0..traced.trials {
        let mut rng = seq.trial_rng(&label, index as u64);
        let mut process = traced.spec.build(&graph).unwrap();
        let mut coverage = CoverageTrace::new();
        let mut visits = FirstVisitTimes::new();
        let mut observers: [&mut dyn Observer; 2] = [&mut coverage, &mut visits];
        let outcome = runner.run_observed(process.as_mut(), &mut rng, &mut observers);
        let trace =
            TrialTrace { coverage_deltas: coverage.deltas(), cover_time: visits.cover_time() };
        expected.push(protocol::trial_event(job, index, &outcome, Some(&trace)));
        outcomes.push(outcome);
    }
    expected.push(protocol::summary_event(job, &traced, &outcomes));
    assert_eq!(served, expected);

    // Observers are passive: the same job without trace yields the same outcomes.
    let untraced = params("cobra:k=2", "complete:n=32", 3, 99, 4000);
    let job = submit(&mut client, &untraced);
    let served = stream_results(&mut client, job);
    assert_eq!(served, expected_lines(job, &untraced));
    handle.shutdown();
}

#[test]
fn concurrent_shuffled_submissions_stay_deterministic() {
    let handle = server(4, 32 << 20, 64);
    let addr = handle.addr();
    // The same six jobs, submitted by three clients in three different orders.
    let jobs: Vec<JobParams> = vec![
        params("cobra:k=2", "complete:n=32", 3, 1, 4000),
        params("push", "complete:n=32", 3, 2, 4000),
        params("bips:k=2", "complete:n=24", 3, 3, 4000),
        params("walk", "complete:n=16", 3, 4, 50_000),
        params("cobra:k=2+drop=0.1", "complete:n=32", 3, 5, 4000),
        params("cobra:k=2+churn=8", "complete:n=24", 3, 1, 4000),
    ];
    let orders: [[usize; 6]; 3] = [[0, 1, 2, 3, 4, 5], [5, 3, 1, 4, 2, 0], [2, 0, 5, 1, 3, 4]];
    let clients: Vec<_> = orders
        .into_iter()
        .map(|order| {
            let jobs = jobs.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Submit everything first so the four workers genuinely interleave.
                let ids: Vec<(u64, usize)> =
                    order.iter().map(|&i| (submit(&mut client, &jobs[i]), i)).collect();
                for (job, i) in ids {
                    let served = stream_results(&mut client, job);
                    assert_eq!(
                        served,
                        expected_lines(job, &jobs[i]),
                        "job {i} diverged under concurrency"
                    );
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    handle.shutdown();
}

// ---------------------------------------------------------------------------------------
// Cache observability
// ---------------------------------------------------------------------------------------

#[test]
fn cache_hits_misses_and_evictions_are_observable_via_stats() {
    // Budget: exactly two instances of this family fit.
    let family: GraphFamily = "random-regular:n=64,r=4".parse().unwrap();
    let instance_bytes = {
        let seq = SeedSequence::new(1).child("ad-hoc");
        family.instantiate(&mut seq.trial_rng("instance", 0)).unwrap().heap_bytes()
    };
    let handle = server(1, 2 * instance_bytes + instance_bytes / 2, 64);
    let mut client = Client::connect(handle.addr());
    // Same (family, seed) twice: one miss then one hit. A single worker serializes jobs,
    // and streaming each job's results to the end makes the ordering deterministic.
    for seed in [1, 1, 2, 3] {
        let params = params("cobra:k=2", "random-regular:n=64,r=4", 2, seed, 100_000);
        let job = submit(&mut client, &params);
        let served = stream_results(&mut client, job);
        assert_eq!(served, expected_lines(job, &params), "seed {seed} diverged");
    }
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(event_of(&stats), "stats", "{stats}");
    assert_eq!(json_u64(&stats, "cache_hits"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "cache_misses"), 3, "{stats}");
    // Seed 3's insert pushed the residency over budget: the LRU entry (seed 1) went.
    assert_eq!(json_u64(&stats, "cache_evictions"), 1, "{stats}");
    assert_eq!(json_u64(&stats, "cache_entries"), 2, "{stats}");
    assert!(json_u64(&stats, "cache_bytes") <= json_u64(&stats, "cache_capacity"), "{stats}");
    assert_eq!(json_u64(&stats, "done"), 4, "{stats}");
    handle.shutdown();
}

#[test]
fn cache_hits_perform_zero_graph_construction_work() {
    // CountingRng-style accounting at the cache boundary: a hit must neither invoke the
    // build closure nor draw a single RNG word.
    use cobra::core::counting::CountingRng;
    let cache = GraphCache::new(16 << 20);
    let family: GraphFamily = "random-regular:n=64,r=4".parse().unwrap();
    let seq = SeedSequence::new(5).child("ad-hoc");
    let mut draws = 0u64;
    let built = cache
        .get_or_build(&family, 5, || {
            let mut rng = CountingRng::new(seq.trial_rng("instance", 0));
            let graph = family.instantiate(&mut rng);
            draws = rng.count();
            graph
        })
        .expect("first lookup builds");
    assert!(draws > 0, "building a random-regular instance must consume randomness");
    let mut hit_invoked_build = false;
    let hit = cache
        .get_or_build(&family, 5, || {
            hit_invoked_build = true;
            let mut rng = CountingRng::new(seq.trial_rng("instance", 0));
            let graph = family.instantiate(&mut rng);
            draws += rng.count();
            graph
        })
        .expect("hit");
    assert!(!hit_invoked_build, "a cache hit must not re-run graph construction");
    let draws_after_first = draws;
    assert_eq!(draws, draws_after_first, "a cache hit must draw zero RNG words");
    assert!(std::sync::Arc::ptr_eq(&built, &hit), "hit must return the resident instance");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

// ---------------------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------------------

#[test]
fn malformed_invalid_and_unknown_requests_get_structured_errors() {
    let handle = server(1, 1 << 20, 8);
    let mut client = Client::connect(handle.addr());
    let cases = [
        ("{oops", "malformed-request"),
        ("[1,2,3]", "malformed-request"),
        ("{\"cmd\":\"frobnicate\"}", "invalid-request"),
        ("{\"spec\":\"cobra:k=2\"}", "invalid-request"),
        ("{\"cmd\":\"submit\",\"spec\":\"frisbee\"}", "invalid-spec"),
        ("{\"cmd\":\"submit\",\"spec\":\"cobra:k=2+drop=2\"}", "invalid-spec"),
        ("{\"cmd\":\"submit\",\"spec\":\"cobra:k=2\",\"graph\":\"mystery:n=2\"}", "invalid-graph"),
        ("{\"cmd\":\"submit\",\"spec\":\"cobra:k=2\",\"trials\":0}", "invalid-request"),
        ("{\"cmd\":\"submit\",\"spec\":\"cobra:k=2\",\"frobs\":true}", "invalid-request"),
        ("{\"cmd\":\"status\",\"job\":424242}", "unknown-job"),
        ("{\"cmd\":\"results\",\"job\":424242}", "unknown-job"),
        ("{\"cmd\":\"cancel\",\"job\":424242}", "unknown-job"),
    ];
    for (request, code) in cases {
        let reply = client.request(request);
        assert_eq!(event_of(&reply), "error", "{request} -> {reply}");
        assert_eq!(json_str(&reply, "code"), code, "{request} -> {reply}");
    }
    // The connection survived all of that: a well-formed request still works.
    let job = submit(&mut client, &params("cobra:k=2", "complete:n=16", 1, 1, 1000));
    assert!(is_terminal(stream_results(&mut client, job).last().unwrap()));
    handle.shutdown();
}

#[test]
fn oversized_requests_are_rejected_and_the_connection_closed() {
    let handle = server(1, 1 << 20, 8);
    let mut client = Client::connect(handle.addr());
    let huge = format!("{{\"cmd\":\"submit\",\"spec\":\"{}\"}}", "a".repeat(80_000));
    assert!(huge.len() > protocol::MAX_REQUEST_BYTES);
    let reply = client.request(&huge);
    assert_eq!(event_of(&reply), "error", "{reply}");
    assert_eq!(json_str(&reply, "code"), "oversized-request", "{reply}");
    assert_eq!(client.recv_opt(), None, "oversized request must close the connection");
    handle.shutdown();
}

#[test]
fn replies_reach_a_client_that_delays_its_acks_without_a_stall() {
    // A plain socket (no TCP_QUICKACK) delays its ACKs. A reply line split over two writes
    // would sit behind Nagle's algorithm until that delayed ACK fires (about 40 ms); one
    // write per line is answered at once. Each request goes out in one write too.
    let handle = server(1, 1 << 20, 64);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect to served port");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let request = format!("{}\n", submit_line(&params("cobra:k=2", "complete:n=16", 1, 1, 1000)));
    let mut waits_ms: Vec<f64> = (0..10)
        .map(|_| {
            let sent = Instant::now();
            stream.write_all(request.as_bytes()).expect("write request");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("read reply");
            assert_eq!(event_of(reply.trim_end()), "accepted", "{reply}");
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    waits_ms.sort_by(f64::total_cmp);
    let median = waits_ms[waits_ms.len() / 2];
    assert!(median < 10.0, "median submit-to-accepted {median:.2} ms, waits {waits_ms:?}");
    handle.shutdown();
}

#[test]
fn full_queues_reject_submissions_with_backpressure_reasons() {
    // Capacity 0 deterministically rejects every enqueue attempt.
    let handle = server(1, 1 << 20, 0);
    let mut client = Client::connect(handle.addr());
    let reply = client.request(&submit_line(&params("cobra:k=2", "complete:n=16", 1, 1, 1000)));
    assert_eq!(event_of(&reply), "error", "{reply}");
    assert_eq!(json_str(&reply, "code"), "queue-full", "{reply}");
    assert!(json_str(&reply, "message").contains("capacity"), "{reply}");
    // Batches are atomic: nothing from a rejected batch is enqueued.
    let batch = "{\"cmd\":\"batch\",\"specs\":[\"cobra:k=2\",\"push\"],\
                 \"graphs\":[\"complete:n=16\"],\"trials\":1}";
    let reply = client.request(batch);
    assert_eq!(json_str(&reply, "code"), "queue-full", "{reply}");
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(json_u64(&stats, "jobs"), 0, "rejected submissions must not create jobs");
    handle.shutdown();
}

#[test]
fn build_failures_return_structured_records_and_never_kill_workers() {
    let handle = server(1, 8 << 20, 64);
    let mut client = Client::connect(handle.addr());
    // Start vertex past the instance: VertexOutOfRange, byte-exact.
    let bad_start = params("push:start=500", "complete:n=32", 3, 1, 1000);
    let job = submit(&mut client, &bad_start);
    let served = stream_results(&mut client, job);
    let expected = protocol::job_failed_event(
        job,
        &CoreError::VertexOutOfRange { vertex: 500, num_vertices: 32 },
    );
    assert_eq!(served, vec![expected]);
    // A plan rejected at build time (more crashes than the instance has vertices).
    let bad_combo = params("cobra:k=2+crash=40", "complete:n=32", 3, 1, 1000);
    let job = submit(&mut client, &bad_combo);
    let served = stream_results(&mut client, job);
    assert_eq!(served.len(), 1, "{served:?}");
    assert_eq!(event_of(&served[0]), "job-failed", "{served:?}");
    assert_eq!(json_str(&served[0], "code"), "invalid-parameters", "{served:?}");
    // A family that parses but cannot instantiate (missing edge-list file).
    let bad_graph = params("cobra:k=2", "file:path=/nonexistent/serve.edges", 1, 1, 1000);
    let job = submit(&mut client, &bad_graph);
    let served = stream_results(&mut client, job);
    assert_eq!(event_of(&served[0]), "job-failed", "{served:?}");
    assert_eq!(json_str(&served[0], "code"), "unsuitable-graph", "{served:?}");
    // The single worker survived all three failures: a good job still runs to completion.
    let good = params("cobra:k=2", "complete:n=32", 2, 1, 1000);
    let job = submit(&mut client, &good);
    assert_eq!(stream_results(&mut client, job), expected_lines(job, &good));
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(json_u64(&stats, "failed"), 3, "{stats}");
    assert_eq!(json_u64(&stats, "done"), 1, "{stats}");
    handle.shutdown();
}

#[test]
fn oversized_graphs_fail_the_job_before_allocating_and_the_worker_survives() {
    let handle = server(1, 8 << 20, 64);
    let mut client = Client::connect(handle.addr());
    // 2^30 vertices of degree 8 need 2^33 arcs, past the 32-bit CSR: the build must fail
    // at its size check instead of trying to allocate tens of GB.
    let huge = params("cobra:k=2", "random-regular:n=1073741824,r=8", 1, 1, 1000);
    let job = submit(&mut client, &huge);
    let served = stream_results(&mut client, job);
    assert_eq!(served.len(), 1, "{served:?}");
    assert_eq!(event_of(&served[0]), "job-failed", "{served:?}");
    assert!(json_str(&served[0], "message").contains("more than the CSR limit"), "{served:?}");
    let good = params("cobra:k=2", "random-regular:n=64,r=4", 2, 1, 1000);
    let job = submit(&mut client, &good);
    assert_eq!(stream_results(&mut client, job), expected_lines(job, &good));
    handle.shutdown();
}

// ---------------------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------------------

#[test]
fn cancel_hits_queued_jobs_immediately_and_running_jobs_at_a_trial_boundary() {
    let handle = server(1, 8 << 20, 8);
    let mut client = Client::connect(handle.addr());
    // A long job (many tiny trials) occupies the single worker...
    let long = params("cobra:k=2", "complete:n=16", 100_000, 1, 100);
    let long_job = submit(&mut client, &long);
    // ...so this one stays queued and a cancel reaches it before any worker does.
    let queued = params("push", "complete:n=16", 1, 1, 100);
    let queued_job = submit(&mut client, &queued);
    let ack = client.request(&format!("{{\"cmd\":\"cancel\",\"job\":{queued_job}}}"));
    assert_eq!(event_of(&ack), "cancel", "{ack}");
    assert_eq!(json_str(&ack, "outcome"), "cancelled", "{ack}");
    assert_eq!(
        stream_results(&mut client, queued_job),
        vec![protocol::job_cancelled_event(queued_job)]
    );
    // Wait until the long job is demonstrably mid-flight, then cancel it.
    let mut attempts = 0;
    loop {
        let status = client.request(&format!("{{\"cmd\":\"status\",\"job\":{long_job}}}"));
        if json_str(&status, "state") == "running" && json_u64(&status, "trials_done") >= 1 {
            break;
        }
        attempts += 1;
        assert!(attempts < 1000, "long job never started running: {status}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let ack = client.request(&format!("{{\"cmd\":\"cancel\",\"job\":{long_job}}}"));
    assert_eq!(json_str(&ack, "outcome"), "requested", "{ack}");
    let served = stream_results(&mut client, long_job);
    assert_eq!(served.last().unwrap(), &protocol::job_cancelled_event(long_job));
    assert!(
        served.len() < 100_000,
        "the job must have been abandoned mid-flight, not run to completion"
    );
    let status = client.request(&format!("{{\"cmd\":\"status\",\"job\":{long_job}}}"));
    assert_eq!(json_str(&status, "state"), "cancelled", "{status}");
    // Cancelling a terminal job is an explicit no-op.
    let ack = client.request(&format!("{{\"cmd\":\"cancel\",\"job\":{long_job}}}"));
    assert_eq!(json_str(&ack, "outcome"), "already-terminal", "{ack}");
    let stats = client.request("{\"cmd\":\"stats\"}");
    assert_eq!(json_u64(&stats, "cancelled"), 2, "{stats}");
    handle.shutdown();
}

// ---------------------------------------------------------------------------------------
// Finished-job retention
// ---------------------------------------------------------------------------------------

#[test]
fn finished_jobs_past_the_retention_cap_expire_and_stats_keep_their_totals() {
    // One worker runs jobs in id order, so they finish in id order, and once a batch's
    // last job has finished so has every job before it.
    let handle = server(1, 1 << 20, 64);
    let mut client = Client::connect(handle.addr());
    let job = params("cobra:k=2", "complete:n=8", 1, 1, 100);
    let first = submit(&mut client, &job);
    assert_eq!(stream_results(&mut client, first), expected_lines(first, &job));
    let (mut last, mut submitted) = (first, 0);
    while submitted < RETAINED_FINISHED_JOBS {
        let size = (RETAINED_FINISHED_JOBS - submitted).min(64);
        let specs = vec!["\"cobra:k=2\""; size].join(",");
        let ids = batch_ids(&client.request(&format!(
            "{{\"cmd\":\"batch\",\"specs\":[{specs}],\"graphs\":[\"complete:n=8\"],\
             \"trials\":1,\"seed\":1,\"max_rounds\":100}}"
        )));
        submitted += ids.len();
        last = *ids.last().expect("a non-empty batch");
        assert!(is_terminal(stream_results(&mut client, last).last().unwrap()));
    }
    for request in ["status", "results", "cancel"] {
        let reply = client.request(&format!("{{\"cmd\":\"{request}\",\"job\":{first}}}"));
        assert_eq!(event_of(&reply), "error", "{request} -> {reply}");
        assert_eq!(json_str(&reply, "code"), "expired-job", "{request} -> {reply}");
        let never_issued = last + 1000;
        let reply = client.request(&format!("{{\"cmd\":\"{request}\",\"job\":{never_issued}}}"));
        assert_eq!(json_str(&reply, "code"), "unknown-job", "{request} -> {reply}");
    }
    // The next-oldest job is still retained and re-streams in full.
    assert_eq!(stream_results(&mut client, first + 1), expected_lines(first + 1, &job));
    let stats = client.request("{\"cmd\":\"stats\"}");
    let finished = RETAINED_FINISHED_JOBS as u64 + 1;
    assert_eq!(json_u64(&stats, "jobs"), finished, "{stats}");
    assert_eq!(json_u64(&stats, "done"), finished, "evicted jobs still count: {stats}");
    assert_eq!(json_u64(&stats, "running") + json_u64(&stats, "queued"), 0, "{stats}");
    handle.shutdown();
}

// ---------------------------------------------------------------------------------------
// Batch fan-out
// ---------------------------------------------------------------------------------------

#[test]
fn batches_expand_the_matrix_and_every_job_matches_the_cli() {
    let handle = server(2, 8 << 20, 64);
    let mut client = Client::connect(handle.addr());
    let reply = client.request(
        "{\"cmd\":\"batch\",\"specs\":[\"cobra:k=2\",\"push\"],\
         \"graphs\":[\"complete:n=16\",\"complete:n=24\"],\"trials\":2,\"seed\":11,\
         \"max_rounds\":2000}",
    );
    let ids = batch_ids(&reply);
    assert_eq!(ids.len(), 4, "2 specs x 2 graphs");
    let matrix = [
        ("cobra:k=2", "complete:n=16"),
        ("cobra:k=2", "complete:n=24"),
        ("push", "complete:n=16"),
        ("push", "complete:n=24"),
    ];
    for (&job, &(spec, graph)) in ids.iter().zip(&matrix) {
        let expected = params(spec, graph, 2, 11, 2000);
        assert_eq!(
            stream_results(&mut client, job),
            expected_lines(job, &expected),
            "batch job {spec}@{graph} diverged from the CLI path"
        );
    }
    handle.shutdown();
}
