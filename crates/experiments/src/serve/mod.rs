//! `repro serve` — ad-hoc measurements as a service over newline-delimited JSON.
//!
//! A [`TcpListener`] accepts connections; each connection is a sequence of single-line JSON
//! requests (see [`protocol`] for the grammar) answered by single-line JSON events. Jobs
//! flow through a bounded queue ([`scheduler`]) into a hand-rolled pool of worker threads —
//! plain `std::thread` + mutex/condvar, no async runtime — and graph instances are shared
//! across jobs through a byte-budgeted LRU [`cache`].
//!
//! # The bit-identity contract
//!
//! A served job reproduces the `repro --process` CLI path **exactly**. Both derive every
//! random stream from the job's master seed the same way:
//!
//! * instance: `SeedSequence::new(seed).child("ad-hoc").trial_rng("instance", 0)`
//! * trial `i`: `seq.trial_rng(&format!("{spec}@{family}"), i)`
//!
//! Nothing else feeds the streams — not the worker id, not submission order, not cache
//! state. The cache can only substitute a graph bit-identical to the one the job would have
//! built itself (the instance RNG depends on the job seed alone), so concurrency and
//! caching are unobservable in results.

pub mod cache;
pub mod protocol;
pub mod scheduler;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

use cobra_core::fault;
use cobra_core::sim::{CoverageTrace, FirstVisitTimes, Observer, RunOutcome, Runner};
use cobra_core::CoreError;
use cobra_stats::rng::SeedSequence;

use cache::GraphCache;
use protocol::{JobParams, Request, RequestError, TrialTrace, MAX_REQUEST_BYTES};
use scheduler::{CancelOutcome, JobPhase, Lookup, Scheduler, RETAINED_FINISHED_JOBS};

/// Server construction parameters — the `repro serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (`0` picks an ephemeral port).
    pub port: u16,
    /// Worker threads executing jobs; must be at least 1.
    pub workers: usize,
    /// Graph-cache budget in bytes (`0` disables caching).
    pub cache_bytes: usize,
    /// Bounded queue capacity: jobs queued beyond this are rejected with `queue-full`.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { port: 0, workers: 2, cache_bytes: 64 << 20, queue_capacity: 64 }
    }
}

/// A running server: the bound address plus the accept/worker threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    scheduler: Arc<Scheduler>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `port: 0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, aborts in-flight jobs at their next trial boundary, and joins the
    /// accept and worker threads.
    pub fn shutdown(self) {
        self.scheduler.shutdown();
        // The accept loop blocks in `accept()`; a throwaway connection unblocks it so it
        // can observe the shutdown flag.
        drop(TcpStream::connect(self.addr));
        let _ = self.accept.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Runs the server in the foreground (the `repro serve` CLI path): joins the accept
    /// thread, which only returns on listener failure.
    pub fn wait(self) {
        let _ = self.accept.join();
        self.scheduler.shutdown();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Binds the listener and spawns the accept loop plus `config.workers` worker threads.
///
/// # Errors
///
/// Returns an [`std::io::Error`] when the port cannot be bound, and `InvalidInput` for
/// `workers == 0`.
pub fn spawn(config: &ServeConfig) -> std::io::Result<ServerHandle> {
    if config.workers == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a server needs at least one worker thread",
        ));
    }
    let listener = TcpListener::bind(("127.0.0.1", config.port))?;
    let addr = listener.local_addr()?;
    let scheduler = Arc::new(Scheduler::new(config.queue_capacity));
    let graph_cache = Arc::new(GraphCache::new(config.cache_bytes));

    let workers = (0..config.workers)
        .map(|worker| {
            let scheduler = Arc::clone(&scheduler);
            let graph_cache = Arc::clone(&graph_cache);
            std::thread::spawn(move || worker_loop(worker, &scheduler, &graph_cache))
        })
        .collect();

    let accept = {
        let scheduler = Arc::clone(&scheduler);
        let graph_cache = Arc::clone(&graph_cache);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if scheduler.is_shutdown() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let scheduler = Arc::clone(&scheduler);
                let graph_cache = Arc::clone(&graph_cache);
                // Handler threads are detached: they exit on client EOF or write failure,
                // and a blocked streamer is released by the shutdown broadcast.
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &scheduler, &graph_cache);
                });
            }
        })
    };

    Ok(ServerHandle { addr, scheduler, accept, workers })
}

// ---------------------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------------------

enum LineRead {
    Eof,
    Oversized,
    Line(String),
}

/// Reads one `\n`-terminated request line, bounding memory at [`MAX_REQUEST_BYTES`].
fn read_line_limited(reader: &mut BufReader<TcpStream>) -> std::io::Result<LineRead> {
    let mut buf = Vec::new();
    let n = reader.by_ref().take(MAX_REQUEST_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if n > MAX_REQUEST_BYTES {
        return Ok(LineRead::Oversized);
    }
    Ok(LineRead::Line(String::from_utf8_lossy(&buf).trim().to_string()))
}

/// Sends `event` and its newline in one write.
fn write_line(writer: &mut impl Write, event: &str) -> std::io::Result<()> {
    write_lines(writer, &[event])
}

/// Sends every event, each followed by a newline, in one write. Two small writes on a Nagle
/// socket hold the second back until the client ACKs the first, which a client that delays
/// its ACKs does only when its ACK timer fires (about 40 ms); so a reply, and every batch of
/// events one `results` poll returns, leaves in a single write.
fn write_lines(writer: &mut impl Write, events: &[impl AsRef<str>]) -> std::io::Result<()> {
    let mut lines = Vec::with_capacity(events.iter().map(|e| e.as_ref().len() + 1).sum());
    for event in events {
        lines.extend_from_slice(event.as_ref().as_bytes());
        lines.push(b'\n');
    }
    writer.write_all(&lines)
}

fn handle_connection(
    stream: TcpStream,
    scheduler: &Scheduler,
    graph_cache: &GraphCache,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        let text = match read_line_limited(&mut reader)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => {
                // The rest of the oversized line is unparseable garbage, but it must be
                // drained before closing: unread bytes in the receive buffer turn the
                // close into a TCP reset that can race the error reply away.
                let mut rest = Vec::new();
                loop {
                    rest.clear();
                    let n = reader
                        .by_ref()
                        .take(MAX_REQUEST_BYTES as u64)
                        .read_until(b'\n', &mut rest)?;
                    if n == 0 || rest.ends_with(b"\n") {
                        break;
                    }
                }
                let error = RequestError::new(
                    "oversized-request",
                    format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                write_line(&mut writer, &error.to_event())?;
                return Ok(());
            }
            LineRead::Line(text) => text,
        };
        if text.is_empty() {
            continue;
        }
        match protocol::parse_request(&text) {
            Err(error) => write_line(&mut writer, &error.to_event())?,
            Ok(request) => dispatch(request, &mut writer, scheduler, graph_cache)?,
        }
    }
}

fn dispatch(
    request: Request,
    writer: &mut TcpStream,
    scheduler: &Scheduler,
    graph_cache: &GraphCache,
) -> std::io::Result<()> {
    match request {
        Request::Submit(params) => match scheduler.submit(params) {
            Ok(job) => write_line(writer, &protocol::accepted_event(job)),
            Err(reason) => write_line(writer, &protocol::error_event("queue-full", &reason)),
        },
        Request::Batch(batch) => match scheduler.submit_batch(batch) {
            Ok(jobs) => write_line(writer, &protocol::batch_accepted_event(&jobs)),
            Err(reason) => write_line(writer, &protocol::error_event("queue-full", &reason)),
        },
        Request::Status { job } => match scheduler.status(job) {
            Ok(status) => write_line(writer, &protocol::status_event(job, &status)),
            Err(missing) => write_line(writer, &missing_job(job, missing)),
        },
        Request::Cancel { job } => {
            let outcome = match scheduler.cancel(job, &protocol::job_cancelled_event(job)) {
                CancelOutcome::Cancelled => "cancelled",
                CancelOutcome::Requested => "requested",
                CancelOutcome::AlreadyTerminal => "already-terminal",
                CancelOutcome::Missing(missing) => {
                    return write_line(writer, &missing_job(job, missing))
                }
            };
            write_line(writer, &protocol::cancel_ack_event(job, outcome))
        }
        Request::Stats => {
            write_line(writer, &protocol::stats_event(&scheduler.stats(), &graph_cache.stats()))
        }
        Request::Results { job } => {
            let mut cursor = 0;
            loop {
                let (events, terminal) = match scheduler.next_events(job, cursor) {
                    Ok(batch) => batch,
                    Err(missing) => return write_line(writer, &missing_job(job, missing)),
                };
                write_lines(writer, &events)?;
                if terminal && events.is_empty() {
                    return Ok(());
                }
                cursor += events.len();
            }
        }
    }
}

/// The error for an id with no record: `unknown-job` if it was never issued, `expired-job`
/// if the job finished and was evicted.
fn missing_job(job: u64, missing: Lookup) -> String {
    match missing {
        Lookup::Unknown => protocol::error_event(
            "unknown-job",
            &format!("no job {job} (ids come from accepted events)"),
        ),
        Lookup::Expired => protocol::error_event(
            "expired-job",
            &format!(
                "job {job} finished and its record was evicted; the server keeps the last \
                 {RETAINED_FINISHED_JOBS} finished jobs"
            ),
        ),
    }
}

// ---------------------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------------------

fn worker_loop(worker: usize, scheduler: &Scheduler, graph_cache: &GraphCache) {
    while let Some((job, params)) = scheduler.next_job(worker) {
        run_job(job, &params, scheduler, graph_cache);
    }
}

fn fail(scheduler: &Scheduler, job: u64, error: &CoreError) {
    scheduler.finish(job, protocol::job_failed_event(job, error), JobPhase::Failed);
}

/// Executes one job, mirroring the `repro --process` ad-hoc path step for step (same
/// seeding, same validation, same churn routing) so served results are bit-identical to the
/// CLI's. Every user-input failure ends in a structured `job-failed` record — this function
/// must never panic on a spec that parsed.
fn run_job(job: u64, params: &JobParams, scheduler: &Scheduler, graph_cache: &GraphCache) {
    let seq = SeedSequence::new(params.seed).child("ad-hoc");
    let graph = graph_cache.get_or_build(&params.family, params.seed, || {
        let mut rng = seq.trial_rng("instance", 0);
        params.family.instantiate(&mut rng)
    });
    let graph = match graph {
        Ok(graph) => graph,
        Err(error) => {
            let family = &params.family;
            return fail(
                scheduler,
                job,
                &CoreError::UnsuitableGraph {
                    reason: format!("cannot instantiate {family}: {error}"),
                },
            );
        }
    };
    // Same policy as the CLI: churned specs re-instantiate per trial through the
    // fault-aware path, everything else shares the cached instance; either way the spec is
    // validated (churn-stripped) against the sample instance before any trial runs. For an
    // unchurned spec the validation build is the job's process, reset before every trial.
    let churned = params.spec.fault_plan().and_then(|plan| plan.churn).is_some();
    let validation_spec =
        if churned { params.spec.clone().without_churn() } else { params.spec.clone() };
    let mut process = match validation_spec.build(&graph) {
        Ok(process) => process,
        Err(error) => return fail(scheduler, job, &error),
    };

    let runner = Runner::new(params.max_rounds);
    let label = format!("{}@{}", params.spec, params.family);
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(params.trials);
    for index in 0..params.trials {
        if scheduler.should_abort(job) {
            return scheduler.finish(job, protocol::job_cancelled_event(job), JobPhase::Cancelled);
        }
        let mut rng = seq.trial_rng(&label, index as u64);
        let mut coverage = CoverageTrace::new();
        let mut visits = FirstVisitTimes::new();
        let mut traced: [&mut dyn Observer; 2] = [&mut coverage, &mut visits];
        let observers: &mut [&mut dyn Observer] = if params.trace { &mut traced } else { &mut [] };
        let outcome = if churned {
            match fault::run_churned_observed(
                &params.spec,
                &params.family,
                &runner,
                &mut rng,
                observers,
            ) {
                Ok(outcome) => outcome,
                Err(error) => return fail(scheduler, job, &error),
            }
        } else {
            process.reset();
            runner.run_observed(process.as_mut(), &mut rng, observers)
        };
        let trace = params.trace.then(|| TrialTrace {
            coverage_deltas: coverage.deltas(),
            cover_time: visits.cover_time(),
        });
        outcomes.push(outcome);
        scheduler.record_trial(job, protocol::trial_event(job, index, &outcome, trace.as_ref()));
    }
    scheduler.finish(job, protocol::summary_event(job, params, &outcomes), JobPhase::Done);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records each `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_poll_of_several_events_leaves_in_one_newline_framed_write() {
        let mut writer = Writes::default();
        let events =
            vec!["{\"event\":\"trial\"}".to_string(), "{\"event\":\"summary\"}".to_string()];
        write_lines(&mut writer, &events).unwrap();
        assert_eq!(writer.0, vec![b"{\"event\":\"trial\"}\n{\"event\":\"summary\"}\n".to_vec()]);
        write_line(&mut writer, "{\"event\":\"error\"}").unwrap();
        assert_eq!(writer.0.len(), 2);
        assert_eq!(writer.0[1], b"{\"event\":\"error\"}\n");
    }

    #[test]
    fn an_empty_poll_writes_nothing() {
        let mut writer = Writes::default();
        write_lines(&mut writer, &Vec::<String>::new()).unwrap();
        assert!(writer.0.is_empty());
    }
}
