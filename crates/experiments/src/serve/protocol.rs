//! The newline-delimited JSON protocol of `repro serve`.
//!
//! Requests are single-line JSON objects carrying a `"cmd"` field; responses are single-line
//! JSON objects carrying an `"event"` field (NDJSON). The grammar:
//!
//! ```text
//! -> {"cmd":"submit","spec":"cobra:k=2","graph":"random-regular:n=256,r=4",
//!     "trials":10,"seed":2016,"max_rounds":10000000,"trace":false}
//! <- {"event":"accepted","job":1}
//!
//! -> {"cmd":"batch","specs":["cobra:k=2","push"],"graphs":["complete:n=32"],"trials":5}
//! <- {"event":"batch-accepted","jobs":[2,3]}
//!
//! -> {"cmd":"status","job":1}
//! <- {"event":"status","job":1,"state":"running","worker":0,"trials_done":4,"trials":10}
//!
//! -> {"cmd":"results","job":1}            # streams until the terminal record
//! <- {"event":"trial","job":1,"trial":0,"rounds":9,"final_active":256,
//!     "num_vertices":256,"completed":true}
//! <- ... one line per trial, then exactly one terminal record:
//! <- {"event":"summary","job":1,"spec":"cobra:k=2","graph":"random-regular:n=256,r=4",
//!     "seed":2016,"trials":10,"completed":10,"mean":9.3,"p50":9,"p95":10,"min":9,"max":10}
//! <- (or {"event":"job-failed",...} / {"event":"job-cancelled",...})
//!
//! -> {"cmd":"cancel","job":1}
//! <- {"event":"cancel","job":1,"outcome":"cancelled"}   # or "requested" / "already-terminal"
//!
//! -> {"cmd":"stats"}
//! <- {"event":"stats","jobs":3,"queued":0,...,"cache_hits":2,...}
//! ```
//!
//! Every error — malformed JSON, unknown command, a spec that fails to parse, a full queue —
//! comes back as `{"event":"error","code":...,"message":...}` on the offending connection;
//! the job table is never touched by a rejected request. Field defaults mirror the quick
//! preset of the `repro --process` CLI path exactly, so an empty submit body measures the
//! same thing `repro --process <spec> --quick` prints.

use cobra_core::sim::RunOutcome;
use cobra_core::spec::ProcessSpec;
use cobra_core::CoreError;
use cobra_graph::generators::GraphFamily;
use cobra_stats::summary::{quantile, Summary};
use serde::{Serialize, Value};

use super::cache::CacheStats;
use super::scheduler::{JobPhase, SchedulerStats, StatusSnapshot};

/// Requests longer than this (one NDJSON line, newline included) are rejected with an
/// `oversized-request` error and the connection is closed.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Default master seed for submitted jobs — the `repro` CLI default.
pub const DEFAULT_SEED: u64 = 2016;

/// Default trial count — the quick-preset default of `repro --process`.
pub const DEFAULT_TRIALS: usize = 10;

/// Default round budget — the quick-preset default of `repro --process`.
pub const DEFAULT_MAX_ROUNDS: usize = 10_000_000;

/// Largest accepted `trials` value: a backstop against a single request monopolising the
/// server for hours (batches of jobs are the intended fan-out mechanism).
pub const MAX_TRIALS: usize = 100_000;

/// Default graph family — the quick-preset default of `repro --process`.
pub fn default_family() -> GraphFamily {
    GraphFamily::RandomRegular { n: 256, r: 4 }
}

/// Everything a worker needs to run one job. Bit-identity contract: running these params
/// through a worker produces exactly the outcomes of
/// `repro --process <spec> --graph <family> --trials <trials> --seed <seed> --max-rounds
/// <max_rounds>`.
#[derive(Debug, Clone)]
pub struct JobParams {
    /// The process (plus fault/adversary/defense clauses) to measure.
    pub spec: ProcessSpec,
    /// The graph family the instance is drawn from.
    pub family: GraphFamily,
    /// Number of Monte-Carlo trials.
    pub trials: usize,
    /// Master seed; the instance and every trial RNG derive from it.
    pub seed: u64,
    /// Per-trial round budget.
    pub max_rounds: usize,
    /// Whether to attach coverage/first-visit observers and emit their deltas per trial.
    pub trace: bool,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Enqueue one job.
    Submit(JobParams),
    /// Enqueue a trial matrix (`specs` x `graphs`) atomically: all jobs or none.
    Batch(Vec<JobParams>),
    /// Report a job's phase and progress.
    Status {
        /// The job id from an `accepted` event.
        job: u64,
    },
    /// Stream a job's NDJSON events until its terminal record.
    Results {
        /// The job id from an `accepted` event.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job id from an `accepted` event.
        job: u64,
    },
    /// Report scheduler and graph-cache counters.
    Stats,
}

/// A rejected request: a machine-readable `code` plus a human-readable `message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Stable error code (`malformed-request`, `invalid-request`, `invalid-spec`,
    /// `invalid-graph`, `oversized-request`, `queue-full`, `unknown-job`, `expired-job`).
    pub code: &'static str,
    /// What was wrong, with the offending input where useful.
    pub message: String,
}

impl RequestError {
    /// Creates an error with the given code and message.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        RequestError { code, message: message.into() }
    }

    /// Renders the error as its NDJSON `error` event line.
    pub fn to_event(&self) -> String {
        error_event(self.code, &self.message)
    }
}

fn invalid(message: impl Into<String>) -> RequestError {
    RequestError::new("invalid-request", message)
}

fn entry(name: &str, value: Value) -> (String, Value) {
    (name.to_string(), value)
}

fn line(value: &Value) -> String {
    serde_json::to_string(value).expect("Value serialization is infallible")
}

fn str_value(text: &str) -> Value {
    Value::String(text.to_string())
}

fn num(x: f64) -> Value {
    x.serialize()
}

// ---------------------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------------------

fn field<'v>(entries: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    entries.iter().find(|(key, _)| key == name).map(|(_, value)| value)
}

fn check_fields(entries: &[(String, Value)], allowed: &[&str]) -> Result<(), RequestError> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(format!(
                "unknown field {key:?} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn required_str<'v>(entries: &'v [(String, Value)], name: &str) -> Result<&'v str, RequestError> {
    field(entries, name)
        .ok_or_else(|| invalid(format!("missing required field {name:?}")))?
        .as_str()
        .ok_or_else(|| invalid(format!("field {name:?} must be a string")))
}

fn integer_from(value: &Value, name: &str) -> Result<u64, RequestError> {
    let x = value.as_f64().ok_or_else(|| invalid(format!("field {name:?} must be a number")))?;
    if x.fract() != 0.0 || !(0.0..=9.0e15).contains(&x) {
        return Err(invalid(format!("field {name:?} must be a non-negative integer, got {x}")));
    }
    Ok(x as u64)
}

fn opt_integer(entries: &[(String, Value)], name: &str, default: u64) -> Result<u64, RequestError> {
    match field(entries, name) {
        Some(value) => integer_from(value, name),
        None => Ok(default),
    }
}

fn opt_bool(entries: &[(String, Value)], name: &str) -> Result<bool, RequestError> {
    match field(entries, name) {
        Some(value) => {
            value.as_bool().ok_or_else(|| invalid(format!("field {name:?} must be a boolean")))
        }
        None => Ok(false),
    }
}

fn required_job(entries: &[(String, Value)]) -> Result<u64, RequestError> {
    let value = field(entries, "job").ok_or_else(|| invalid("missing required field \"job\""))?;
    integer_from(value, "job")
}

fn parse_spec(text: &str) -> Result<ProcessSpec, RequestError> {
    text.parse().map_err(|e| RequestError::new("invalid-spec", format!("{e}")))
}

fn parse_family(text: &str) -> Result<GraphFamily, RequestError> {
    text.parse().map_err(|e| RequestError::new("invalid-graph", format!("{e}")))
}

struct SharedParams {
    trials: usize,
    seed: u64,
    max_rounds: usize,
    trace: bool,
}

fn shared_params(entries: &[(String, Value)]) -> Result<SharedParams, RequestError> {
    let trials = opt_integer(entries, "trials", DEFAULT_TRIALS as u64)? as usize;
    if trials == 0 {
        return Err(invalid("field \"trials\" must be at least 1"));
    }
    if trials > MAX_TRIALS {
        return Err(invalid(format!("field \"trials\" exceeds the per-job cap of {MAX_TRIALS}")));
    }
    let max_rounds = opt_integer(entries, "max_rounds", DEFAULT_MAX_ROUNDS as u64)? as usize;
    if max_rounds == 0 {
        return Err(invalid("field \"max_rounds\" must be at least 1"));
    }
    Ok(SharedParams {
        trials,
        seed: opt_integer(entries, "seed", DEFAULT_SEED)?,
        max_rounds,
        trace: opt_bool(entries, "trace")?,
    })
}

fn parse_submit(entries: &[(String, Value)]) -> Result<Request, RequestError> {
    check_fields(entries, &["cmd", "spec", "graph", "trials", "seed", "max_rounds", "trace"])?;
    let spec = parse_spec(required_str(entries, "spec")?)?;
    let family = match field(entries, "graph") {
        Some(value) => parse_family(
            value.as_str().ok_or_else(|| invalid("field \"graph\" must be a string"))?,
        )?,
        None => default_family(),
    };
    let shared = shared_params(entries)?;
    Ok(Request::Submit(JobParams {
        spec,
        family,
        trials: shared.trials,
        seed: shared.seed,
        max_rounds: shared.max_rounds,
        trace: shared.trace,
    }))
}

fn parse_batch(entries: &[(String, Value)]) -> Result<Request, RequestError> {
    check_fields(entries, &["cmd", "specs", "graphs", "trials", "seed", "max_rounds", "trace"])?;
    let spec_values = field(entries, "specs")
        .ok_or_else(|| invalid("missing required field \"specs\""))?
        .as_array()
        .ok_or_else(|| invalid("field \"specs\" must be an array of spec strings"))?;
    if spec_values.is_empty() {
        return Err(invalid("field \"specs\" must name at least one process"));
    }
    let mut specs = Vec::with_capacity(spec_values.len());
    for value in spec_values {
        specs.push(parse_spec(
            value.as_str().ok_or_else(|| invalid("field \"specs\" must contain strings"))?,
        )?);
    }
    let families = match field(entries, "graphs") {
        None => vec![default_family()],
        Some(value) => {
            let graph_values = value
                .as_array()
                .ok_or_else(|| invalid("field \"graphs\" must be an array of graph strings"))?;
            if graph_values.is_empty() {
                return Err(invalid("field \"graphs\" must name at least one graph"));
            }
            let mut families = Vec::with_capacity(graph_values.len());
            for value in graph_values {
                families.push(parse_family(
                    value
                        .as_str()
                        .ok_or_else(|| invalid("field \"graphs\" must contain strings"))?,
                )?);
            }
            families
        }
    };
    let shared = shared_params(entries)?;
    let mut jobs = Vec::with_capacity(specs.len() * families.len());
    for spec in &specs {
        for family in &families {
            jobs.push(JobParams {
                spec: spec.clone(),
                family: family.clone(),
                trials: shared.trials,
                seed: shared.seed,
                max_rounds: shared.max_rounds,
                trace: shared.trace,
            });
        }
    }
    Ok(Request::Batch(jobs))
}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// Returns a [`RequestError`] with code `malformed-request` for invalid JSON and
/// `invalid-request` / `invalid-spec` / `invalid-graph` for a well-formed object that does
/// not describe a valid command.
pub fn parse_request(text: &str) -> Result<Request, RequestError> {
    let value: Value = serde_json::from_str(text)
        .map_err(|e| RequestError::new("malformed-request", format!("{e}")))?;
    let entries = value
        .as_object()
        .ok_or_else(|| RequestError::new("malformed-request", "request must be a JSON object"))?;
    let cmd = required_str(entries, "cmd")?;
    match cmd {
        "submit" => parse_submit(entries),
        "batch" => parse_batch(entries),
        "status" => {
            check_fields(entries, &["cmd", "job"])?;
            Ok(Request::Status { job: required_job(entries)? })
        }
        "results" => {
            check_fields(entries, &["cmd", "job"])?;
            Ok(Request::Results { job: required_job(entries)? })
        }
        "cancel" => {
            check_fields(entries, &["cmd", "job"])?;
            Ok(Request::Cancel { job: required_job(entries)? })
        }
        "stats" => {
            check_fields(entries, &["cmd"])?;
            Ok(Request::Stats)
        }
        other => Err(invalid(format!(
            "unknown cmd {other:?} (expected submit, batch, status, results, cancel or stats)"
        ))),
    }
}

// ---------------------------------------------------------------------------------------
// Event rendering
// ---------------------------------------------------------------------------------------

/// `{"event":"error","code":...,"message":...}`.
pub fn error_event(code: &str, message: &str) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("error")),
        entry("code", str_value(code)),
        entry("message", str_value(message)),
    ]))
}

/// `{"event":"accepted","job":N}`.
pub fn accepted_event(job: u64) -> String {
    line(&Value::Object(vec![entry("event", str_value("accepted")), entry("job", num(job as f64))]))
}

/// `{"event":"batch-accepted","jobs":[...]}`.
pub fn batch_accepted_event(jobs: &[u64]) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("batch-accepted")),
        entry("jobs", Value::Array(jobs.iter().map(|&job| num(job as f64)).collect())),
    ]))
}

/// `{"event":"status","job":N,"state":...,"worker":...,"trials_done":...,"trials":...}`.
pub fn status_event(job: u64, status: &StatusSnapshot) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("status")),
        entry("job", num(job as f64)),
        entry("state", str_value(status.phase.as_str())),
        entry("worker", status.worker.map_or(Value::Null, |w| num(w as f64))),
        entry("trials_done", num(status.trials_done as f64)),
        entry("trials", num(status.trials_total as f64)),
    ]))
}

/// `{"event":"cancel","job":N,"outcome":...}` — the acknowledgement of a cancel request
/// (the job's own stream terminates with `job-cancelled`).
pub fn cancel_ack_event(job: u64, outcome: &str) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("cancel")),
        entry("job", num(job as f64)),
        entry("outcome", str_value(outcome)),
    ]))
}

/// Per-trial observer output attached to a `trial` event when the job asked for `trace`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialTrace {
    /// `|A_t \ A_{t-1}|` per executed round — the increments of the coverage curve
    /// ([`CoverageTrace::deltas`](cobra_core::sim::CoverageTrace::deltas)).
    pub coverage_deltas: Vec<usize>,
    /// The round at which every vertex had been visited, if the trial covered.
    pub cover_time: Option<usize>,
}

/// `{"event":"trial","job":N,"trial":i,...}` — one completed trial, in trial order.
pub fn trial_event(
    job: u64,
    index: usize,
    outcome: &RunOutcome,
    trace: Option<&TrialTrace>,
) -> String {
    let mut entries = vec![
        entry("event", str_value("trial")),
        entry("job", num(job as f64)),
        entry("trial", num(index as f64)),
        entry("rounds", num(outcome.rounds as f64)),
        entry("final_active", num(outcome.final_active as f64)),
        entry("num_vertices", num(outcome.num_vertices as f64)),
        entry("completed", Value::Bool(outcome.completed())),
    ];
    if let Some(trace) = trace {
        entries.push(entry(
            "coverage_deltas",
            Value::Array(trace.coverage_deltas.iter().map(|&d| num(d as f64)).collect()),
        ));
        entries.push(entry("cover_time", trace.cover_time.map_or(Value::Null, |t| num(t as f64))));
    }
    line(&Value::Object(entries))
}

/// The terminal `summary` record: the same aggregate the `repro --process` driver computes
/// (completed count, mean, p50, p95, min, max over completion rounds, budget-exhausted
/// trials excluded). Both the server and conformance harnesses call this one function, so
/// "summary matches the CLI" is a byte-for-byte comparison.
pub fn summary_event(job: u64, params: &JobParams, outcomes: &[RunOutcome]) -> String {
    let completed: Vec<f64> = outcomes
        .iter()
        .filter_map(|outcome| outcome.completion_rounds())
        .map(|rounds| rounds as f64)
        .collect();
    let summary: Summary = completed.iter().copied().collect();
    let mean = if completed.is_empty() { f64::NAN } else { summary.mean() };
    line(&Value::Object(vec![
        entry("event", str_value("summary")),
        entry("job", num(job as f64)),
        entry("spec", str_value(&format!("{}", params.spec))),
        entry("graph", str_value(&format!("{}", params.family))),
        entry("seed", num(params.seed as f64)),
        entry("trials", num(outcomes.len() as f64)),
        entry("completed", num(completed.len() as f64)),
        entry("mean", num(mean)),
        entry("p50", num(quantile(&completed, 0.5).unwrap_or(f64::NAN))),
        entry("p95", num(quantile(&completed, 0.95).unwrap_or(f64::NAN))),
        entry("min", num(summary.min().unwrap_or(f64::NAN))),
        entry("max", num(summary.max().unwrap_or(f64::NAN))),
    ]))
}

/// Maps a [`CoreError`] to its stable protocol code.
pub fn core_error_code(error: &CoreError) -> &'static str {
    match error {
        CoreError::VertexOutOfRange { .. } => "vertex-out-of-range",
        CoreError::UnsuitableGraph { .. } => "unsuitable-graph",
        CoreError::InvalidParameters { .. } => "invalid-parameters",
        CoreError::InvalidSpec { .. } => "invalid-spec",
        CoreError::RoundBudgetExceeded { .. } => "round-budget-exceeded",
        CoreError::TooLargeForExact { .. } => "too-large-for-exact",
        // `CoreError` is non_exhaustive; future variants still get a structured record.
        _ => "core-error",
    }
}

/// The terminal `job-failed` record: a structured build/instantiation error. A job that
/// parses but fails [`ProcessSpec::build`] ends here — never in a worker panic.
pub fn job_failed_event(job: u64, error: &CoreError) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("job-failed")),
        entry("job", num(job as f64)),
        entry("code", str_value(core_error_code(error))),
        entry("message", str_value(&format!("{error}"))),
    ]))
}

/// The terminal `job-cancelled` record.
pub fn job_cancelled_event(job: u64) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("job-cancelled")),
        entry("job", num(job as f64)),
    ]))
}

/// `{"event":"stats",...}` — scheduler job counts plus graph-cache counters.
pub fn stats_event(scheduler: &SchedulerStats, cache: &CacheStats) -> String {
    line(&Value::Object(vec![
        entry("event", str_value("stats")),
        entry("jobs", num(scheduler.submitted as f64)),
        entry("queued", num(scheduler.queued as f64)),
        entry("running", num(scheduler.running as f64)),
        entry("done", num(scheduler.done as f64)),
        entry("failed", num(scheduler.failed as f64)),
        entry("cancelled", num(scheduler.cancelled as f64)),
        entry("cache_hits", num(cache.hits as f64)),
        entry("cache_misses", num(cache.misses as f64)),
        entry("cache_evictions", num(cache.evictions as f64)),
        entry("cache_entries", num(cache.entries as f64)),
        entry("cache_bytes", num(cache.bytes as f64)),
        entry("cache_capacity", num(cache.capacity as f64)),
    ]))
}

/// The phase spelling used by `status` events — re-exported for handler code.
pub fn phase_str(phase: JobPhase) -> &'static str {
    phase.as_str()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra_core::sim::StopReason;

    fn outcome(rounds: usize, reason: StopReason) -> RunOutcome {
        RunOutcome { rounds, final_active: 32, num_vertices: 32, reason }
    }

    #[test]
    fn submit_defaults_mirror_the_cli_quick_preset() {
        let request = parse_request(r#"{"cmd":"submit","spec":"cobra:k=2"}"#).unwrap();
        let Request::Submit(params) = request else { panic!("expected submit") };
        assert_eq!(format!("{}", params.spec), "cobra:k=2");
        assert_eq!(params.family, default_family());
        assert_eq!(params.trials, DEFAULT_TRIALS);
        assert_eq!(params.seed, DEFAULT_SEED);
        assert_eq!(params.max_rounds, DEFAULT_MAX_ROUNDS);
        assert!(!params.trace);
    }

    #[test]
    fn submit_accepts_every_override() {
        let request = parse_request(
            r#"{"cmd":"submit","spec":"push+drop=0.1","graph":"complete:n=32",
                "trials":3,"seed":7,"max_rounds":500,"trace":true}"#,
        )
        .unwrap();
        let Request::Submit(params) = request else { panic!("expected submit") };
        assert_eq!(format!("{}", params.family), "complete:n=32");
        assert_eq!((params.trials, params.seed, params.max_rounds), (3, 7, 500));
        assert!(params.trace);
    }

    #[test]
    fn batch_expands_the_spec_by_graph_matrix() {
        let request = parse_request(
            r#"{"cmd":"batch","specs":["cobra:k=2","push"],
                "graphs":["complete:n=16","cycle:n=8"],"trials":2}"#,
        )
        .unwrap();
        let Request::Batch(jobs) = request else { panic!("expected batch") };
        assert_eq!(jobs.len(), 4);
        assert!(jobs.iter().all(|j| j.trials == 2));
        let labels: Vec<String> = jobs.iter().map(|j| format!("{}@{}", j.spec, j.family)).collect();
        assert_eq!(
            labels,
            [
                "cobra:k=2@complete:n=16",
                "cobra:k=2@cycle:n=8",
                "push@complete:n=16",
                "push@cycle:n=8",
            ]
        );
    }

    #[test]
    fn malformed_and_invalid_requests_carry_stable_codes() {
        assert_eq!(parse_request("{oops").unwrap_err().code, "malformed-request");
        assert_eq!(parse_request("42").unwrap_err().code, "malformed-request");
        assert_eq!(parse_request(r#"{"spec":"cobra:k=2"}"#).unwrap_err().code, "invalid-request");
        assert_eq!(parse_request(r#"{"cmd":"frobnicate"}"#).unwrap_err().code, "invalid-request");
        assert_eq!(
            parse_request(r#"{"cmd":"submit","spec":"frisbee"}"#).unwrap_err().code,
            "invalid-spec"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"submit","spec":"cobra:k=2","graph":"mystery:n=2"}"#)
                .unwrap_err()
                .code,
            "invalid-graph"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"submit","spec":"cobra:k=2","trials":0}"#).unwrap_err().code,
            "invalid-request"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"submit","spec":"cobra:k=2","trials":1e9}"#).unwrap_err().code,
            "invalid-request"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"submit","spec":"cobra:k=2","frobs":1}"#).unwrap_err().code,
            "invalid-request"
        );
        assert_eq!(parse_request(r#"{"cmd":"status"}"#).unwrap_err().code, "invalid-request");
        assert_eq!(
            parse_request(r#"{"cmd":"batch","specs":[]}"#).unwrap_err().code,
            "invalid-request"
        );
        assert_eq!(
            parse_request(r#"{"cmd":"batch","specs":["cobra:k=2"],"graphs":[]}"#).unwrap_err().code,
            "invalid-request"
        );
    }

    #[test]
    fn events_render_as_single_ndjson_lines() {
        for event in [
            error_event("queue-full", "queue at capacity 4"),
            accepted_event(3),
            batch_accepted_event(&[4, 5]),
            cancel_ack_event(3, "requested"),
            trial_event(3, 0, &outcome(9, StopReason::Completed), None),
            job_cancelled_event(3),
        ] {
            assert!(!event.contains('\n'), "{event}");
            assert!(serde_json::from_str::<Value>(&event).is_ok(), "{event}");
        }
        let traced = trial_event(
            3,
            1,
            &outcome(2, StopReason::Completed),
            Some(&TrialTrace { coverage_deltas: vec![1, 3, 4], cover_time: Some(2) }),
        );
        assert!(traced.contains("\"coverage_deltas\":[1,3,4]"), "{traced}");
        assert!(traced.contains("\"cover_time\":2"), "{traced}");
    }

    #[test]
    fn summary_event_matches_the_driver_aggregation() {
        let params = JobParams {
            spec: "cobra:k=2".parse().unwrap(),
            family: default_family(),
            trials: 3,
            seed: DEFAULT_SEED,
            max_rounds: 100,
            trace: false,
        };
        let outcomes = [
            outcome(10, StopReason::Completed),
            outcome(100, StopReason::BudgetExhausted),
            outcome(20, StopReason::Completed),
        ];
        let event = summary_event(9, &params, &outcomes);
        // Budget-exhausted trials are excluded from the aggregates, exactly like the
        // `repro --process` table.
        assert!(event.contains("\"trials\":3"), "{event}");
        assert!(event.contains("\"completed\":2"), "{event}");
        assert!(event.contains("\"mean\":15"), "{event}");
        assert!(event.contains("\"min\":10"), "{event}");
        assert!(event.contains("\"max\":20"), "{event}");
        // All-exhausted jobs summarize to null aggregates, not NaN (JSON has no NaN).
        let empty = summary_event(9, &params, &[outcome(100, StopReason::BudgetExhausted)]);
        assert!(empty.contains("\"mean\":null"), "{empty}");
    }

    #[test]
    fn core_errors_map_to_stable_codes() {
        let error = CoreError::VertexOutOfRange { vertex: 99, num_vertices: 16 };
        assert_eq!(core_error_code(&error), "vertex-out-of-range");
        let event = job_failed_event(2, &error);
        assert!(event.contains("\"event\":\"job-failed\""), "{event}");
        assert!(event.contains("\"code\":\"vertex-out-of-range\""), "{event}");
    }
}
