//! `repro` — regenerates every experiment table of the reproduction, and runs ad-hoc
//! spec-driven measurements.
//!
//! ```text
//! repro                        # run every experiment with the quick preset
//! repro --full                 # run every experiment with the full preset (slow)
//! repro --exp e4               # run a single experiment
//! repro --list                 # list experiments
//! repro --seed 123             # change the master seed
//!
//! # Ad-hoc mode: measure any process on any graph, no experiment file needed.
//! repro --process cobra:k=2 --quick
//! repro --process bips:rho=0.5 --graph torus:sides=32x32 --trials 20
//! repro --process push --graph random-regular:n=4096,r=4 --max-rounds 100000
//! repro --process cobra:k=2+drop=0.1+crash=5% --quick     # fault injection
//! repro --process cobra:k=2+churn=64 --trials 20          # graph churn (fresh graph/trial)
//! repro --list-processes       # show the spec syntax for every process
//!
//! # Serve mode: the same ad-hoc measurements over a TCP socket speaking NDJSON
//! # (submit/batch/status/results/cancel/stats), bit-identical to the --process path.
//! repro serve --port 7016 --workers 4 --cache-mb 64 --queue 64
//! ```

use std::process::ExitCode;

use cobra_core::sim::Runner;
use cobra_core::spec::ProcessSpec;
use cobra_experiments::driver;
use cobra_experiments::registry::{run_experiment, ExperimentId, Preset};
use cobra_graph::generators::GraphFamily;
use cobra_stats::parallel::TrialConfig;
use cobra_stats::rng::SeedSequence;
use cobra_stats::summary::quantile;
use cobra_stats::table::{fmt_float, Table};

struct Options {
    preset: Preset,
    seed: Option<u64>,
    only: Option<ExperimentId>,
    list: bool,
    list_processes: bool,
    process: Option<ProcessSpec>,
    graph: Option<GraphFamily>,
    trials: Option<usize>,
    max_rounds: Option<usize>,
    threads: Option<usize>,
    serve: bool,
    port: Option<u16>,
    workers: Option<usize>,
    cache_mb: Option<usize>,
    queue: Option<usize>,
}

impl Options {
    /// The master seed for experiment and ad-hoc modes (`--seed`, default 2016). Serve
    /// mode rejects `--seed` instead: every submitted job carries its own seed field.
    fn master_seed(&self) -> u64 {
        self.seed.unwrap_or(2016)
    }
}

const HELP_TEXT: &str = "usage: repro [--full|--quick] [--exp e1..e12] [--seed N] [--list]\n\
     \x20      repro --process <spec> [--graph <spec>] [--trials N] [--max-rounds N]\n\
     \x20              [--threads N]\n\
     \x20      repro serve [--port N] [--workers N] [--cache-mb N] [--queue N]\n\
     \x20      repro --list-processes\n\
     regenerates the experiment tables of the COBRA/BIPS reproduction,\n\
     measures one process spec (e.g. cobra:k=2, bips:rho=0.5, push,\n\
     contact:p=0.5,q=0.2, with optional fault clauses like\n\
     cobra:k=2+drop=0.1+crash=5%+churn=64, adaptive adversaries like\n\
     cobra:k=2+adv=topdeg:budget=5%, defense policies like\n\
     cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4,\n\
     degree budgets like cobra:k=deg:cap=4 and per-edge channels like\n\
     cobra:k=2+gedrop=0.1,0.25,0.5:scope=edge)\n\
     on one graph spec\n\
     (e.g. random-regular:n=256,r=4, torus:sides=32x32, erdos-renyi:n=256,p=0.05,\n\
     barbell:k=32, chung-lu:n=1024,gamma=3,d=8, file:path=nets/topo.edges).\n\
     --threads N runs ad-hoc trials on the per-vertex stream engine, each round\n\
     cut into N shards (trajectories are identical for any N >= 1). Trials and\n\
     shards share one pool of nproc threads: a multi-trial run spends it on trials\n\
     and runs each trial's shards inline, so shards run in parallel with --trials 1.\n\
     \n\
     `repro serve` exposes the ad-hoc path as a TCP service on 127.0.0.1 speaking\n\
     newline-delimited JSON: requests are one-line objects with a \"cmd\" field\n\
     (submit, batch, status, results, cancel, stats), responses are one-line\n\
     objects with an \"event\" field. `submit` takes {\"spec\", \"graph\", \"trials\",\n\
     \"seed\", \"max_rounds\", \"trace\"} (defaults mirror `--process --quick`) and\n\
     answers {\"event\":\"accepted\",\"job\":N}; `batch` fans a specs x graphs matrix\n\
     out atomically; `results` streams one \"trial\" event per trial and ends with\n\
     a \"summary\" (or \"job-failed\"/\"job-cancelled\") record bit-identical to the\n\
     `--process` table inputs. --workers sizes the thread pool, --cache-mb bounds\n\
     the shared LRU graph-instance cache, --queue bounds the job queue (submits\n\
     beyond it get {\"event\":\"error\",\"code\":\"queue-full\"}), and --port 0 picks an\n\
     ephemeral port (printed on stdout as `serving on ADDR`). The server keeps the\n\
     last 1024 finished jobs; status, results or cancel on an older job gets\n\
     {\"event\":\"error\",\"code\":\"expired-job\"}";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        preset: Preset::Quick,
        seed: None,
        only: None,
        list: false,
        list_processes: false,
        process: None,
        graph: None,
        trials: None,
        max_rounds: None,
        threads: None,
        serve: false,
        port: None,
        workers: None,
        cache_mb: None,
        queue: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "serve" => options.serve = true,
            "--port" => {
                let value = args.next().ok_or("--port requires a TCP port (0 for ephemeral)")?;
                options.port = Some(value.parse().map_err(|_| format!("invalid port {value:?}"))?);
            }
            "--workers" => {
                let value = args.next().ok_or("--workers requires a worker count >= 1")?;
                let workers: usize =
                    value.parse().map_err(|_| format!("invalid worker count {value:?}"))?;
                if workers == 0 {
                    return Err("--workers 0 is rejected: a server with no worker threads \
                         would accept jobs and never run them (use --workers 1 for a \
                         single-worker server)"
                        .to_string());
                }
                options.workers = Some(workers);
            }
            "--cache-mb" => {
                let value =
                    args.next().ok_or("--cache-mb requires a size in MiB (0 disables caching)")?;
                options.cache_mb =
                    Some(value.parse().map_err(|_| format!("invalid cache size {value:?}"))?);
            }
            "--queue" => {
                let value = args.next().ok_or("--queue requires a capacity >= 1")?;
                let queue: usize =
                    value.parse().map_err(|_| format!("invalid queue capacity {value:?}"))?;
                if queue == 0 {
                    return Err("--queue 0 is rejected: a zero-capacity queue refuses every \
                         submission"
                        .to_string());
                }
                options.queue = Some(queue);
            }
            "--full" => options.preset = Preset::Full,
            "--quick" => options.preset = Preset::Quick,
            "--list" => options.list = true,
            "--list-processes" => options.list_processes = true,
            "--exp" => {
                let value = args.next().ok_or("--exp requires an experiment id (e1..e12)")?;
                options.only = Some(
                    ExperimentId::parse(&value)
                        .ok_or_else(|| format!("unknown experiment id {value:?}"))?,
                );
            }
            "--seed" => {
                let value = args.next().ok_or("--seed requires an integer")?;
                options.seed = Some(value.parse().map_err(|_| format!("invalid seed {value:?}"))?);
            }
            "--process" => {
                let value = args.next().ok_or("--process requires a spec like cobra:k=2")?;
                options.process =
                    Some(value.parse().map_err(|e| format!("invalid process spec: {e}"))?);
            }
            "--graph" => {
                let value =
                    args.next().ok_or("--graph requires a spec like random-regular:n=256,r=4")?;
                options.graph =
                    Some(value.parse().map_err(|e| format!("invalid graph spec: {e}"))?);
            }
            "--trials" => {
                let value = args.next().ok_or("--trials requires an integer")?;
                options.trials =
                    Some(value.parse().map_err(|_| format!("invalid trial count {value:?}"))?);
            }
            "--max-rounds" => {
                let value = args.next().ok_or("--max-rounds requires an integer")?;
                options.max_rounds =
                    Some(value.parse().map_err(|_| format!("invalid round budget {value:?}"))?);
            }
            "--threads" => {
                let value = args.next().ok_or("--threads requires a worker count >= 1")?;
                let threads: usize =
                    value.parse().map_err(|_| format!("invalid thread count {value:?}"))?;
                if threads == 0 {
                    return Err("--threads 0 is rejected: the stream engine needs at least \
                         one worker (use --threads 1 for the single-threaded stream path)"
                        .to_string());
                }
                options.threads = Some(threads);
            }
            "--help" | "-h" => {
                println!("{HELP_TEXT}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// Rejects flag combinations where a flag would otherwise be silently ignored — every mode
/// (serve / listing / ad-hoc `--process` / experiment) accepts a different subset.
fn mode_conflicts(options: &Options) -> Result<(), String> {
    if options.serve {
        if options.process.is_some() || options.only.is_some() {
            return Err("`repro serve` takes jobs over the socket, not from flags; drop \
                 --process/--exp (submit {\"cmd\":\"submit\",\"spec\":...} instead)"
                .to_string());
        }
        if options.graph.is_some()
            || options.trials.is_some()
            || options.max_rounds.is_some()
            || options.threads.is_some()
            || options.seed.is_some()
            || options.preset == Preset::Full
            || options.list
            || options.list_processes
        {
            return Err("`repro serve` only accepts --port/--workers/--cache-mb/--queue; \
                 per-job settings (graph, trials, seed, max_rounds) travel in each submit \
                 request"
                .to_string());
        }
        return Ok(());
    }
    if options.port.is_some()
        || options.workers.is_some()
        || options.cache_mb.is_some()
        || options.queue.is_some()
    {
        return Err("--port/--workers/--cache-mb/--queue configure `repro serve`; add the \
             serve subcommand"
            .to_string());
    }
    if options.list || options.list_processes {
        if options.list && options.list_processes {
            return Err("--list and --list-processes are separate listings; pick one".to_string());
        }
        if options.process.is_some()
            || options.only.is_some()
            || options.graph.is_some()
            || options.trials.is_some()
            || options.max_rounds.is_some()
            || options.threads.is_some()
        {
            return Err("--list/--list-processes only print a listing; \
                 --process/--exp/--graph/--trials/--max-rounds/--threads are not applicable"
                .to_string());
        }
        return Ok(());
    }
    if options.process.is_some() {
        if options.only.is_some() {
            return Err("--process runs ad-hoc mode, which ignores experiment ids; drop either \
                 --exp or --process"
                .to_string());
        }
        return Ok(());
    }
    // Experiment mode: trial counts and instances come from the preset.
    if options.graph.is_some() || options.trials.is_some() || options.max_rounds.is_some() {
        return Err("--graph/--trials/--max-rounds only apply to ad-hoc --process runs; \
             experiment mode takes its instances and trial counts from the preset \
             (--quick|--full)"
            .to_string());
    }
    if options.threads.is_some() {
        return Err("--threads selects the sharded stream engine, which only applies to \
             ad-hoc --process runs; experiment tables always run the \
             bit-equivalence-checked sequential engine"
            .to_string());
    }
    Ok(())
}

fn run_ad_hoc(options: &Options, spec: &ProcessSpec) -> ExitCode {
    let (default_graph, default_trials, default_rounds) = match options.preset {
        Preset::Quick => (GraphFamily::RandomRegular { n: 256, r: 4 }, 10, 10_000_000),
        Preset::Full => (GraphFamily::RandomRegular { n: 4096, r: 4 }, 50, 100_000_000),
    };
    let family = options.graph.clone().unwrap_or(default_graph);
    let trials = options.trials.unwrap_or(default_trials);
    let max_rounds = options.max_rounds.unwrap_or(default_rounds);

    let seq = SeedSequence::new(options.master_seed()).child("ad-hoc");
    let mut rng = seq.trial_rng("instance", 0);
    let graph = match family.instantiate(&mut rng) {
        Ok(graph) => graph,
        Err(error) => {
            eprintln!("error: cannot build graph {family}: {error}");
            return ExitCode::FAILURE;
        }
    };
    // Churn re-instantiates the family mid-run, so churned specs get a fresh graph per
    // trial through the fault-aware driver; everything else shares one instance. Either
    // way the spec is validated before any trial runs (churned specs against a churn-stripped
    // build on the sample instance, the rest by the driver's own first build), so user input
    // fails with a message instead of panicking mid-trial.
    let churned = spec.fault_plan().and_then(|plan| plan.churn).is_some();
    if churned && options.threads.is_some() {
        eprintln!(
            "error: {spec} carries a churn clause, which re-instantiates the graph mid-run \
             and has no per-vertex stream path; drop --threads or the churn clause"
        );
        return ExitCode::FAILURE;
    }

    let runner = Runner::new(max_rounds);
    let label = format!("{spec}@{family}");
    let config = TrialConfig::parallel(trials);
    let outcomes = if churned {
        spec.clone()
            .without_churn()
            .build(&graph)
            .map(|_| driver::run_adverse_trials(&family, spec, &runner, &seq, &label, config))
    } else if let Some(threads) = options.threads {
        driver::try_run_parallel_spec_trials(&graph, spec, &runner, &seq, &label, config, threads)
    } else {
        driver::try_run_spec_trials(&graph, spec, &runner, &seq, &label, config)
    };
    let outcomes = match outcomes {
        Ok(outcomes) => outcomes,
        Err(error) => {
            eprintln!("error: cannot run {spec} on {family}: {error}");
            return ExitCode::FAILURE;
        }
    };
    let completed: Vec<f64> =
        outcomes.iter().filter_map(|o| o.completion_rounds()).map(|rounds| rounds as f64).collect();
    let summary: cobra_stats::summary::Summary = completed.iter().copied().collect();

    println!("# ad-hoc run — seed {}\n", options.master_seed());
    let engine_note = match options.threads {
        Some(threads) => format!(" [stream engine, {threads} thread(s)]"),
        None if churned => " [fresh instance per trial + churn]".to_string(),
        None => String::new(),
    };
    let mut table = Table::with_headers(
        format!(
            "{spec} on {family}{engine_note} ({} vertices, {trials} trials, budget {max_rounds})",
            graph.num_vertices()
        ),
        &["completed", "mean rounds", "p50", "p95", "min", "max"],
    );
    let mean = if completed.is_empty() { f64::NAN } else { summary.mean() };
    table.add_row(vec![
        format!("{}/{}", completed.len(), outcomes.len()),
        fmt_float(mean),
        fmt_float(quantile(&completed, 0.5).unwrap_or(f64::NAN)),
        fmt_float(quantile(&completed, 0.95).unwrap_or(f64::NAN)),
        fmt_float(summary.min().unwrap_or(f64::NAN)),
        fmt_float(summary.max().unwrap_or(f64::NAN)),
    ]);
    println!("{}", table.render());
    ExitCode::SUCCESS
}

fn run_serve(options: &Options) -> ExitCode {
    let config = cobra_experiments::serve::ServeConfig {
        port: options.port.unwrap_or(0),
        workers: options.workers.unwrap_or(2),
        cache_bytes: options.cache_mb.unwrap_or(64) << 20,
        queue_capacity: options.queue.unwrap_or(64),
    };
    let handle = match cobra_experiments::serve::spawn(&config) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("error: cannot start server on port {}: {error}", config.port);
            return ExitCode::FAILURE;
        }
    };
    // Scripted clients grab the (possibly ephemeral) address from this line.
    println!("serving on {}", handle.addr());
    eprintln!(
        "# repro serve — {} worker(s), {} MiB graph cache, queue capacity {}",
        config.workers,
        config.cache_bytes >> 20,
        config.queue_capacity
    );
    handle.wait();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(message) = mode_conflicts(&options) {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }

    if options.serve {
        return run_serve(&options);
    }
    if options.list {
        for id in ExperimentId::all() {
            println!("{id:?}: {}", id.description());
        }
        return ExitCode::SUCCESS;
    }
    if options.list_processes {
        println!("process spec syntax (see also --graph specs like random-regular:n=256,r=4):");
        for spec in ProcessSpec::examples() {
            println!("  {spec}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(spec) = options.process.clone() {
        return run_ad_hoc(&options, &spec);
    }

    let ids: Vec<ExperimentId> = match options.only {
        Some(id) => vec![id],
        None => ExperimentId::all().to_vec(),
    };
    println!(
        "# COBRA/BIPS reproduction — {} preset, seed {}\n",
        match options.preset {
            Preset::Quick => "quick",
            Preset::Full => "full",
        },
        options.master_seed()
    );
    for id in ids {
        let result = run_experiment(id, options.preset, options.master_seed());
        println!("{}", result.render());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options_for(args: &[&str]) -> Options {
        parse_args(args.iter().map(|s| s.to_string()))
            .unwrap_or_else(|e| panic!("{args:?} should parse: {e}"))
    }

    fn conflict(args: &[&str]) -> Result<(), String> {
        mode_conflicts(&options_for(args))
    }

    #[test]
    fn compatible_flag_sets_pass() {
        assert!(conflict(&[]).is_ok());
        assert!(conflict(&["--exp", "e9", "--full", "--seed", "7"]).is_ok());
        assert!(conflict(&["--exp", "e9b", "--quick"]).is_ok());
        assert!(conflict(&["--exp", "e10", "--full"]).is_ok());
        assert!(conflict(&["--exp", "e11", "--quick"]).is_ok());
        assert!(conflict(&["--process", "cobra:k=2+adv=topdeg:budget=5%", "--trials", "2"]).is_ok());
        assert!(conflict(&[
            "--process",
            "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
            "--trials",
            "2"
        ])
        .is_ok());
        assert!(conflict(&["--process", "cobra:k=2+gedrop=0.05,0.2,0.4+churn=8", "--trials", "2"])
            .is_ok());
        assert!(conflict(&["--process", "cobra:k=2", "--trials", "3"]).is_ok());
        assert!(conflict(&["--process", "cobra:k=2+drop=0.1", "--graph", "star:n=16"]).is_ok());
        assert!(conflict(&["--process", "cobra:k=2", "--threads", "4"]).is_ok());
        assert!(
            conflict(&["--process", "push+drop=0.1", "--threads", "8", "--trials", "3"]).is_ok()
        );
        assert!(conflict(&["--list"]).is_ok());
        assert!(conflict(&["--list-processes"]).is_ok());
    }

    #[test]
    fn threads_require_a_mode_with_a_stream_path() {
        // Experiment mode always runs the bit-equivalence-checked sequential engine.
        let error = conflict(&["--threads", "2"]).unwrap_err();
        assert!(error.contains("--threads"), "{error}");
        let error = conflict(&["--exp", "e4", "--threads", "2"]).unwrap_err();
        assert!(error.contains("--threads"), "{error}");
        assert!(conflict(&["--list", "--threads", "2"]).is_err());
        assert!(conflict(&["--list-processes", "--threads", "2"]).is_err());
    }

    #[test]
    fn zero_and_malformed_thread_counts_fail_at_the_parse_boundary() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let error = parse(&["--threads", "0"]).err().expect("--threads 0 must fail");
        assert!(error.contains("--threads 0"), "{error}");
        assert!(parse(&["--threads", "many"]).is_err());
        assert!(parse(&["--threads", "-1"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn ad_hoc_mode_rejects_experiment_ids() {
        // Regression: `--process … --exp e4` used to silently ignore --exp.
        let error = conflict(&["--process", "cobra:k=2", "--exp", "e4"]).unwrap_err();
        assert!(error.contains("--exp"), "{error}");
        let error = conflict(&["--process", "cobra:k=2+def=passive", "--exp", "e11"]).unwrap_err();
        assert!(error.contains("--exp"), "{error}");
    }

    #[test]
    fn experiment_mode_rejects_ad_hoc_tuning_flags() {
        // Regression: experiment mode used to silently ignore --trials/--max-rounds/--graph.
        for args in [
            &["--exp", "e4", "--trials", "9"][..],
            &["--exp", "e4", "--max-rounds", "100"][..],
            &["--max-rounds", "100"][..],
            &["--exp", "e4", "--graph", "star:n=16"][..],
        ] {
            let error = conflict(args).unwrap_err();
            assert!(error.contains("--process"), "{args:?}: {error}");
        }
    }

    #[test]
    fn list_modes_reject_flags_they_would_ignore() {
        assert!(conflict(&["--list", "--process", "cobra:k=2"]).is_err());
        assert!(conflict(&["--list", "--exp", "e4"]).is_err());
        assert!(conflict(&["--list-processes", "--trials", "4"]).is_err());
        assert!(conflict(&["--list", "--list-processes"]).is_err());
    }

    #[test]
    fn bench_and_json_are_unknown_arguments() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        for (args, unknown) in [
            (&["bench"][..], "\"bench\""),
            (&["bench", "--quick"][..], "\"bench\""),
            (&["serve", "bench"][..], "\"bench\""),
            (&["--json", "out.json"][..], "\"--json\""),
            (&["--exp", "e4", "--json", "out.json"][..], "\"--json\""),
        ] {
            let error = parse(args).err().unwrap_or_else(|| panic!("{args:?} must fail"));
            assert_eq!(error, format!("unknown argument {unknown}"), "{args:?}");
        }
    }

    #[test]
    fn serve_flag_sets_pass() {
        assert!(conflict(&["serve"]).is_ok());
        assert!(conflict(&[
            "serve",
            "--port",
            "0",
            "--workers",
            "4",
            "--cache-mb",
            "8",
            "--queue",
            "2"
        ])
        .is_ok());
        assert!(conflict(&["serve", "--cache-mb", "0"]).is_ok(), "0 MiB = caching disabled");
    }

    #[test]
    fn serve_rejects_zero_and_malformed_pool_sizes_at_the_parse_boundary() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let error = parse(&["serve", "--workers", "0"]).err().expect("--workers 0 must fail");
        assert!(error.contains("--workers 0"), "{error}");
        assert!(parse(&["serve", "--workers", "many"]).is_err());
        assert!(parse(&["serve", "--workers"]).is_err());
        let error = parse(&["serve", "--queue", "0"]).err().expect("--queue 0 must fail");
        assert!(error.contains("--queue 0"), "{error}");
        assert!(parse(&["serve", "--port", "70000"]).is_err(), "ports are u16");
        assert!(parse(&["serve", "--port", "-1"]).is_err());
        assert!(parse(&["serve", "--cache-mb", "lots"]).is_err());
    }

    #[test]
    fn serve_conflicts_loudly_with_every_other_mode() {
        // Jobs travel over the socket: flag-driven work is a separate mode.
        let error = conflict(&["serve", "--process", "cobra:k=2"]).unwrap_err();
        assert!(error.contains("--process"), "{error}");
        let error = conflict(&["serve", "--exp", "e4"]).unwrap_err();
        assert!(error.contains("--exp") || error.contains("--process"), "{error}");
        // Per-job settings belong in the submit request, not on the server command line.
        for args in [
            &["serve", "--graph", "star:n=16"][..],
            &["serve", "--trials", "4"][..],
            &["serve", "--max-rounds", "100"][..],
            &["serve", "--threads", "2"][..],
            &["serve", "--seed", "7"][..],
            &["serve", "--full"][..],
            &["serve", "--list"][..],
        ] {
            assert!(conflict(args).is_err(), "{args:?} must conflict");
        }
        // And the serve-only flags require the serve subcommand.
        for args in [
            &["--port", "0"][..],
            &["--workers", "2"][..],
            &["--cache-mb", "8"][..],
            &["--queue", "4"][..],
            &["--process", "cobra:k=2", "--workers", "2"][..],
        ] {
            let error = conflict(args).unwrap_err();
            assert!(error.contains("serve"), "{args:?}: {error}");
        }
    }

    #[test]
    fn help_text_covers_the_serve_protocol() {
        for needle in [
            "repro serve",
            "--workers",
            "--cache-mb",
            "--queue",
            "newline-delimited JSON",
            "submit",
            "batch",
            "status",
            "results",
            "cancel",
            "stats",
            "queue-full",
            "expired-job",
            "accepted",
            "summary",
        ] {
            assert!(HELP_TEXT.contains(needle), "help text must mention {needle:?}");
        }
        let retained = cobra_experiments::serve::scheduler::RETAINED_FINISHED_JOBS;
        assert!(HELP_TEXT.contains(&format!("last {retained} finished jobs")));
    }

    #[test]
    fn parse_rejects_malformed_arguments() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        assert!(parse(&["--exp", "e12"]).is_ok(), "E12 joined the registry in PR 9");
        assert!(parse(&["--exp", "e13"]).is_err());
        assert!(parse(&["--process", "frisbee"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+drop=2"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+gedrop=0.1"]).is_err());
        assert!(parse(&["--process", "push+repair=0.1"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+adv=bogus"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+adv=topdeg:budget=150%"]).is_err());
        // Malformed / truncated / duplicated def= clauses fail at the CLI boundary with
        // the full offending input in the message, not mid-trial.
        let error =
            parse(&["--process", "cobra:k=2+def=boostk:trigger="]).err().expect("must fail");
        assert!(error.contains("cobra:k=2+def=boostk:trigger="), "{error}");
        assert!(parse(&["--process", "cobra:k=2+def=shield"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+def=passive+def=boostk"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+def=reseed:m=200%"]).is_err());
        assert!(parse(&["--graph", "mystery:n=2"]).is_err());
        // PR 9 heterogeneous-workload specs: nonsense combos die at the CLI boundary.
        assert!(parse(&["--graph", "file:"]).is_err(), "file: needs a path");
        assert!(parse(&["--graph", "file:lenient"]).is_err(), "file: needs path=");
        assert!(parse(&["--graph", "chung-lu:n=256"]).is_err(), "chung-lu needs gamma and d");
        assert!(parse(&["--process", "bips:k=deg"]).is_err(), "budgets are a COBRA feature");
        assert!(parse(&["--process", "push:k=deg"]).is_err());
        assert!(parse(&["--process", "cobra:k=deg:cap=0"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+gedrop=0.1,0.25,0.5:scope=lane"]).is_err());
        assert!(parse(&["--process", "cobra:k=2+gedrop=0.1,0.25,0.5:scope=edge+drop=0.1"]).is_err());
        // The well-formed PR 9 shapes parse.
        assert!(parse(&["--process", "cobra:k=deg:cap=4"]).is_ok());
        assert!(parse(&["--process", "cobra:k=deg+gedrop=0.1,0.25,0.5:scope=edge"]).is_ok());
        assert!(parse(&["--graph", "chung-lu:n=256,gamma=3,d=8"]).is_ok());
        assert!(parse(&["--graph", "file:path=nets/topo.edges,lenient=true"]).is_ok());
        assert!(parse(&["--trials", "many"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--exp"]).is_err());
    }
}
