//! Micro-measurements of single layer calls on a workload's own inputs.
//!
//! Each function times a block of calls with `Instant`, repeats the block, and returns the
//! median per-call cost. Inputs and results pass through `black_box` so the measured work
//! cannot be precomputed or deleted.

use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use cobra_core::parallel::ParallelFrontier;
use cobra_experiments::serve::protocol::JobParams;
use cobra_experiments::serve::scheduler::Scheduler;
use cobra_graph::sample::{uniform_index, VertexStreams};
use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::RngCore;

use crate::stats::median;

const REPS: usize = 5;

/// Median over `REPS` repetitions of `block()`'s elapsed nanoseconds divided by `calls`.
fn per_call_ns(calls: usize, mut block: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            block();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&times)
}

/// `Graph::neighbor` at uniformly random `(vertex, slot)` pairs.
pub fn neighbor_fetch_ns(graph: &Graph, rng: &mut dyn RngCore, calls: usize) -> f64 {
    let n = graph.num_vertices();
    let pairs: Vec<(VertexId, usize)> = (0..calls)
        .map(|_| {
            let v = uniform_index(rng, n);
            (v, uniform_index(rng, graph.degree(v)))
        })
        .collect();
    per_call_ns(calls, || {
        let mut acc = 0usize;
        for &(v, slot) in black_box(&pairs) {
            acc ^= graph.neighbor(v, slot);
        }
        black_box(acc);
    })
}

/// `sample::uniform_index` with the given bound on a trial RNG.
pub fn uniform_index_ns(rng: &mut dyn RngCore, bound: usize, calls: usize) -> f64 {
    per_call_ns(calls, || {
        let mut acc = 0usize;
        for _ in 0..calls {
            acc = acc.wrapping_add(uniform_index(&mut *rng, black_box(bound)));
        }
        black_box(acc);
    })
}

/// Words (`next_u64` calls) a COBRA `k = 2` vertex reads from its stream per round.
pub const STREAM_WORDS: usize = 2;

/// `VertexStreams::stream(entity, round)` alone, and the average cost of each of the
/// [`STREAM_WORDS`] `next_u64` calls a vertex then makes (the first one computes the
/// stream's 16-word ChaCha8 block).
pub fn stream_costs(streams: &VertexStreams, entities: u64) -> (f64, f64) {
    let open = per_call_ns(entities as usize, || {
        for entity in 0..entities {
            black_box(streams.stream(black_box(entity), 3));
        }
    });
    let open_and_read = per_call_ns(entities as usize, || {
        let mut acc = 0u64;
        for entity in 0..entities {
            let mut stream = streams.stream(black_box(entity), 3);
            for _ in 0..STREAM_WORDS {
                acc ^= stream.next_u64();
            }
        }
        black_box(acc);
    });
    (open, (open_and_read - open).max(0.0) / STREAM_WORDS as f64)
}

/// `VertexBitset::insert` and `collect_into` over recorded frontiers (the workload's own
/// densities): nanoseconds per inserted vertex and per collected member.
pub fn bitset_costs(n: usize, frontiers: &[Vec<VertexId>]) -> (f64, f64) {
    let items: usize = frontiers.iter().map(Vec::len).sum::<usize>().max(1);
    let mut set = VertexBitset::new(n);
    let mut out = Vec::with_capacity(n);
    let (mut insert_ns, mut collect_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut insert, mut collect) = (Duration::ZERO, Duration::ZERO);
        for frontier in frontiers {
            set.clear();
            out.clear();
            let start = Instant::now();
            for &v in black_box(frontier) {
                set.insert(v);
            }
            insert += start.elapsed();
            let start = Instant::now();
            set.collect_into(&mut out);
            collect += start.elapsed();
            black_box(&out);
        }
        insert_ns.push(insert.as_nanos() as f64 / items as f64);
        collect_ns.push(collect.as_nanos() as f64 / items as f64);
    }
    (median(&insert_ns), median(&collect_ns))
}

/// `ParallelFrontier::fan_out` of an empty shard op over `items` at `threads` threads, in µs.
pub fn fan_out_us(threads: usize, items: usize, calls: usize) -> f64 {
    let engine = ParallelFrontier::new(VertexStreams::new([7; 32]), threads).expect("threads >= 1");
    let frontier: Vec<VertexId> = (0..items).collect();
    per_call_ns(calls, || {
        for _ in 0..calls {
            black_box(engine.fan_out(black_box(&frontier), |_, _| ()));
        }
    }) / 1e3
}

/// From `Scheduler::submit` to `next_job` returning on an idle worker, in µs (median).
pub fn scheduler_handoff_us(params: &JobParams, samples: usize) -> (f64, usize) {
    let scheduler = Scheduler::new(4);
    let (tx, rx) = mpsc::channel::<Instant>();
    let handoffs = std::thread::scope(|scope| {
        scope.spawn(|| {
            while scheduler.next_job(0).is_some() {
                if tx.send(Instant::now()).is_err() {
                    break;
                }
            }
        });
        let mut handoffs = Vec::with_capacity(samples);
        for _ in 0..samples {
            // Give the worker time to block in `next_job` again, so every sample measures
            // a wake-up of an idle worker.
            std::thread::sleep(Duration::from_micros(500));
            let start = Instant::now();
            scheduler.submit(params.clone()).expect("queue has room");
            let woke = rx.recv().expect("worker alive");
            handoffs.push(woke.duration_since(start).as_nanos() as f64 / 1e3);
        }
        scheduler.shutdown();
        handoffs
    });
    (median(&handoffs), handoffs.len())
}
