//! The two kinds of invocation: end-to-end (untraced) and per-layer
//! (traced).

use crate::layers::{self, Counters, SpanFold};
use crate::run::{
    crash_and_restart, Client, Engine, Oracle, Phase, Stop, SETUP_REPS, TAIL_WRITES, WARMUP_OPS,
};
use crate::store::TracedStore;
use crate::trace;
use crate::workload::{self, OpGen, Workload, PRELOAD_EDGES};
use crate::{median, peak_rss_mb, percentile, reset_peak_rss, Metric, Report};
use bg3_graph::Edge;
use bg3_obs::names;
use std::io::Write;
use std::path::Path;

/// Spans of the measured phase written out by a traced run: the first
/// ones recorded. Every span is folded into the per-layer totals; only
/// this sample is kept, so memory stays bounded however long the run.
pub const SPAN_SAMPLE: usize = 100_000;

fn fails(phases: &[&Phase]) -> u64 {
    phases.iter().map(|p| p.errors + p.wrong).sum()
}

fn preload_user_bytes(preload: &[Edge]) -> u64 {
    preload.iter().map(|e| workload::user_bytes(&e.props)).sum()
}

/// Pushes `{name}_p50`/`_p99` style latency metrics in µs; metrics with
/// no samples are left out.
fn push_latency(out: &mut Vec<Metric>, p50: &'static str, p99: &'static str, ns: &[u64]) {
    let mut samples = ns.to_vec();
    for (name, p) in [(p50, 0.50), (p99, 0.99)] {
        if let Some(v) = percentile(&mut samples, p) {
            out.push(Metric {
                name,
                value: v as f64 / 1e3,
                unit: "us",
            });
        }
    }
}

/// The end-to-end run: [`SETUP_REPS`] set-ups, warm-up, `seconds` of
/// measured closed-loop ops, the pre-crash write tail, crash, restarts.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let preload = workload::preload(w, seed);
    let oracle = Oracle::new(w, &preload);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut preload_insert_ns = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let (e, setup) = Engine::setup(&preload).map_err(|e| e.to_string())?;
        setups.push(setup.seconds);
        preload_insert_ns.extend(setup.insert_ns);
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    // The peak covers warm-up and measured phase: not the set-ups, whose
    // freed appends would otherwise set it, and not the restarts, which
    // hold the benchmark's copies of the crashed device.
    reset_peak_rss().map_err(|e| format!("resetting peak RSS: {e}"))?;
    let mut gen = OpGen::new(w, seed);
    let mut client = Client::new(&engine, None, &oracle);
    let warm = client.run(&mut gen, OpGen::next_op, Stop::Ops(WARMUP_OPS));
    let phase = client.run(&mut gen, OpGen::next_op, Stop::Seconds(seconds));
    let peak_rss = peak_rss_mb().ok_or("cannot read peak RSS")?;
    let tail = client.run(&mut gen, OpGen::next_write, Stop::Ops(TAIL_WRITES));
    let appended = engine.counter(names::STORAGE_BYTES_APPENDED_TOTAL);
    let restart = crash_and_restart(engine, &oracle, 0).map_err(|e| e.to_string())?;

    let written =
        preload_user_bytes(&preload) + warm.user_bytes + phase.user_bytes + tail.user_bytes;
    let failed = fails(&[&warm, &phase, &tail]) + restart.lost;
    let attempted = PRELOAD_EDGES as u64 + warm.ops + phase.ops + tail.ops;
    let mut metrics = vec![Metric {
        name: "throughput_ops_s",
        value: phase.throughput(),
        unit: "1/s",
    }];
    push_latency(&mut metrics, "read_p50_us", "read_p99_us", &phase.read_ns);
    // Recommendation's measured phase is read-only; its write latencies
    // are those of the preload inserts of every set-up.
    let writes = if w.writes() {
        &phase.write_ns
    } else {
        &preload_insert_ns
    };
    push_latency(&mut metrics, "write_p50_us", "write_p99_us", writes);
    let ns_median = |v: &[u64]| median(&v.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>());
    let restart_ns: Vec<u64> = restart
        .open_ns
        .iter()
        .zip(&restart.recover_ns)
        .map(|(a, b)| a + b)
        .collect();
    metrics.extend([
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "recover_s",
            value: ns_median(&restart_ns),
            unit: "s",
        },
        Metric {
            name: "space_amp",
            value: phase.space_amp(),
            unit: "ratio",
        },
        Metric {
            name: "write_amp",
            value: appended as f64 / written as f64,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MB",
        },
    ]);
    eprintln!(
        "{}: {} ops measured in {:.3} s; {} writes, {} reads; restart discarded {} unsynced bytes, checked {} acknowledged edges, lost {}",
        w.name(),
        phase.ops,
        phase.wall_ns as f64 / 1e9,
        phase.write_ns.len(),
        phase.read_ns.len(),
        restart.discarded_bytes,
        restart.checked,
        restart.lost
    );
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The traced run: the mix runs once untraced for `seconds`, then the
/// same ops run again on a fresh engine through the span-recording
/// decorators, followed by the write tail, crash and traced restarts.
/// A sample of the spans is written to `spans_out` when given.
pub fn traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    spans_out: Option<&Path>,
) -> Result<Report, String> {
    let preload = workload::preload(w, seed);
    let (ops, untraced_throughput, untraced_fails) = {
        let oracle = Oracle::new(w, &preload);
        let (engine, _) = Engine::setup(&preload).map_err(|e| e.to_string())?;
        let mut gen = OpGen::new(w, seed);
        let mut client = Client::new(&engine, None, &oracle);
        let warm = client.run(&mut gen, OpGen::next_op, Stop::Ops(WARMUP_OPS));
        let phase = client.run(&mut gen, OpGen::next_op, Stop::Seconds(seconds));
        (phase.ops, phase.throughput(), fails(&[&warm, &phase]))
    };

    let oracle = Oracle::new(w, &preload);
    let (engine, _) = Engine::setup(&preload).map_err(|e| e.to_string())?;
    let store = TracedStore::new(&engine.db, engine.publishes());
    let mut gen = OpGen::new(w, seed);
    let mut client = Client::new(&engine, Some(&store), &oracle);
    let warm = client.run(&mut gen, OpGen::next_op, Stop::Ops(WARMUP_OPS));
    let before = Counters::capture(&engine, &store);
    client.fold = Some(SpanFold::new(SPAN_SAMPLE));
    trace::install();
    let phase = client.run(&mut gen, OpGen::next_op, Stop::Ops(ops));
    trace::finish();
    let spans = client.fold.take().expect("installed above");
    let after = Counters::capture(&engine, &store);
    let used_bytes = engine.db.store().total_used_bytes();
    let valid_bytes = engine.db.store().total_valid_bytes();
    let tail = client.run(&mut gen, OpGen::next_write, Stop::Ops(TAIL_WRITES));
    let first_restart_op = client.next_op_id();
    drop(client);
    drop(store);

    let attempted = 2 * (PRELOAD_EDGES as u64 + WARMUP_OPS + ops) + tail.ops;
    let run_fails = untraced_fails + fails(&[&warm, &phase, &tail]);
    let mut metrics = layers::derive(&layers::Inputs {
        before,
        after,
        phase: &phase,
        spans: &spans,
        untraced_throughput,
        used_bytes,
        valid_bytes,
    });

    trace::install();
    let restart = crash_and_restart(engine, &oracle, first_restart_op);
    let mut restart_spans = SpanFold::new(SPAN_SAMPLE);
    restart_spans.absorb(&trace::finish());
    let restart = restart.map_err(|e| e.to_string())?;
    metrics.extend(layers::restart(&restart, &restart_spans));
    let failed = run_fails + restart.lost;
    metrics.push(Metric {
        name: "fail_ratio",
        value: failed as f64 / attempted as f64,
        unit: "ratio",
    });

    if let Some(path) = spans_out {
        let write = || -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            trace::write_spans(&mut out, &spans.sample)?;
            trace::write_spans(&mut out, &restart_spans.sample)?;
            out.flush()
        };
        write().map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
