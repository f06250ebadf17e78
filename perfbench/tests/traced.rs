//! The traced run must measure the same program as the untraced one: same
//! answers, same engine counters, and spans whose self times partition
//! each op's wall time.

use bg3_obs::names;
use bg3_perfbench::layers::SpanFold;
use bg3_perfbench::run::{crash_and_restart, Client, Engine, Oracle, Phase, Stop};
use bg3_perfbench::store::TracedStore;
use bg3_perfbench::trace;
use bg3_perfbench::workload::{self, OpGen, Workload};

/// A smaller preload than the benchmark's keeps debug-build tests quick;
/// the engine configuration and the mixes are the benchmark's own.
const PRELOAD: usize = 4_000;
/// Fewer writes than the GC cadence, so no GC call lands in the phase.
const OPS: u64 = 800;
const SEED: u64 = 99;

/// Engine counters that tracing must not change.
fn program_counters(engine: &Engine) -> [u64; 3] {
    [
        engine.counter(names::STORAGE_BYTES_APPENDED_TOTAL),
        engine.publishes().get(),
        engine.counter(names::QUERY_SCAN_BYTES_TOTAL),
    ]
}

fn delta(after: [u64; 3], before: [u64; 3]) -> [u64; 3] {
    [0, 1, 2].map(|i| after[i] - before[i])
}

struct Measured {
    phase: Phase,
    counters: [u64; 3],
    fold: Option<SpanFold>,
}

fn measure(w: Workload, traced: bool) -> Measured {
    let preload = &workload::preload(w, SEED)[..PRELOAD];
    let oracle = Oracle::new(w, preload);
    let (engine, _) = Engine::setup(preload).unwrap();
    let store = TracedStore::new(&engine.db, engine.publishes());
    let mut gen = OpGen::new(w, SEED);
    let mut client = Client::new(&engine, traced.then_some(&store), &oracle);
    let before = program_counters(&engine);
    if traced {
        client.fold = Some(SpanFold::new(usize::MAX));
        trace::install();
    }
    let phase = client.run(&mut gen, OpGen::next_op, Stop::Ops(OPS));
    trace::finish();
    Measured {
        counters: delta(program_counters(&engine), before),
        fold: client.fold.take(),
        phase,
    }
}

#[test]
fn traced_run_gives_the_same_answers_and_counters() {
    for w in Workload::ALL {
        let plain = measure(w, false);
        let traced = measure(w, true);
        for m in [&plain, &traced] {
            assert_eq!(m.phase.ops, OPS);
            // Both runs agree with the same reference on every op, so
            // they agree with each other.
            assert_eq!((m.phase.errors, m.phase.wrong), (0, 0), "{w:?}");
            assert_eq!(m.phase.gc.calls, 0, "{w:?}: phase must not reach GC");
        }
        assert_eq!(plain.counters, traced.counters, "{w:?}");
        // Every mix scans; Risk's writes also reach group commits here.
        assert!(plain.counters[2] > 0, "{w:?}");
        if w == Workload::Risk {
            assert!(plain.counters[0] > 0 && plain.counters[1] > 0);
        }
        assert!(plain.fold.is_none());
    }
}

#[test]
fn self_times_and_unattributed_time_add_up_to_op_wall_time() {
    for w in Workload::ALL {
        let fold = measure(w, true).fold.expect("traced run folds spans");
        assert_eq!(fold.unbalanced_ops, 0, "{w:?}");
        assert_eq!(
            fold.by_layer.values().sum::<u64>(),
            fold.op_wall_ns,
            "{w:?}"
        );
        assert_eq!(
            fold.get(trace::Name::Op).calls,
            OPS,
            "{w:?}: one root per op"
        );

        // Recheck op by op from the kept spans.
        let spans = &fold.sample;
        let selfs = trace::self_times(spans);
        let mut per_op = std::collections::BTreeMap::<u64, (u64, u64)>::new();
        for (span, own) in spans.iter().zip(selfs) {
            let entry = per_op.entry(span.op).or_default();
            entry.0 += own;
            if span.parent == trace::NO_PARENT {
                entry.1 += span.duration();
            }
        }
        assert_eq!(per_op.len() as u64, OPS);
        for (op, (self_sum, wall)) in per_op {
            assert_eq!(self_sum, wall, "{w:?} op {op}");
        }
        let want: &[&str] = match w {
            Workload::Follow => &["bg3-core", "bg3-wal", "unattributed"],
            Workload::Recommend => &["bg3-core", "bg3-query", "unattributed"],
            Workload::Risk => &[
                "bg3-core",
                "bg3-graph",
                "bg3-storage",
                "bg3-wal",
                "unattributed",
            ],
        };
        for layer in want {
            assert!(fold.by_layer.contains_key(layer), "{w:?} misses {layer}");
        }
        if w == Workload::Recommend {
            assert!(
                !fold.by_layer.contains_key("bg3-wal"),
                "Recommend never writes"
            );
        }
    }
}

#[test]
fn restart_from_synced_bytes_keeps_every_acknowledged_write() {
    let w = Workload::Risk;
    let preload = &workload::preload(w, SEED)[..PRELOAD];
    let oracle = Oracle::new(w, preload);
    let (engine, _) = Engine::setup(preload).unwrap();
    let mut gen = OpGen::new(w, SEED);
    let mut client = Client::new(&engine, None, &oracle);
    let phase = client.run(&mut gen, OpGen::next_write, Stop::Ops(500));
    assert_eq!((phase.errors, phase.wrong), (0, 0));
    let restart = crash_and_restart(engine, &oracle, 0).unwrap();
    assert!(
        restart.discarded_bytes > 0,
        "the crash must drop unsynced bytes"
    );
    assert!(restart.checked >= 500);
    assert_eq!(restart.lost, 0);
}
