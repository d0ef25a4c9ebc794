//! Integration tests for the exact span profile and the allocation
//! accountant: the recorder's per-call-path fold against the span tree of
//! its own snapshot, the self-time identity of the collapsed text,
//! out-of-order drops, per-path allocation deltas, and the `alloc_gate!`
//! facility itself.

voltsense_telemetry::install_counting_allocator!();

mod common;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use common::{close_innermost_first, run_span_program, span_program};
use voltsense_telemetry::json::{self, Value};
use voltsense_telemetry::{alloc_gate, profile, span, with_scoped, MemoryRecorder, Snapshot};
use voltsense_testkit::{forall, u64_range, usize_range};

/// Span names drawn per step, so one name recurs at many depths and under
/// many parents: a fold keyed by the leaf name alone merges distinct paths.
const NAMES: [&str; 3] = ["p.a", "p.b", "p.c"];

fn name_at(seed: u64) -> impl Fn(usize, usize) -> &'static str {
    move |step, _| {
        let h = seed.wrapping_add(step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        NAMES[(h >> 32) as usize % NAMES.len()]
    }
}

/// One random program per thread, 1–4 threads, each run to completion
/// through `with_scoped`, so every span is closed before the snapshot.
fn run_programs(rec: &Arc<MemoryRecorder>, threads: usize, len: usize, seed: u64) -> Snapshot {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let rec = rec.clone();
            let seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(t as u64));
            scope.spawn(move || {
                let program = span_program(seed, len);
                with_scoped(rec, || {
                    close_innermost_first(run_span_program(&program, name_at(seed)).0)
                });
            });
        }
    });
    rec.snapshot("profile")
}

/// Path → (calls, total_ns), folded from the snapshot's derived-parent
/// span tree.
fn fold_of_span_tree(snap: &Snapshot) -> BTreeMap<Vec<String>, (u64, u64)> {
    let mut fold = BTreeMap::new();
    for span in &snap.spans {
        let mut path = vec![span.name.clone()];
        let mut up = span.parent;
        while let Some(p) = up {
            path.push(snap.spans[p].name.clone());
            up = snap.spans[p].parent;
        }
        path.reverse();
        let entry = fold.entry(path).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += span.duration_ns();
    }
    fold
}

/// Path → (calls, total_ns) as the recorder folded it.
fn recorded_fold(snap: &Snapshot) -> BTreeMap<Vec<String>, (u64, u64)> {
    let fold: BTreeMap<_, _> =
        snap.stacks.iter().map(|s| (s.stack.clone(), (s.calls, s.total_ns))).collect();
    assert_eq!(fold.len(), snap.stacks.len(), "a path is folded twice: {:?}", snap.stacks);
    fold
}

/// Parse collapsed text into (stack, weight) pairs.
fn collapsed_weights(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .map(|line| {
            let (stack, weight) = line.rsplit_once(' ').expect("collapsed line has a weight");
            let weight = weight.parse().unwrap_or_else(|_| panic!("non-integer weight: {line:?}"));
            (stack.to_string(), weight)
        })
        .collect()
}

#[test]
fn stacks_equal_the_fold_of_the_snapshot_span_tree() {
    forall!(cases = 48, (
        threads in usize_range(1, 5),
        len in usize_range(0, 40),
        seed in u64_range(0, 1 << 32),
    ) => {
        let snap = run_programs(&Arc::new(MemoryRecorder::new()), threads, len, seed);
        let fold = recorded_fold(&snap);
        assert_eq!(fold, fold_of_span_tree(&snap), "unbounded fold vs its span tree");

        // A one-entry ring keeps almost no spans, but the fold is never
        // decimated: the same program yields the same paths and calls.
        let bounded = run_programs(&Arc::new(MemoryRecorder::bounded(1)), threads, len, seed);
        let calls = |f: BTreeMap<Vec<String>, (u64, u64)>| -> Vec<(Vec<String>, u64)> {
            f.into_iter().map(|(path, (calls, _))| (path, calls)).collect()
        };
        assert_eq!(calls(recorded_fold(&bounded)), calls(fold), "bounded(1) fold");
    });
}

#[test]
fn collapsed_self_times_sum_to_the_root_span_durations() {
    forall!(cases = 48, (
        threads in usize_range(1, 5),
        len in usize_range(0, 40),
        seed in u64_range(0, 1 << 32),
    ) => {
        let snap = run_programs(&Arc::new(MemoryRecorder::new()), threads, len, seed);
        let roots: u64 =
            snap.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.duration_ns()).sum();
        let weights = collapsed_weights(&snap.to_collapsed());
        assert_eq!(weights.iter().map(|(_, w)| w).sum::<u64>(), roots, "Σ self_ns vs Σ roots");
        for pair in weights.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "collapsed weights not descending: {pair:?}");
        }
    });
}

#[test]
fn a_child_dropped_after_its_parent_never_makes_self_time_negative() {
    let rec = Arc::new(MemoryRecorder::new());
    with_scoped(rec.clone(), || {
        let parent = span("test.parent");
        let child = span("test.child");
        drop(parent);
        std::thread::sleep(Duration::from_millis(2));
        drop(child);
    });
    let snap = rec.snapshot("out_of_order");
    let find = |path: &[&str]| {
        snap.stacks
            .iter()
            .find(|s| s.stack == path)
            .unwrap_or_else(|| panic!("no {path:?} in {:?}", snap.stacks))
    };
    let (parent, child) = (find(&["test.parent"]), find(&["test.parent", "test.child"]));
    assert!(child.total_ns > parent.total_ns, "the child outlived its parent");
    assert_eq!(parent.self_ns, 0, "self time floors at zero");
    for (stack, weight) in collapsed_weights(&snap.to_collapsed()) {
        assert!(weight <= child.total_ns, "wrapped collapsed weight for {stack}: {weight}");
    }
}

#[test]
fn an_allocation_under_a_span_lands_in_its_stack() {
    assert!(
        profile::allocator_installed(),
        "install_counting_allocator! at the test-crate root must take effect"
    );
    let rec = Arc::new(MemoryRecorder::new());
    let _counting = profile::enable_counting();
    let (bytes_before, calls_before, _, _) = profile::thread_alloc_totals();
    with_scoped(rec.clone(), || {
        let _span = span("test.alloc_site");
        black_box(Vec::<u8>::with_capacity(4096));
    });
    let (bytes_after, calls_after, dealloc_bytes, dealloc_calls) = profile::thread_alloc_totals();
    assert!(calls_after > calls_before, "allocation not counted");
    assert!(bytes_after >= bytes_before + 4096, "allocated bytes not counted");
    assert!(dealloc_calls > 0 && dealloc_bytes > 0, "drop not counted");

    let snap = rec.snapshot("alloc");
    let site = snap
        .stacks
        .iter()
        .find(|s| s.stack == ["test.alloc_site"])
        .unwrap_or_else(|| panic!("no test.alloc_site stack in {:?}", snap.stacks));
    assert!(site.alloc_bytes >= 4096, "{site:?}");
    assert!(site.alloc_calls >= 1, "{site:?}");

    let doc = json::parse(&snap.to_profile_json()).expect("profile JSON parses");
    let alloc = doc.get("alloc").expect("alloc section");
    assert!(matches!(alloc.get("allocator_installed"), Some(Value::Bool(true))));
    assert!(matches!(alloc.get("counting"), Some(Value::Bool(true))));
}

#[test]
fn alloc_gate_passes_on_an_allocation_free_body() {
    let mut acc = 0u64;
    alloc_gate!("test.noop", 32, || {
        acc = acc.wrapping_mul(31).wrapping_add(7);
        black_box(acc);
    });
}

#[test]
fn alloc_gate_catches_a_steady_state_allocation() {
    let result = std::panic::catch_unwind(|| {
        alloc_gate!("test.leaky", 4, || {
            black_box(Vec::<u8>::with_capacity(64));
        });
    });
    assert!(result.is_err(), "gate must fail a body that allocates every iteration");
}
