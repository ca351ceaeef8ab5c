//! Overflow-path coverage: hybrid pseudo-overflow behavior around its
//! window/threshold crossing, and true-overflow cycle breaking —
//! observed through `LptStats` and the LP's event counts.

use small_core::{CompressPolicy, ListProcessor, LpConfig, LpError, LpValue, OverflowPolicy};
use small_heap::controller::TwoPointerController;
use small_heap::Word;
use small_sexpr::{parse, print, Interner};

type Lp = ListProcessor<TwoPointerController>;

fn lp_with(table_size: usize, compression: CompressPolicy) -> Lp {
    ListProcessor::new(
        TwoPointerController::new(4096, 64),
        LpConfig {
            table_size,
            compression,
            ..LpConfig::default()
        },
    )
}

/// Two entries: a child cons reachable only from its parent cons, so
/// the child is compressible (merged back into the heap) at pseudo
/// overflow. Returns the parent (carrying the EP's reference).
fn compressible_pair(lp: &mut Lp) -> LpValue {
    let a = lp
        .cons(LpValue::Atom(Word::int(1)), LpValue::Atom(Word::NIL))
        .unwrap();
    let b = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
    drop(lp.adopt_binding(a));
    lp.drain_unroots();
    b
}

fn atom_cons(lp: &mut Lp, k: i64) -> LpValue {
    lp.cons(LpValue::Atom(Word::int(k)), LpValue::Atom(Word::NIL))
        .unwrap()
}

/// Hybrid crosses its threshold *within* the window: the first overflow
/// compresses one entry (Compress-One behavior), the second — now past
/// the threshold — compresses everything (Compress-All behavior).
#[test]
fn hybrid_threshold_crossing_switches_to_compress_all() {
    let mut lp = lp_with(
        8,
        CompressPolicy::Hybrid {
            threshold: 1,
            window: 10_000,
        },
    );
    // Three compressible pairs fill 6 of 8 entries.
    let held: Vec<LpValue> = (0..3).map(|_| compressible_pair(&mut lp)).collect();
    // Two conses fill the table; the third forces pseudo overflow #1.
    let _c1 = atom_cons(&mut lp, 10);
    let _c2 = atom_cons(&mut lp, 11);
    let _c3 = atom_cons(&mut lp, 12);
    let s = lp.stats();
    assert_eq!(s.pseudo_overflows, 1);
    assert_eq!(
        s.compressed, 1,
        "below threshold the hybrid compresses one entry"
    );
    // Overflow #2 lands inside the window: now over threshold, the
    // hybrid compresses every remaining compressible entry.
    let _c4 = atom_cons(&mut lp, 13);
    let s = lp.stats();
    assert_eq!(s.pseudo_overflows, 2);
    assert_eq!(
        s.compressed, 3,
        "past the threshold the hybrid compresses everything"
    );
    assert_eq!(lp.counts().true_overflows.get(), 0);
    // The compressed pairs survived structurally.
    for b in held {
        assert!(lp.writelist(b).is_ok());
    }
}

/// The same pressure with the overflows spaced *past* the window: the
/// first overflow has aged out when the second arrives, so the hybrid
/// stays in Compress-One behavior both times.
#[test]
fn hybrid_window_expiry_keeps_compress_one() {
    let mut lp = lp_with(
        8,
        CompressPolicy::Hybrid {
            threshold: 1,
            window: 3,
        },
    );
    let _held: Vec<LpValue> = (0..3).map(|_| compressible_pair(&mut lp)).collect();
    let c1 = atom_cons(&mut lp, 10);
    let _c2 = atom_cons(&mut lp, 11);
    let _c3 = atom_cons(&mut lp, 12); // overflow #1
    assert_eq!(lp.stats().compressed, 1);
    // Age the first overflow out of the window: car hits advance the
    // occupancy-sample clock without allocating.
    let id = c1.obj().unwrap();
    for _ in 0..10 {
        let _ = lp.car(id).unwrap();
    }
    let _c4 = atom_cons(&mut lp, 13); // overflow #2, window expired
    let s = lp.stats();
    assert_eq!(s.pseudo_overflows, 2);
    assert_eq!(
        s.compressed, 2,
        "with the window expired each overflow compresses one entry"
    );
}

/// True overflow: an unreachable reference cycle defeats both counting
/// and compression; the mark/sweep cycle breaker reclaims it, and the
/// event counters record the collection.
#[test]
fn cycle_breaking_reclaims_unreachable_cycle_and_counts_it() {
    let mut lp = lp_with(6, CompressPolicy::CompressOne);
    // a <-> b cycle, then drop both external references.
    let a = atom_cons(&mut lp, 1);
    let b = lp.cons(a, LpValue::Atom(Word::NIL)).unwrap();
    lp.rplacd(a.obj().unwrap(), b).unwrap();
    drop(lp.adopt_binding(a));
    drop(lp.adopt_binding(b));
    lp.drain_unroots();
    assert_eq!(lp.occupancy(), 2, "the cycle leaks under pure counting");
    // Fill the remaining 4 entries, then one more: compression cannot
    // touch the cycle (it is circular, not a tree), so the allocation
    // must come from cycle breaking.
    let _held: Vec<LpValue> = (0..5).map(|k| atom_cons(&mut lp, k)).collect();
    let s = lp.stats();
    assert_eq!(s.cycle_collections, 1);
    assert_eq!(s.cycles_reclaimed, 2, "both cycle members reclaimed");
    assert_eq!(lp.counts().true_overflows.get(), 0, "recovered, not fatal");
}

/// Run a fixed workload — reads, conses of held values, readback of
/// everything — over a table of the given size under the Degrade
/// policy, returning every held value's printed form plus how often
/// the LP entered §4.3.2.3 heap-direct overflow mode.
fn degrade_workload(table_size: usize) -> (Vec<String>, u64) {
    let mut i = Interner::new();
    let mut lp: Lp = ListProcessor::new(
        TwoPointerController::new(4096, 64),
        LpConfig {
            table_size,
            overflow: OverflowPolicy::Degrade,
            ..LpConfig::default()
        },
    );
    let mut held = Vec::new();
    for k in 0..20i64 {
        let src = format!("({k} (a b) ({} c))", k * 2);
        let e = parse(&src, &mut i).unwrap();
        let v = lp.readlist(None, &e).unwrap();
        held.push((v, lp.adopt_binding(v)));
        if k % 3 == 0 && held.len() >= 2 {
            let a = held[held.len() - 1].0;
            let b = held[held.len() - 2].0;
            let c = lp.cons(a, b).unwrap();
            held.push((c, lp.adopt_binding(c)));
        }
    }
    let out = held
        .iter()
        .map(|(v, _)| print(&lp.writelist(*v).unwrap(), &i))
        .collect();
    (out, lp.stats().overflow_entries)
}

/// §4.3.2.3 regression: a tiny LPT driven well past true overflow must
/// complete the whole workload in heap-direct overflow mode, with
/// byte-identical output to a table large enough to never overflow.
#[test]
fn tiny_table_completes_workload_in_overflow_mode_with_identical_output() {
    let (big_out, big_entries) = degrade_workload(512);
    assert_eq!(big_entries, 0, "a 512-entry table must never overflow here");
    let (tiny_out, tiny_entries) = degrade_workload(8);
    assert!(
        tiny_entries >= 1,
        "an 8-entry table must enter overflow mode under this workload"
    );
    assert_eq!(
        tiny_out, big_out,
        "degraded output must match the reference"
    );
}

/// When everything is externally referenced and incompressible, the
/// overflow is unrecoverable: the LP reports `TrueOverflow` (no panic)
/// and the LP counts the event.
#[test]
fn unrecoverable_overflow_is_reported_and_counted() {
    let mut lp = lp_with(3, CompressPolicy::CompressOne);
    let held: Vec<LpValue> = (0..3).map(|k| atom_cons(&mut lp, k)).collect();
    let r = lp.cons(LpValue::Atom(Word::int(9)), LpValue::Atom(Word::NIL));
    assert_eq!(r.unwrap_err(), LpError::TrueOverflow);
    let counts = lp.counts();
    assert_eq!(counts.true_overflows.get(), 1);
    assert_eq!(counts.compressed.get(), 0, "nothing was compressible");
    assert_eq!(counts.cycles_reclaimed.get(), 0, "nothing was garbage");
    // The failed allocation corrupted nothing: the held values survive.
    for v in held {
        assert!(lp.writelist(v).is_ok());
    }
}
