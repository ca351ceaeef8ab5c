//! Dispatch conformance: the threaded dispatcher ([`Vm::run_threaded`])
//! must be observationally indistinguishable from the reference
//! interpreter ([`Vm::run_reference`]) — byte-equal results, equal
//! [`VmStats`], equal [`LptStats`] ledgers, and equal per-kind event
//! counts — on every program the repository knows how to generate:
//!
//! * the typed expression grammar and the `rplaca`/`rplacd` mutation
//!   scenes of the engine differential suite (`tests/differential.rs`,
//!   mirrored here because integration tests cannot import each
//!   other), run one-shot;
//! * the soak generator's seeded request templates
//!   ([`small_serve::gen::programs_for`]), run session-style — one
//!   persistent machine per client with `load_program` per request,
//!   error recovery included, exactly as the serving layer drives it.
//!
//! Both backends run over the SMALL List Processor with a counting
//! sink, so a divergence in *any* deterministic observable — not just
//! the final value — fails the suite.

use proptest::prelude::*;
use small_core::{LpConfig, LptStats, SmallBackend};
use small_heap::controller::TwoPointerController;
use small_lisp::compiler::{compile_forms, compile_program};
use small_lisp::vm::{ListBackend, Vm, VmValue};
use small_metrics::EventCounts;
use small_serve::gen::{programs_for, PINNED_SEEDS};
use small_sexpr::{parse_all, print, Interner};

type Backend = SmallBackend<TwoPointerController>;

fn backend() -> Backend {
    SmallBackend::new(1 << 16, LpConfig::default())
}

/// Library functions available to generated programs (the same
/// definitions the engine differential suite uses).
const LIB: &str = "
(def append (lambda (a b)
  (cond ((null a) b) (t (cons (car a) (append (cdr a) b))))))
(def reverse-onto (lambda (a acc)
  (cond ((null a) acc) (t (reverse-onto (cdr a) (cons (car a) acc))))))
(def reverse (lambda (a) (reverse-onto a nil)))
(def length (lambda (a)
  (cond ((null a) 0) (t (add 1 (length (cdr a)))))))
";

/// Everything one run observes. `VmStats` carries no `PartialEq`, so
/// its fields ride as a tuple.
#[derive(Debug, PartialEq)]
struct Report {
    /// Per-program reply: the canonical printed value, or the typed
    /// error path taken (parse/compile/lp/vm, with the error's debug
    /// form — the exact classification the serving layer would reply).
    replies: Vec<String>,
    vm_stats: (u64, u64, usize, u64, u64),
    lpt: LptStats,
    counts: EventCounts,
    occupancy: usize,
}

/// Drive `programs` through one persistent machine the way a session
/// does — compile each against the shared interner, `load_program`,
/// run with the selected dispatch backend, recover from errors, keep
/// going — then shut down and collect every observable.
fn drive(programs: &[String], threaded: bool) -> Report {
    let mut interner = Interner::new();
    let empty = compile_program("nil", &mut interner).expect("the empty program compiles");
    let mut vm = Vm::new(empty, backend());
    let mut replies = Vec::new();
    for src in programs {
        let forms = match parse_all(src, &mut interner) {
            Ok(f) => f,
            Err(e) => {
                replies.push(format!("parse:{e:?}"));
                continue;
            }
        };
        let program = match compile_forms(&forms, &mut interner) {
            Ok(p) => p,
            Err(e) => {
                replies.push(format!("compile:{e:?}"));
                continue;
            }
        };
        vm.load_program(program);
        vm.set_budget(50_000_000);
        let result = if threaded {
            vm.run_threaded()
        } else {
            vm.run_reference()
        };
        match result {
            Ok(v) => {
                match vm.backend.try_write_out(&v) {
                    Ok(e) => replies.push(print(&e, &interner)),
                    Err(e) => replies.push(format!("lp:{e:?}")),
                }
                if let VmValue::List(id) = v {
                    vm.backend.release(&id);
                }
            }
            Err(e) => {
                vm.recover();
                replies.push(format!("vm:{e:?}"));
            }
        }
        vm.backend.lp.drain_unroots();
    }
    vm.shutdown();
    let s = vm.stats();
    let mut backend = vm.backend;
    backend.lp.drain_lazy();
    let occupancy = backend.lp.occupancy();
    let lpt = backend.lp.stats();
    let counts = backend.lp.counts();
    Report {
        replies,
        vm_stats: (
            s.instructions,
            s.fn_calls,
            s.max_depth,
            s.list_ops,
            s.name_searches,
        ),
        lpt,
        counts,
        occupancy,
    }
}

/// One-shot program with the library prepended, both backends, every
/// observable compared.
fn assert_backends_agree(src: &str) {
    let program = vec![format!("{LIB}\n{src}")];
    let reference = drive(&program, false);
    let threaded = drive(&program, true);
    assert_eq!(reference, threaded, "dispatch divergence on {src}");
    assert_eq!(reference.occupancy, 0, "LPT leak running {src}");
}

// --------------------------------------------------------------------
// The typed grammar (mirrors tests/differential.rs).
// --------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Ty {
    Int,
    List,
}

fn gen_expr(ty: Ty, depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        return match ty {
            Ty::Int => (-20i64..20).prop_map(|i| i.to_string()).boxed(),
            Ty::List => prop_oneof![
                Just("nil".to_string()),
                prop::collection::vec(-9i64..9, 0..4).prop_map(|xs| format!(
                    "'({})",
                    xs.iter().map(i64::to_string).collect::<Vec<_>>().join(" ")
                )),
            ]
            .boxed(),
        };
    }
    let d = depth - 1;
    match ty {
        Ty::Int => prop_oneof![
            gen_expr(Ty::Int, 0),
            (gen_expr(Ty::Int, d), gen_expr(Ty::Int, d))
                .prop_map(|(a, b)| format!("(add {a} {b})")),
            (gen_expr(Ty::Int, d), gen_expr(Ty::Int, d))
                .prop_map(|(a, b)| format!("(sub {a} {b})")),
            (gen_expr(Ty::Int, d), gen_expr(Ty::Int, d))
                .prop_map(|(a, b)| format!("(times {a} {b})")),
            gen_expr(Ty::List, d).prop_map(|l| format!("(length {l})")),
            (
                gen_expr(Ty::List, d),
                gen_expr(Ty::Int, d),
                gen_expr(Ty::Int, d)
            )
                .prop_map(|(t, a, b)| format!("(cond ((null {t}) {a}) (t {b}))")),
        ]
        .boxed(),
        Ty::List => prop_oneof![
            gen_expr(Ty::List, 0),
            (gen_expr(Ty::Int, d), gen_expr(Ty::List, d))
                .prop_map(|(a, b)| format!("(cons {a} {b})")),
            (gen_expr(Ty::List, d), gen_expr(Ty::List, d))
                .prop_map(|(a, b)| format!("(cons {a} {b})")),
            gen_expr(Ty::List, d).prop_map(|l| format!("(cdr {l})")),
            (gen_expr(Ty::List, d), gen_expr(Ty::List, d))
                .prop_map(|(a, b)| format!("(append {a} {b})")),
            gen_expr(Ty::List, d).prop_map(|l| format!("(reverse {l})")),
            (
                gen_expr(Ty::List, d),
                gen_expr(Ty::List, d),
                gen_expr(Ty::List, d)
            )
                .prop_map(|(t, a, b)| format!("(cond ((null {t}) {a}) (t {b}))")),
        ]
        .boxed(),
    }
}

fn arb_program() -> impl Strategy<Value = String> {
    prop_oneof![gen_expr(Ty::Int, 4), gen_expr(Ty::List, 4)]
}

/// Mutation scenes (mirrors `gen_mutation_program` of
/// tests/differential.rs): fresh cells mutated directly, through
/// shared structure, and through a temporary self-referential knot.
fn gen_mutation_program() -> impl Strategy<Value = String> {
    let int = || gen_expr(Ty::Int, 2);
    let list = || gen_expr(Ty::List, 2);
    prop_oneof![
        (int(), list(), int(), list()).prop_map(|(a, l, b, l2)| format!(
            "(prog (m0) \
               (setq m0 (cons {a} {l})) \
               (rplaca m0 {b}) \
               (rplacd m0 {l2}) \
               (return (cons (car m0) (cdr m0))))"
        )),
        (int(), list(), int(), int(), list()).prop_map(|(a, l, b, c, l2)| format!(
            "(prog (m0 m1) \
               (setq m0 (cons {a} {l})) \
               (setq m1 (cons {b} m0)) \
               (rplaca m0 {c}) \
               (rplacd m0 {l2}) \
               (cond ((null (cdr m0)) nil) (t (rplaca (cdr m0) (car m1)))) \
               (return (cons (car (cdr m1)) (append m1 m0))))"
        )),
        (int(), int()).prop_map(|(a, b)| format!(
            "(prog (m0 m1) \
               (setq m0 (cons {a} (cons {b} nil))) \
               (rplacd (cdr m0) m0) \
               (setq m1 (car (cdr (cdr m0)))) \
               (rplacd (cdr m0) nil) \
               (return (cons m1 m0)))"
        )),
        (int(), int(), int(), int(), int()).prop_map(|(a, b, c, d, e)| format!(
            "(prog (m0 m1) \
               (setq m0 (cons {a} nil)) \
               (setq m1 (cons {b} (cons {c} m0))) \
               (rplaca (cdr m1) {d}) \
               (rplacd (cdr m1) (cons {e} m0)) \
               (rplaca m0 (length m1)) \
               (return (append m1 (cons (car m0) nil))))"
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dispatch_backends_agree(src in arb_program()) {
        assert_backends_agree(&src);
    }

    #[test]
    fn dispatch_backends_agree_under_mutation(src in gen_mutation_program()) {
        assert_backends_agree(&src);
    }
}

/// Every pinned soak seed, several clients each, driven session-style:
/// persistent `setq` globals across requests, typed error paths mid-
/// stream, mutation through shared structure and broken cycles — the
/// exact request mix the soak harness replays against the server.
#[test]
fn soak_templates_agree_across_dispatch_backends() {
    for seed in PINNED_SEEDS {
        for client in 0..3u64 {
            let programs = programs_for(seed, client, 32);
            let reference = drive(&programs, false);
            let threaded = drive(&programs, true);
            assert_eq!(
                reference, threaded,
                "dispatch divergence on seed {seed} client {client}"
            );
            assert_eq!(
                reference.occupancy, 0,
                "LPT leak on seed {seed} client {client}"
            );
        }
    }
}

/// A mixed session whose programs alternate between the two dispatch
/// backends *on the same machine* must still agree with a pure run of
/// either: the decoded-program cache and the reference loop share all
/// machine state, so interleaving them cannot skew any observable.
#[test]
fn interleaved_backends_match_pure_runs() {
    let programs = programs_for(PINNED_SEEDS[0], 1, 24);
    let pure = drive(&programs, true);

    let mut interner = Interner::new();
    let empty = compile_program("nil", &mut interner).expect("the empty program compiles");
    let mut vm = Vm::new(empty, backend());
    let mut replies = Vec::new();
    for (k, src) in programs.iter().enumerate() {
        let forms = parse_all(src, &mut interner).expect("soak templates parse");
        let program = compile_forms(&forms, &mut interner).expect("soak templates compile");
        vm.load_program(program);
        vm.set_budget(50_000_000);
        let result = if k % 2 == 0 {
            vm.run_threaded()
        } else {
            vm.run_reference()
        };
        match result {
            Ok(v) => {
                match vm.backend.try_write_out(&v) {
                    Ok(e) => replies.push(print(&e, &interner)),
                    Err(e) => replies.push(format!("lp:{e:?}")),
                }
                if let VmValue::List(id) = v {
                    vm.backend.release(&id);
                }
            }
            Err(e) => {
                vm.recover();
                replies.push(format!("vm:{e:?}"));
            }
        }
        vm.backend.lp.drain_unroots();
    }
    vm.shutdown();
    let s = vm.stats();
    let mut b = vm.backend;
    b.lp.drain_lazy();
    assert_eq!(replies, pure.replies);
    assert_eq!(
        (
            s.instructions,
            s.fn_calls,
            s.max_depth,
            s.list_ops,
            s.name_searches
        ),
        pure.vm_stats
    );
    assert_eq!(b.lp.occupancy(), 0);
    assert_eq!(b.lp.stats(), pure.lpt);
    assert_eq!(b.lp.counts(), pure.counts);
}
