//! Oracle for the clock calculus's cheap passes.
//!
//! The hierarchy keeps dominance as a closed bitset relation, and the
//! disjunctive pass finds a difference's witness in the subtrahend's clock
//! class.  Over a corpus of processes and composition prefixes, refused
//! ones included, this suite recomputes both the direct way and asserts
//! that the analysis reports the same:
//!
//! * `dominates_star` and `dominators_of` for every class pair, by
//!   depth-first search over the direct edges (`children`);
//! * every difference's rewrite, by trying each boolean signal in name
//!   order as the witness (`clocks_equal` against `[w]`, then `[not w]`)
//!   and applying the dominance test to the first that matches.

use std::collections::BTreeSet;

use polychrony::clocks::disjunctive::DiffResolution;
use polychrony::clocks::{Clock, ClockAnalysis, ClockExpr, ClockHierarchy};
use polychrony::isochron::{design::chain_of_pairs, library, Design};
use polychrony::signal_lang::{
    generate, stdlib, ClockAst, Expr, KernelProcess, ProcessBuilder, ProcessDef,
};

/// `closure[a][b]`: class `a` dominates class `b`, reflexively and
/// transitively, found by depth-first search over the direct edges.
fn dfs_closure(hierarchy: &ClockHierarchy) -> Vec<Vec<bool>> {
    let n = hierarchy.class_count();
    (0..n)
        .map(|from| {
            let mut seen = vec![false; n];
            let mut stack = vec![from];
            while let Some(class) = stack.pop() {
                if !std::mem::replace(&mut seen[class], true) {
                    stack.extend(hierarchy.children(class));
                }
            }
            seen
        })
        .collect()
}

/// Each difference's resolution by the exhaustive witness search.
fn searched_resolutions(
    analysis: &mut ClockAnalysis,
    closure: &[Vec<bool>],
) -> Vec<DiffResolution> {
    let booleans = analysis.kernel().boolean_signals();
    let hierarchy = analysis.hierarchy().clone();
    let diffs = analysis.relations().diff_occurrences();
    let algebra = analysis.algebra_mut();
    let dominators = |class: usize| -> BTreeSet<usize> {
        (0..closure.len()).filter(|&k| closure[k][class]).collect()
    };
    let mut resolutions = Vec::new();
    for (minuend, subtrahend) in diffs {
        if algebra.clock_is_null(&subtrahend) {
            continue;
        }
        let rewrite = booleans.iter().find_map(|w| {
            let candidate = if algebra.clocks_equal(&subtrahend, &ClockExpr::on_true(w.clone())) {
                Clock::on_false(w.clone())
            } else if algebra.clocks_equal(&subtrahend, &ClockExpr::on_false(w.clone())) {
                Clock::on_true(w.clone())
            } else {
                return None;
            };
            let tick = hierarchy.class_of(&Clock::tick(w.clone()))?;
            let dominated = |expr: &ClockExpr| {
                let mut atoms = Vec::new();
                expr.atoms(&mut atoms);
                atoms.iter().all(|a| {
                    hierarchy.class_of(a).is_some_and(|c| {
                        closure[tick][c]
                            || dominators(c)
                                .intersection(&dominators(tick))
                                .next()
                                .is_some()
                    })
                })
            };
            (dominated(&minuend) && dominated(&subtrahend)).then_some(candidate)
        });
        resolutions.push(DiffResolution {
            minuend,
            subtrahend,
            rewrite,
        });
    }
    resolutions
}

/// Analyzes `kernel` and checks both passes against their oracles.
fn check(label: &str, kernel: &KernelProcess) {
    let mut analysis = ClockAnalysis::analyze(kernel);
    let hierarchy = analysis.hierarchy();
    let closure = dfs_closure(hierarchy);
    for (a, row) in closure.iter().enumerate() {
        for (b, &reached) in row.iter().enumerate() {
            assert_eq!(
                hierarchy.dominates_star(a, b),
                reached,
                "{label}: dominates_star({}, {})",
                hierarchy.describe_class(a),
                hierarchy.describe_class(b)
            );
        }
        let column: BTreeSet<usize> = (0..closure.len()).filter(|&k| closure[k][a]).collect();
        assert_eq!(
            hierarchy.dominators_of(a),
            column,
            "{label}: dominators_of({a})"
        );
    }
    let expected = searched_resolutions(&mut analysis, &closure);
    assert_eq!(
        analysis.disjunctive().resolutions(),
        &expected[..],
        "{label}: disjunctive resolutions"
    );
}

/// Checks every component of `defs` and every prefix of their composition,
/// the analyses Definition 12 runs.
fn check_prefixes(label: &str, defs: &[ProcessDef]) {
    let kernels: Vec<KernelProcess> = defs
        .iter()
        .map(|def| def.normalize().expect("corpus processes normalize"))
        .collect();
    for (i, kernel) in kernels.iter().enumerate() {
        check(&format!("{label} component {i}"), kernel);
    }
    let mut prefix = kernels[0].clone();
    for (i, kernel) in kernels.iter().enumerate().skip(1) {
        prefix = prefix.compose(kernel).expect("corpus prefixes compose");
        check(&format!("{label} prefix {}", i + 1), &prefix);
    }
}

fn check_design(design: &Design) {
    for (i, component) in design.components().iter().enumerate() {
        check(
            &format!("{} component {i}", design.name()),
            component.kernel(),
        );
    }
    check(design.name(), design.composition());
}

/// The buffer plus an input `w` constrained by `^w = ^r \ subtrahend`.
fn buffer_with_difference(name: &str, subtrahend: ClockAst) -> ProcessDef {
    ProcessBuilder::new(name)
        .define("s", Expr::var("t").pre(true))
        .define("t", Expr::var("s").not())
        .constraint_eq("x", ClockAst::when_true("t"))
        .constraint_eq("y", ClockAst::when_false("t"))
        .define("r", Expr::var("y").default(Expr::var("r").pre(false)))
        .define("x", Expr::var("r").when(Expr::var("t")))
        .constraint(ClockAst::of("r"), ClockAst::of("x").or(ClockAst::of("y")))
        .constraint(ClockAst::of("w"), ClockAst::of("r").diff(subtrahend))
        .inputs(["y", "w"])
        .output("x")
        .build()
        .expect("the extended buffer is well-formed")
}

fn loose() -> ProcessDef {
    ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .expect("the loose process is well-formed")
}

#[test]
fn stdlib_and_refused_processes_match_the_oracles() {
    let ill_formed = ProcessBuilder::new("ill")
        .define("x", Expr::var("y").and(Expr::var("z")))
        .define("z", Expr::var("y").when(Expr::var("y")))
        .build()
        .expect("the ill-formed process still builds");
    let mut corpus = stdlib::all_paper_processes();
    corpus.extend([
        stdlib::burst_source(),
        stdlib::burst_sink(),
        stdlib::burst_main(),
        stdlib::primed_buffer(),
        ill_formed,
        loose(),
    ]);
    for def in &corpus {
        check(
            &def.name,
            &def.normalize().expect("corpus processes normalize"),
        );
    }
    check_prefixes("loose_default", &[loose(), stdlib::filter()]);
}

#[test]
fn library_designs_match_the_oracles() {
    for design in [
        library::producer_consumer_design(),
        library::filter_merge_design(),
        library::ltta_design(),
        library::buffer_design(),
        library::multirate_design(),
        library::unprimed_loop_design(),
        library::primed_loop_design(),
    ] {
        check_design(&design.expect("library designs build"));
    }
}

#[test]
fn pipeline_and_chain_prefixes_match_the_oracles() {
    for n in 1..=6 {
        check_prefixes(&format!("pipe{n}"), &library::buffer_pipeline(n));
    }
    for n in 1..=4 {
        check_prefixes(&format!("chain{n}"), &chain_of_pairs(n));
    }
}

#[test]
fn generated_compositions_match_the_oracles() {
    for seed in 0..40 {
        let count = 2 + (seed % 3) as usize;
        let size = 6 + (seed % 5) as usize;
        check_prefixes(
            &format!("component_batch seed {seed}"),
            &generate::component_batch(count, size, seed),
        );
    }
}

/// No corpus design has a difference with a composite subtrahend: these
/// two do, one eliminable through the buffer's state and one not.
#[test]
fn composite_subtrahends_match_the_oracle() {
    let cases = [
        // ^y ^+ ^y = ^y = [not t] = [s]: rewritten through s.
        (ClockAst::of("y").or(ClockAst::of("y")), true),
        // ^x ^+ ^q involves the free input q: no sampling equals it.
        (ClockAst::of("x").or(ClockAst::of("q")), false),
    ];
    for (subtrahend, eliminable) in cases {
        let def = buffer_with_difference("buffer_w", subtrahend.clone());
        let kernel = def.normalize().expect("the extended buffer normalizes");
        check(&format!("buffer_w with ^r ^- {subtrahend:?}"), &kernel);
        let analysis = ClockAnalysis::analyze(&kernel);
        let composite = analysis
            .disjunctive()
            .resolutions()
            .iter()
            .find(|r| r.subtrahend.as_atom().is_none())
            .expect("the composite difference is analyzed");
        assert_eq!(composite.is_eliminable(), eliminable, "{composite}");
    }
}
