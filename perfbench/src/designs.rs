//! The designs the workloads verify, each entered as Signal text, and
//! the known answers the static layers must give for them.

use std::hint::black_box;

use polychrony::codegen::CompiledProgram;
use polychrony::gals_rt::{CapacityAnalysis, DeployError, PerformancePrediction};
use polychrony::isochron::{design::chain_of_pairs, library, Design};
use polychrony::signal_lang::{generate, parser, printer, Expr, ProcessBuilder, ProcessDef};

use crate::trace::Tracer;

/// The answer the static layers must give for a design.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Verified; every derived channel bound equals `bound`, there are
    /// `edges` channels, and (for an `n`-stage buffer pipeline) the
    /// predictor's reactions per input equal `2n`.
    Verified {
        bound: usize,
        edges: usize,
        stages: Option<usize>,
    },
    /// Weakly hierarchic, but the priming-liveness pass refuses it.
    UnprimedCycle,
    /// Refused by the weak-hierarchy criterion.
    NotVerified,
}

/// One design as Signal text: its components, plus the composite that
/// hides their shared signals when the design is built from parts.
pub struct Case {
    pub name: &'static str,
    /// Its per-layer row on the verify workload (`verify.<name>_ms`);
    /// empty outside the verify set.
    pub row: &'static str,
    pub composite: Option<String>,
    pub parts: Vec<String>,
    pub expect: Expect,
}

impl Case {
    /// The span around one verification of this design (`verify.<name>`).
    pub fn span(&self) -> &'static str {
        self.row.strip_suffix("_ms").unwrap_or(self.row)
    }
}

fn texts(defs: &[ProcessDef]) -> Vec<String> {
    defs.iter().map(printer::render).collect()
}

fn case(row: &'static str, name: &'static str, defs: &[ProcessDef], expect: Expect) -> Case {
    Case {
        name,
        row,
        composite: None,
        parts: texts(defs),
        expect,
    }
}

fn verified(bound: usize, edges: usize) -> Expect {
    Expect::Verified {
        bound,
        edges,
        stages: None,
    }
}

/// The `n`-stage buffer pipeline (`p0` in, `p{n}` out), named `name`.
pub fn pipe(name: &'static str, n: usize) -> Case {
    case(
        "",
        name,
        &library::buffer_pipeline(n),
        Expect::Verified {
            bound: 1,
            edges: n - 1,
            stages: Some(n),
        },
    )
}

/// The verify workload's set: the paper's case studies, buffer pipelines
/// and chains of producer/consumer pairs, a seeded composition of
/// generated components, and two designs that must be refused.
pub fn catalog(seed: u64) -> Vec<Case> {
    let filter = library::filter().instantiate("filter", &[("y", "y"), ("x", "x")]);
    let merge =
        library::merge().instantiate("merge", &[("c", "c"), ("y", "x"), ("z", "z"), ("d", "d")]);
    let bus1 = library::buffer_pair().instantiate(
        "bus1",
        &[("y", "yw"), ("b", "bw"), ("yo", "ym"), ("bo", "bm")],
    );
    let bus2 = library::buffer_pair().instantiate(
        "bus2",
        &[("y", "ym"), ("b", "bm"), ("yo", "yr"), ("bo", "br")],
    );
    let loop_head = library::buffer().instantiate("b0", &[("y", "p0"), ("x", "p1")]);
    let unprimed_tail = library::buffer().instantiate("b1", &[("y", "p1"), ("x", "p0")]);
    let primed_tail = library::primed_buffer().instantiate("b1", &[("y", "p1"), ("x", "p0")]);
    // A lone `default` over unrelated inputs fails the weak-hierarchy
    // criterion (the serving example's unverifiable tenant).
    let loose = ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .expect("the loose process is well-formed");
    vec![
        case(
            "verify.main_ms",
            "main",
            &[library::producer(), library::consumer()],
            verified(1, 1),
        ),
        case(
            "verify.filter_merge_ms",
            "filter_merge",
            &[filter.clone(), merge],
            verified(1, 1),
        ),
        case(
            "verify.ltta_ms",
            "ltta",
            &[library::ltta_writer(), bus1, bus2, library::ltta_reader()],
            verified(1, 6),
        ),
        Case {
            name: "multirate",
            row: "verify.multirate_ms",
            composite: Some(printer::render(&library::burst_main())),
            parts: texts(&[library::burst_source(), library::burst_sink()]),
            expect: verified(3, 1),
        },
        case(
            "verify.primed_loop_ms",
            "primed_loop",
            &[loop_head.clone(), primed_tail],
            verified(1, 2),
        ),
        Case {
            row: "verify.pipe2_ms",
            ..pipe("pipe2", 2)
        },
        Case {
            row: "verify.pipe4_ms",
            ..pipe("pipe4", 4)
        },
        Case {
            row: "verify.pipe8_ms",
            ..pipe("pipe8", 8)
        },
        case(
            "verify.chain1_ms",
            "chain1",
            &chain_of_pairs(1),
            verified(1, 1),
        ),
        case(
            "verify.chain2_ms",
            "chain2",
            &chain_of_pairs(2),
            verified(1, 2),
        ),
        case(
            "verify.chain4_ms",
            "chain4",
            &chain_of_pairs(4),
            verified(1, 4),
        ),
        // Disjoint endochronous components: no channel, verified.
        case(
            "verify.generated_ms",
            "generated",
            &generate::component_batch(GENERATED_COMPONENTS, GENERATED_SIZE, seed),
            verified(1, 0),
        ),
        case(
            "verify.unprimed_loop_ms",
            "unprimed_loop",
            &[loop_head, unprimed_tail],
            Expect::UnprimedCycle,
        ),
        case(
            "verify.loose_default_ms",
            "loose_default",
            &[loose, filter],
            Expect::NotVerified,
        ),
    ]
}

/// Components in the seeded composition, and signals per component.
pub const GENERATED_COMPONENTS: usize = 3;
pub const GENERATED_SIZE: usize = 8;

/// Takes `case` from Signal text to verdict, derived bounds, prediction
/// and compiled machines, with a span around each layer call, and checks
/// every answer against `case.expect`.  Returns the design when the
/// answers hold (refused designs included), or what was wrong.
pub fn verify(case: &Case, tr: &mut Tracer, req: u64) -> Result<Design, String> {
    let name = case.name;
    let wrong = |what: String| format!("{name}: {what}");
    let (composite, parts) = tr
        .time("signal.parse", req, || {
            let composite = case
                .composite
                .as_deref()
                .map(parser::parse_process)
                .transpose()?;
            let parts = case
                .parts
                .iter()
                .map(|text| parser::parse_process(text))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, polychrony::signal_lang::SignalError>((composite, parts))
        })
        .map_err(|e| wrong(format!("parse: {e}")))?;
    let design = tr
        .time("core.compose", req, || match composite {
            Some(composite) => Design::from_parts(composite, parts),
            None => Design::compose(name, parts),
        })
        .map_err(|e| wrong(format!("compose: {e}")))?;
    let isochronous = design.verdict().isochronous;
    let capacity = tr.time("core.capacity", req, || design.capacity_analysis());
    match case.expect {
        Expect::NotVerified => match capacity {
            Err(DeployError::NotVerified(_)) if !isochronous => Ok(design),
            other => Err(wrong(format!(
                "expected NotVerified, got {}",
                outcome(&other)
            ))),
        },
        Expect::UnprimedCycle => match capacity {
            Err(DeployError::UnprimedCycle(_)) if isochronous => Ok(design),
            other => Err(wrong(format!(
                "expected UnprimedCycle, got {}",
                outcome(&other)
            ))),
        },
        Expect::Verified {
            bound,
            edges,
            stages,
        } => {
            if !isochronous {
                return Err(wrong("refused by the weak-hierarchy criterion".into()));
            }
            let analysis = capacity.map_err(|e| wrong(format!("capacity: {e}")))?;
            check_bounds(&analysis, bound, edges).map_err(wrong)?;
            let prediction = tr
                .time("core.predict", req, || design.performance_prediction())
                .map_err(|e| wrong(format!("prediction: {e}")))?;
            check_prediction(&prediction, stages).map_err(wrong)?;
            tr.time("codegen.compile", req, || {
                for component in design.components() {
                    black_box(CompiledProgram::compile(&component.step_program()));
                }
            });
            Ok(design)
        }
    }
}

fn outcome(capacity: &Result<CapacityAnalysis, DeployError>) -> String {
    match capacity {
        Ok(_) => "derived bounds".into(),
        Err(e) => format!("{e}"),
    }
}

fn check_bounds(analysis: &CapacityAnalysis, bound: usize, edges: usize) -> Result<(), String> {
    if !analysis.is_fully_bounded() {
        return Err(format!("unbounded edges {:?}", analysis.unbounded()));
    }
    let bounds = analysis.bounds();
    if bounds.len() != edges {
        return Err(format!("{} derived edges, expected {edges}", bounds.len()));
    }
    match bounds.iter().find(|(_, d)| d.bound != bound) {
        Some((signal, d)) => Err(format!("edge {signal} bound {}, expected {bound}", d.bound)),
        None => Ok(()),
    }
}

fn check_prediction(
    prediction: &PerformancePrediction,
    stages: Option<usize>,
) -> Result<(), String> {
    let Some(n) = stages else {
        return Ok(());
    };
    let predicted = prediction.reactions_per_input();
    if (predicted - 2.0 * n as f64).abs() > 1e-9 {
        return Err(format!(
            "{predicted} reactions per input, expected {}",
            2 * n
        ));
    }
    Ok(())
}
