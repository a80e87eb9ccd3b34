//! A serving process hosting many verified deployments on one pool.
//!
//! Everything else in `examples/` runs *one* deployment to completion;
//! this example inverts the shape.  A `gals_serve::Server` starts a
//! fixed worker pool once, then 64 tenants — each a verified 3-stage
//! buffer pipeline — are admitted, fed distinct input streams
//! concurrently, and drained to 64 fully isolated outcomes: per-tenant
//! flows, per-tenant stats, per-tenant conformance against the
//! synchronous reference.  Admission is priced by the clock calculus
//! (derived channel slots) and the static performance predictor
//! (reactions per input), once per design: every tenant after the first
//! pays only for its machines and channels.  The demo closes with the
//! four refusal paths: an over-budget design, an unverified design, a
//! feedback loop that can never start, and a duplicate tenant id.
//!
//! Run with `cargo run --release --example serve`.

use std::time::Duration;

use polychrony::gals_serve::{AdmitError, Budget, Server, ServerOptions};
use polychrony::isochron::{library, Design};
use polychrony::moc::Value;
use polychrony::signal_lang::{stdlib, Expr, ProcessBuilder};

const TENANTS: usize = 64;
const STAGES: usize = 3;
const TOKENS: i64 = 32;
const CHUNK: i64 = 8;

fn main() {
    // One pool for everything: 4 workers, 8 reactions per dispatch,
    // workers pinned to cores.  The budget leaves exactly enough
    // components for the 64 tenants, so the 65th admission must fail.
    let mut options = ServerOptions::new(4, 8);
    options.budget = Budget::unlimited().with_components(TENANTS * STAGES);
    options.pin_workers = true;
    let server = Server::start(options).expect("the pool starts");
    let design = library::buffer_pipeline_design(STAGES).expect("the pipeline builds");

    println!("== admission ==");
    let mut handles = Vec::with_capacity(TENANTS);
    for tenant in 0..TENANTS {
        let handle = server
            .admit(format!("tenant-{tenant:02}"), &design)
            .expect("within budget");
        if tenant == 0 {
            println!(
                "each tenant is priced at {} (bottleneck boost on [{}])",
                handle.footprint(),
                handle.boosted().join(", ")
            );
        }
        handles.push(handle);
    }
    println!("{}", server.load());

    // The 65th tenant does not fit: 3 more components over a 192 cap.
    match server.admit("one-too-many", &design) {
        Err(AdmitError::OverBudget {
            resource,
            requested,
            in_use,
            limit,
            ..
        }) => println!(
            "refused one-too-many: {requested} {resource} requested, {in_use}/{limit} in use"
        ),
        other => panic!("expected an over-budget refusal, got {other:?}"),
    }

    // An unverified design is refused before any pricing: a lone
    // `default` over unrelated inputs fails the weak-hierarchy
    // criterion, so none of its capacity bounds can be trusted.
    let loose = ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .expect("the process builds");
    let unverified = Design::compose("bad", [loose, stdlib::filter()]).expect("composes");
    match server.admit("unverifiable", &unverified) {
        Err(AdmitError::NotVerified(name)) => println!("refused unverifiable: design {name}"),
        other => panic!("expected a not-verified refusal, got {other:?}"),
    }

    // A verified design can still be refused statically: in this
    // two-buffer loop each buffer reads before it emits, so the loop
    // could never start turning.
    let unprimed = library::unprimed_loop_design().expect("the loop composes");
    match server.admit("deadlocked", &unprimed) {
        Err(AdmitError::UnprimedCycle(cycle)) => println!("refused deadlocked: {cycle}"),
        other => panic!("expected an unprimed-cycle refusal, got {other:?}"),
    }

    // Tenant ids key the accounting ledger, so reuse is refused.
    match server.admit("tenant-00", &design) {
        Err(AdmitError::DuplicateId(id)) => println!("refused duplicate id {id:?}"),
        other => panic!("expected a duplicate-id refusal, got {other:?}"),
    }

    println!();
    println!("== streaming {TENANTS} tenants concurrently ==");
    // Interleave the feeds chunk by chunk across every tenant, so all 64
    // deployments are genuinely in flight at once; each tenant gets a
    // distinct stream (offset by tenant index) to make cross-talk
    // detectable.
    let mut polled = vec![0usize; TENANTS];
    for chunk in 0..(TOKENS / CHUNK) {
        for (tenant, handle) in handles.iter_mut().enumerate() {
            let base = (tenant as i64) * 1_000 + chunk * CHUNK;
            handle
                .feed("p0", (base..base + CHUNK).map(Value::Int))
                .expect("p0 is an environment input");
        }
        for (tenant, handle) in handles.iter_mut().enumerate() {
            for flow in handle.poll_outputs().values() {
                polled[tenant] += flow.len();
            }
        }
    }
    println!(
        "streamed {} tokens, polled {} back mid-flight",
        TENANTS as i64 * TOKENS,
        polled.iter().sum::<usize>()
    );

    println!();
    println!("== draining to {TENANTS} isolated outcomes ==");
    let output = format!("p{STAGES}");
    let mut total_reactions = 0u64;
    for (tenant, handle) in handles.into_iter().enumerate() {
        let outcome = handle
            .finish(Duration::from_secs(30))
            .expect("every tenant drains");
        // Isolation: this tenant's flow is exactly its own stream — the
        // one-place buffers forward values unchanged, so any cross-tenant
        // leak would surface here.
        let expected: Vec<Value> = (0..TOKENS)
            .map(|i| Value::Int((tenant as i64) * 1_000 + i))
            .collect();
        assert_eq!(outcome.flow(&output), expected, "tenant {tenant} flow");
        // And its conformance replay sees only its own feeds.
        let report = outcome.check_conformance().expect("reference registered");
        assert!(report.is_isochronous(), "tenant {tenant}: {report}");
        total_reactions += outcome.stats().total_reactions();
        if tenant < 2 || tenant == TENANTS - 1 {
            let stats = outcome.stats();
            println!(
                "tenant-{tenant:02}: {} reactions in {:.2?}, conformant",
                stats.total_reactions(),
                stats.elapsed
            );
        }
    }
    println!("all {TENANTS} tenants conformant, {total_reactions} reactions total");
    assert_eq!(server.load().deployments, 0, "every reservation released");

    println!();
    println!("== pool after the fact ==");
    for worker in server.worker_stats() {
        println!("  {worker}");
    }
    println!("{}", server.load());
}
