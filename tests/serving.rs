//! The serving layer: admission control, tenant isolation, priorities.
//!
//! `gals_serve::Server` hosts many verified deployments on one shared
//! pool.  This suite covers the contract edges the example does not
//! linger on:
//!
//! * every typed refusal path of admission — unverified design,
//!   unprimed feedback loop, over-budget (components and predicted
//!   reactions), duplicate id — and that refusals are *transient*:
//!   finishing a tenant releases its reservation, so the same submission
//!   succeeds afterwards;
//! * pricing: the admitted footprint is exactly what the verification
//!   artifacts say (component count, summed derived bounds, predicted
//!   reactions per input), also when several threads admit one design at
//!   once;
//! * isolation: concurrent tenants drain to the same flows and
//!   conformance verdicts a dedicated batch run would produce;
//! * priorities: a high-priority tenant admitted *last* into a paused
//!   single-worker pool finishes before every earlier batch tenant;
//! * the timeout path: a finish deadline that expires hands the handle
//!   back with its reservation, its inputs closed.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use polychrony::gals_rt::DeployError;
use polychrony::gals_serve::{
    AdmitError, AdmitOptions, Budget, FinishError, Resource, Server, ServerOptions,
};
use polychrony::isochron::{library, Design};
use polychrony::moc::Value;
use polychrony::signal_lang::{stdlib, Expr, ProcessBuilder};

/// A design that fails the static weak-hierarchy criterion: a lone
/// `default` over unrelated inputs, composed with a filter.
fn unverified_design() -> Design {
    let loose = ProcessBuilder::new("loose")
        .define("d", Expr::var("y").default(Expr::var("z")))
        .build()
        .expect("the process builds");
    Design::compose("bad", [loose, stdlib::filter()]).expect("composes")
}

#[test]
fn an_unverified_design_is_refused_at_admission() {
    let server = Server::start(ServerOptions::new(2, 8)).expect("starts");
    let err = server.admit("shady", &unverified_design()).unwrap_err();
    assert_eq!(err, AdmitError::NotVerified("bad".into()));
    assert_eq!(server.load().deployments, 0, "nothing was reserved");
}

#[test]
fn an_unprimed_feedback_loop_is_refused_at_admission() {
    let design = library::unprimed_loop_design().expect("composes");
    let Err(DeployError::UnprimedCycle(cycle)) = design.capacity_analysis() else {
        panic!("the loop's buffers each read before they emit");
    };
    let server = Server::start(ServerOptions::new(2, 8)).expect("starts");
    let err = server.admit("deadlocked", &design).unwrap_err();
    assert_eq!(err, AdmitError::UnprimedCycle(cycle));
    assert!(err.to_string().contains("unprimed feedback loop"), "{err}");
    assert_eq!(server.load().deployments, 0, "nothing was reserved");
}

#[test]
fn the_footprint_is_priced_from_the_verification_artifacts() {
    let design = library::buffer_pipeline_design(3).expect("builds");
    let server = Server::start(ServerOptions::new(2, 8)).expect("starts");
    let handle = server.admit("priced", &design).expect("admitted");
    let footprint = handle.footprint();
    assert_eq!(footprint.components, 3);
    let analysis = design.capacity_analysis().expect("verified");
    let slots: usize = analysis.bounds().values().map(|c| c.bound).sum();
    assert_eq!(footprint.channel_slots, slots);
    // Each buffer stage performs two reactions per environment token.
    assert_eq!(footprint.reactions_per_input, 6.0);
    assert_eq!(server.load().in_use, *footprint);
    drop(handle);
    assert_eq!(server.load().deployments, 0, "dropping releases");
}

#[test]
fn threads_admitting_one_design_at_once_price_it_identically() {
    const THREADS: usize = 4;
    // A fresh design: the admissions race to derive its artifacts.
    let design = library::buffer_pipeline_design(3).expect("builds");
    let server = Server::start(ServerOptions::new(2, 8)).expect("starts");
    let start = Barrier::new(THREADS);
    let handles: Vec<_> = std::thread::scope(|scope| {
        let admissions: Vec<_> = (0..THREADS)
            .map(|i| {
                let (server, design, start) = (&server, &design, &start);
                scope.spawn(move || {
                    start.wait();
                    server.admit(format!("t{i}"), design).expect("admitted")
                })
            })
            .collect();
        admissions
            .into_iter()
            .map(|admission| admission.join().expect("the admission does not panic"))
            .collect()
    });
    // An identically built design admitted alone prices the same.
    let alone = library::buffer_pipeline_design(3).expect("builds");
    let reference = server.admit("alone", &alone).expect("admitted");
    for handle in &handles {
        assert_eq!(handle.footprint(), reference.footprint(), "{}", handle.id());
    }
    assert_eq!(server.load().deployments, THREADS + 1);
}

#[test]
fn an_over_budget_submission_is_refused_and_fits_after_a_release() {
    let design = library::buffer_pipeline_design(3).expect("builds");
    let mut options = ServerOptions::new(2, 8);
    options.budget = Budget::unlimited().with_components(4);
    let server = Server::start(options).expect("starts");

    let mut first = server.admit("first", &design).expect("3 of 4 fit");
    let err = server.admit("second", &design).unwrap_err();
    assert_eq!(
        err,
        AdmitError::OverBudget {
            id: "second".into(),
            resource: Resource::Components,
            requested: 3.0,
            in_use: 3.0,
            limit: 4.0,
        }
    );

    // Refusals are transient: finishing the first tenant releases its
    // reservation and the identical submission is admitted.
    first.feed("p0", (0..4).map(Value::Int)).expect("feeds");
    first
        .finish(Duration::from_secs(30))
        .expect("the first tenant drains");
    let second = server.admit("second", &design).expect("now fits");
    assert_eq!(server.load().in_use.components, 3);
    drop(second);
}

#[test]
fn the_reactions_budget_is_metered_by_the_predictor() {
    // A 2-stage pipeline predicts 4 reactions per environment token;
    // a ceiling of 3 cannot host it.
    let design = library::buffer_pipeline_design(2).expect("builds");
    let mut options = ServerOptions::new(2, 8);
    options.budget = Budget::unlimited().with_reactions_per_input(3.0);
    let server = Server::start(options).expect("starts");
    let err = server.admit("hot", &design).unwrap_err();
    assert!(
        matches!(
            err,
            AdmitError::OverBudget {
                resource: Resource::ReactionsPerInput,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn a_duplicate_id_is_refused_while_the_first_is_in_flight() {
    let design = library::buffer_pipeline_design(2).expect("builds");
    let server = Server::start(ServerOptions::new(2, 8)).expect("starts");
    let mut tenant = server.admit("t", &design).expect("admitted");
    assert_eq!(
        server.admit("t", &design).unwrap_err(),
        AdmitError::DuplicateId("t".into())
    );
    tenant.feed("p0", (0..4).map(Value::Int)).expect("feeds");
    tenant.finish(Duration::from_secs(30)).expect("drains");
    // The id is free again once the tenant is gone.
    let again = server.admit("t", &design).expect("id released");
    drop(again);
}

#[test]
fn concurrent_tenants_drain_to_isolated_conformant_outcomes() {
    const TENANTS: usize = 8;
    const TOKENS: i64 = 16;
    let design = library::buffer_pipeline_design(2).expect("builds");
    let server = Server::start(ServerOptions::new(3, 4)).expect("starts");

    let mut handles = Vec::new();
    for tenant in 0..TENANTS {
        handles.push(server.admit(format!("t{tenant}"), &design).expect("fits"));
    }
    assert_eq!(server.load().deployments, TENANTS);
    assert_eq!(
        server.tenants(),
        (0..TENANTS).map(|t| format!("t{t}")).collect::<Vec<_>>()
    );
    // Interleaved feeding: every tenant is in flight at once, each with
    // a distinct stream so cross-talk would be visible.
    for chunk in 0..(TOKENS / 4) {
        for (tenant, handle) in handles.iter_mut().enumerate() {
            let base = (tenant as i64) * 100 + chunk * 4;
            handle
                .feed("p0", (base..base + 4).map(Value::Int))
                .expect("p0 is an environment input");
        }
    }
    for (tenant, handle) in handles.into_iter().enumerate() {
        let outcome = handle.finish(Duration::from_secs(30)).expect("drains");
        let expected: Vec<Value> = (0..TOKENS)
            .map(|i| Value::Int((tenant as i64) * 100 + i))
            .collect();
        assert_eq!(outcome.flow("p2"), expected, "tenant {tenant}");
        let report = outcome.check_conformance().expect("reference registered");
        assert!(report.is_isochronous(), "tenant {tenant}: {report}");
    }
    assert_eq!(server.load().deployments, 0, "every reservation released");
}

#[test]
fn a_high_priority_tenant_admitted_last_finishes_first() {
    const BATCH: usize = 4;
    const TOKENS: i64 = 16;
    let design = library::buffer_pipeline_design(2).expect("builds");
    // One worker, paused: every component queues without dispatching, so
    // on resume the worker always pops the highest-priority ready cell.
    let mut options = ServerOptions::new(1, 64);
    options.paused = true;
    let server = Server::start(options).expect("starts");

    let mut batch = Vec::new();
    for tenant in 0..BATCH {
        let mut handle = server
            .admit(format!("batch{tenant}"), &design)
            .expect("fits");
        handle
            .feed("p0", (0..TOKENS).map(Value::Int))
            .expect("feeds");
        handle.close_inputs();
        batch.push(handle);
    }
    let critical_options = AdmitOptions { base_priority: 10 };
    let mut critical = server
        .admit_with("critical", &design, &critical_options)
        .expect("fits");
    critical
        .feed("p0", (0..TOKENS).map(Value::Int))
        .expect("feeds");
    critical.close_inputs();

    server.resume();
    assert!(critical.wait(Duration::from_secs(30)), "critical finishes");
    for handle in &batch {
        assert!(handle.wait(Duration::from_secs(30)), "batch finishes");
    }
    let critical_rank = critical.completion_index().expect("finished");
    for (tenant, handle) in batch.iter().enumerate() {
        let rank = handle.completion_index().expect("finished");
        assert!(
            critical_rank < rank,
            "critical (rank {critical_rank}) should overtake batch{tenant} (rank {rank})"
        );
    }
    let outcome = critical
        .finish(Duration::from_secs(30))
        .expect("critical drains");
    assert_eq!(outcome.flow("p2").len(), TOKENS as usize);
    for handle in batch {
        handle
            .finish(Duration::from_secs(30))
            .expect("batch drains");
    }
}

#[test]
fn a_served_pipeline_costs_about_two_dispatches_per_token() {
    // A pipe3 tenant is one island on the pool: a token fed and polled
    // back costs at most the feed's wake and the poll's wake, not a
    // dispatch per component and hand-off.
    const TOKENS: i64 = 64;
    let design = library::buffer_pipeline_design(3).expect("builds");
    let server = Server::start(ServerOptions::new(1, 32)).expect("starts");
    let mut tenant = server.admit("echo", &design).expect("fits");
    let deadline = Instant::now() + Duration::from_secs(30);
    for i in 0..TOKENS {
        tenant.feed("p0", [Value::Int(i)]).expect("feeds");
        loop {
            if let Some(values) = tenant.poll_outputs().get("p3") {
                assert_eq!(values, &[Value::Int(i)], "token {i}");
                break;
            }
            assert!(Instant::now() < deadline, "token {i} never came back");
            std::thread::yield_now();
        }
    }
    let dispatches: u64 = server.worker_stats().iter().map(|w| w.dispatches).sum();
    let per_token = dispatches as f64 / TOKENS as f64;
    assert!(
        per_token < 4.0,
        "{dispatches} dispatches for {TOKENS} tokens ({per_token:.2} per token)"
    );
    let outcome = tenant.finish(Duration::from_secs(30)).expect("drains");
    assert_eq!(outcome.flow("p3").len(), TOKENS as usize);
    let report = outcome.check_conformance().expect("reference registered");
    assert!(report.is_isochronous(), "{report}");
}

#[test]
fn a_tenant_fed_as_fast_as_it_answers_keeps_its_worker_awake() {
    // After a dispatch the worker waits hot for the next wake, so a
    // client that feeds each token as soon as the previous one is back
    // meets a running worker: no park, and no futex wake, between tokens.
    // A worker that parked as soon as it found nothing to pop would park
    // about twice per token (after the feed's dispatch and the poll's).
    const TOKENS: i64 = 256;
    let design = library::buffer_pipeline_design(3).expect("builds");
    let server = Server::start(ServerOptions::new(1, 32)).expect("starts");
    let mut tenant = server.admit("echo", &design).expect("fits");
    let parks = || server.worker_stats()[0].parks;
    let before = parks();
    let deadline = Instant::now() + Duration::from_secs(30);
    for i in 0..TOKENS {
        tenant.feed("p0", [Value::Int(i)]).expect("feeds");
        loop {
            if let Some(values) = tenant.poll_outputs().get("p3") {
                assert_eq!(values, &[Value::Int(i)], "token {i}");
                break;
            }
            assert!(Instant::now() < deadline, "token {i} never came back");
            std::thread::yield_now();
        }
    }
    let parked = parks() - before;
    let per_token = parked as f64 / TOKENS as f64;
    assert!(
        per_token < 0.1,
        "{parked} parks for {TOKENS} tokens ({per_token:.2} per token)"
    );
    let outcome = tenant.finish(Duration::from_secs(30)).expect("drains");
    assert_eq!(outcome.flow("p3").len(), TOKENS as usize);
}

#[test]
fn a_finish_timeout_hands_the_handle_back_with_its_reservation() {
    let design = library::buffer_pipeline_design(2).expect("builds");
    // Paused pool: the tenant cannot make progress, so a zero deadline
    // must expire deterministically.
    let mut options = ServerOptions::new(1, 8);
    options.paused = true;
    let server = Server::start(options).expect("starts");
    let mut tenant = server.admit("slow", &design).expect("admitted");
    tenant.feed("p0", (0..4).map(Value::Int)).expect("feeds");

    let FinishError::Timeout { pending, handle } = tenant
        .finish(Duration::ZERO)
        .expect_err("cannot finish paused");
    assert!(!pending.is_empty(), "components still pending");
    assert_eq!(handle.id(), "slow");
    assert_eq!(
        server.load().deployments,
        1,
        "the reservation survived the timeout"
    );
    // Finishing closed the inputs: the returned handle refuses further
    // tokens on its own input as closed, and still tells a name that was
    // never an input apart.
    let mut handle = *handle;
    assert_eq!(
        handle.feed("p0", [Value::Int(4)]).unwrap_err(),
        DeployError::InputsClosed("p0".into())
    );
    assert_eq!(
        handle.feed("nosuch", [Value::Int(4)]).unwrap_err(),
        DeployError::UnknownFeed("nosuch".into())
    );

    server.resume();
    let outcome = handle.finish(Duration::from_secs(30)).expect("drains now");
    assert_eq!(outcome.flow("p2").len(), 4);
    assert_eq!(server.load().deployments, 0);
}
