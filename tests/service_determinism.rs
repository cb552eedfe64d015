//! Determinism and flow-control contract of the streaming service:
//! the open-stream mirror of `tests/batch_determinism.rs`.
//!
//! A fixed seeded `ArrivalSchedule` replayed through `RoutingService`
//! must produce per-job outcomes byte-identical to routing the same
//! jobs as one closed `QueryEngine::run` batch — at 1 and 4 worker
//! threads and under any submission-order permutation. Which worker and
//! which pooled scratch serve a job is unobservable. Backpressure must be
//! exact: with an in-flight cap of K, the (K+1)-th fail-fast submission
//! is rejected, and no admitted outcome is ever lost. A cap of 0 is
//! served as 1.

use expander_core::service::{ArrivalSchedule, RoutingService, ServiceConfig};
use expander_core::{
    Job, JobOutcome, QueryEngine, Router, RouterConfig, RoutingInstance, SubmitError,
};
use expander_graphs::generators;
use std::sync::mpsc;
use std::time::Duration;

fn router(n: usize) -> Router {
    let g = generators::random_regular(n, 4, 0xBA7C).expect("generator");
    Router::preprocess(&g, RouterConfig::for_epsilon(0.4)).expect("router")
}

/// Every observable byte of one job outcome.
fn fingerprint(out: &JobOutcome) -> String {
    match out {
        JobOutcome::Route(o) => {
            format!("route|{:?}|{:?}|{}|{:?}", o.positions, o.stats, o.ledger, o.ledger)
        }
        JobOutcome::Sort(o) => {
            format!("sort|{:?}|{:?}|{}|{:?}", o.positions, o.stats, o.ledger, o.ledger)
        }
    }
}

/// Replays `schedule` through a service at `threads` workers and
/// returns the outcome fingerprints, indexed like the schedule's
/// events.
fn serve_fingerprints(
    engine: &QueryEngine<'_>,
    schedule: &ArrivalSchedule,
    threads: usize,
) -> Vec<String> {
    let config = ServiceConfig { threads: Some(threads), tenants: 3, ..ServiceConfig::default() };
    let (outs, stats) =
        RoutingService::serve(engine, config, |handle| schedule.drive(handle, false));
    assert_eq!(stats.admitted as usize, schedule.events.len());
    assert_eq!(stats.completed, stats.admitted, "no outcome lost");
    assert_eq!(stats.rejected, 0);
    outs.iter().map(fingerprint).collect()
}

#[test]
fn streamed_outcomes_match_closed_batches_at_any_thread_count() {
    let n = 256;
    let r = router(n);
    let engine = QueryEngine::new(&r);
    let schedule = ArrivalSchedule::permutations(n, 12, 3, 0.0, 0xFEED);

    // The closed-batch oracle: the same jobs as one QueryEngine::run.
    let batch = engine.run(&schedule.jobs()).expect("valid");
    let oracle: Vec<String> = batch.outcomes.iter().map(fingerprint).collect();

    for threads in [1usize, 4] {
        let streamed = serve_fingerprints(&engine, &schedule, threads);
        assert_eq!(streamed.len(), oracle.len());
        for (i, (s, o)) in streamed.iter().zip(&oracle).enumerate() {
            assert_eq!(s, o, "job {i} differs from the closed batch at {threads} threads");
        }
    }
}

#[test]
fn submission_order_is_unobservable() {
    let n = 256;
    let r = router(n);
    let engine = QueryEngine::new(&r);
    let schedule = ArrivalSchedule::permutations(n, 10, 2, 0.0, 0xD15C);
    let base = serve_fingerprints(&engine, &schedule, 2);

    // Permute the events, replay, and map the fingerprints back to the
    // original indices.
    let mut order: Vec<usize> = (0..schedule.events.len()).collect();
    order.reverse();
    order.swap(0, 4);
    order.swap(2, 7);
    let permuted =
        ArrivalSchedule { events: order.iter().map(|&i| schedule.events[i].clone()).collect() };
    let out = serve_fingerprints(&engine, &permuted, 2);
    for (pos, &orig) in order.iter().enumerate() {
        assert_eq!(out[pos], base[orig], "job {orig} depends on submission order");
    }
}

#[test]
fn backpressure_cap_is_exact_and_lossless() {
    let n = 256;
    let r = router(n);
    let engine = QueryEngine::new(&r);
    const K: usize = 3;
    // Completed jobs stay in flight until received, so the cap holds
    // however far the single worker has got with the first K jobs.
    let config = ServiceConfig { threads: Some(1), max_in_flight: K, ..ServiceConfig::default() };
    let (fingerprints, stats) = RoutingService::serve(&engine, config, |handle| {
        let mut tickets = Vec::new();
        for seed in 0..K as u64 {
            let job = Job::Route(RoutingInstance::permutation(n, seed));
            tickets.push(handle.try_submit(0, job).expect("under the cap"));
        }
        // The (K+1)-th fail-fast submission is exactly the one
        // rejected.
        let overflow = Job::Route(RoutingInstance::permutation(n, K as u64));
        assert_eq!(handle.try_submit(0, overflow.clone()), Err(SubmitError::Saturated));
        // Receiving one outcome frees exactly one slot.
        let mut got = Vec::new();
        got.push(handle.recv(0).expect("K outstanding"));
        tickets.push(handle.try_submit(0, overflow).expect("one slot freed"));
        while let Some(out) = handle.recv(0) {
            got.push(out);
        }
        // Every admitted ticket came back exactly once.
        let mut seen: Vec<u64> = got.iter().map(|&(t, _)| t).collect();
        seen.sort_unstable();
        let mut expected = tickets.clone();
        expected.sort_unstable();
        assert_eq!(seen, expected, "admitted tickets and received tickets differ");
        got.sort_by_key(|&(t, _)| t);
        got.iter().map(|(_, out)| fingerprint(out)).collect::<Vec<_>>()
    });
    assert_eq!(stats.admitted, K as u64 + 1);
    assert_eq!(stats.completed, K as u64 + 1);
    assert_eq!(stats.rejected, 1, "exactly the over-cap submission was rejected");

    // The K+1 admitted jobs (seeds 0..K, then seed K resubmitted) are
    // byte-identical to the closed batch of the same jobs.
    let jobs: Vec<Job> =
        (0..=K as u64).map(|s| Job::Route(RoutingInstance::permutation(n, s))).collect();
    let batch = engine.run(&jobs).expect("valid");
    for (i, (streamed, oracle)) in fingerprints.iter().zip(&batch.outcomes).enumerate() {
        assert_eq!(streamed, &fingerprint(oracle), "job {i} differs from the closed batch");
    }
}

#[test]
fn blocking_submit_waits_out_saturation() {
    let n = 256;
    let r = router(n);
    let engine = QueryEngine::new(&r);
    let config = ServiceConfig { threads: Some(2), max_in_flight: 2, ..ServiceConfig::default() };
    let (delivered, stats) = RoutingService::serve(&engine, config, |handle| {
        // Submit far past the cap from a sibling thread while this one
        // receives: the blocking submitter makes progress only because
        // each recv frees a slot.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for seed in 0..10u64 {
                    let job = Job::Route(RoutingInstance::permutation(n, seed));
                    handle.submit(0, job).expect("blocking submit admits eventually");
                }
            });
            let mut got = 0;
            while got < 10 {
                if handle.recv(0).is_some() {
                    got += 1;
                }
            }
            got
        })
    });
    assert_eq!(delivered, 10);
    assert_eq!(stats.admitted, 10);
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn arrivals_to_parked_workers_match_closed_batches() {
    // Each job is submitted only after the previous outcome came back,
    // so every arrival finds the intake empty and the workers parked on
    // it (or about to park): only the submission's wake-up can start
    // the job.
    let n = 256;
    let r = router(n);
    let engine = QueryEngine::new(&r);
    let schedule = ArrivalSchedule::permutations(n, 16, 1, 0.0, 0x9A4C);
    let batch = engine.run(&schedule.jobs()).expect("valid");
    let config = ServiceConfig { threads: Some(2), ..ServiceConfig::default() };
    let (streamed, stats) = RoutingService::serve(&engine, config, |handle| {
        let mut streamed = Vec::new();
        for ev in &schedule.events {
            let ticket = handle.submit(ev.tenant, ev.job.clone()).expect("admitted");
            let (got, out) = handle.recv(ev.tenant).expect("one job outstanding");
            assert_eq!(got, ticket);
            streamed.push(fingerprint(&out));
        }
        streamed
    });
    // `serve` returned once the body did, with every job served.
    assert_eq!(stats.admitted, 16);
    assert_eq!(stats.completed, 16);
    for (i, (s, o)) in streamed.iter().zip(&batch.outcomes).enumerate() {
        assert_eq!(s, &fingerprint(o), "job {i} differs from the closed batch");
    }
}

#[test]
fn zero_in_flight_budget_admits_one_job_at_a_time() {
    // The session runs on a thread of its own and reports back through
    // a channel, so a service that admits nothing under a budget of 0
    // fails this test instead of hanging it. The thread is joined only
    // once it has reported.
    let n = 128;
    let (tx, rx) = mpsc::channel();
    let session = std::thread::spawn(move || {
        let r = router(n);
        let engine = QueryEngine::new(&r);
        let config =
            ServiceConfig { threads: Some(1), max_in_flight: 0, ..ServiceConfig::default() };
        let report = RoutingService::serve(&engine, config, |handle| {
            let job = |seed| Job::Route(RoutingInstance::permutation(n, seed));
            let first = handle.submit(0, job(0));
            let overflow = handle.try_submit(0, job(1));
            let got_first = handle.recv(0).map(|(ticket, out)| (ticket, out.rounds()));
            let second = handle.submit(0, job(1));
            let got_second = handle.recv(0).map(|(ticket, out)| (ticket, out.rounds()));
            (first, overflow, got_first, second, got_second)
        });
        tx.send(report).expect("the test waits for the session");
    });
    let ((first, overflow, got_first, second, got_second), stats) =
        rx.recv_timeout(Duration::from_secs(60)).expect("a session with a budget of 0 returns");
    session.join().expect("the session thread ends cleanly");
    let first = first.expect("submit admits the first job");
    assert_eq!(overflow, Err(SubmitError::Saturated), "one job in flight fills the budget");
    let second = second.expect("receiving the first outcome frees the slot");
    for (ticket, got) in [(first, got_first), (second, got_second)] {
        let (got, rounds) = got.expect("the outcome arrives");
        assert_eq!(got, ticket);
        assert!(rounds > 0, "job {ticket} charged no rounds");
    }
    assert_eq!((stats.admitted, stats.completed, stats.rejected), (2, 2, 1));
}
