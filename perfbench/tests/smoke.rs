//! Smoke mode: every workload at tiny n emits exactly the metrics and
//! units `BENCHMARK.json` names, and a corrupted outcome is counted as
//! failed.

use expander_core::{
    ChurnConfig, ChurnRouter, Job, JobOutcome, QueryEngine, Router, RouterConfig, RoutingInstance,
    Undeliverable, UndeliverableReason,
};
use expander_graphs::generators;
use perfbench::check::{self, Tally};
use perfbench::{Params, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every entry of `section` in `BENCHMARK.json`
/// (`unit` is empty for workloads).
fn spec(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..=body.find(']').expect("array end")];
    let field = |entry: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        entry.find(&tag).map_or(String::new(), |i| {
            let rest = &entry[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    assert_eq!(spec("end_to_end"), table(END_TO_END));
    assert_eq!(spec("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = spec("workloads").into_iter().map(|(n, _)| n).collect();
    assert!(!workloads.is_empty() && workloads.iter().all(|w| Workload::parse(w).is_some()));
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    for w in Workload::ALL {
        for (trace, expected) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = perfbench::run(w, 3, 0.3, trace, &Params::tiny()).expect("tiny run");
            let got: Vec<(&str, &str)> = r.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, expected, "{} trace={trace}", w.name());
            assert!(r.tally.attempted > 0 && r.tally.failed == 0, "{}: {:?}", w.name(), r.tally);
            let line = r.result_json();
            assert!(line.starts_with("{\"correct\":true,\"attempted\":"), "{line}");
            assert_eq!(r.trace_json.is_some(), trace);
            if !trace {
                assert!(
                    r.metrics.iter().all(|&(_, v, _)| v > 0.0),
                    "{}: {:?}",
                    w.name(),
                    r.metrics
                );
            }
        }
    }
}

#[test]
fn corrupted_outcomes_count_as_failed() {
    let n = 256;
    let g = generators::random_regular(n, 4, 1).expect("generator");
    let router =
        Router::preprocess(&g, RouterConfig::for_epsilon(perfbench::EPSILON)).expect("expander");
    let inst = RoutingInstance::partial_permutation(n, n / 8, 5);
    let mut tally = Tally::default();

    let mut out = router.route(&inst).expect("valid");
    tally.record(check::route_ok(&inst, &out), String::new);
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    out.positions[0] = (out.positions[0] + 1) % n as u32;
    tally.record(check::route_ok(&inst, &out), || "moved token".to_owned());
    assert_eq!(tally.failed, 1);
    assert!(tally.failed_frac() > 0.0);

    // A streamed outcome that differs from its closed-batch reference
    // only in its ledger is a mismatch.
    let engine = QueryEngine::new(&router);
    let jobs = [Job::Route(inst.clone())];
    let reference = engine.run(&jobs).expect("valid").outcomes;
    let mut streamed = engine.run(&jobs).expect("valid").outcomes;
    assert!(check::same_outcome(&streamed[0], &reference[0]));
    if let JobOutcome::Route(o) = &mut streamed[0] {
        o.ledger.charge("query/tampered", 1);
    }
    assert!(!check::same_outcome(&streamed[0], &reference[0]));

    // A churn read that reports a token undeliverable fails the check.
    let mut cr = ChurnRouter::new(&g, ChurnConfig::for_epsilon(perfbench::EPSILON));
    let mut churned = cr.route(&inst).expect("valid");
    assert!(check::churn_ok(&inst, &churned));
    let t = &inst.tokens[0];
    churned.outcome.positions[0] = t.src;
    churned.outcome.undeliverable.push(Undeliverable {
        token: 0,
        reason: UndeliverableReason::NoPath { src: t.src, dst: t.dst },
    });
    assert!(!check::churn_ok(&inst, &churned));
}
