//! End-to-end check of the acceptance bar: a fig6 run traced at
//! `TraceLevel::Request` must reconstruct into per-request spans with
//! zero orphaned events and attribution that telescopes to each
//! recorded end-to-end latency — for every policy in the lineup, via
//! the JSONL rendering `anu-inspect` reads.

use anu_inspect::{analyze, parse_jsonl};
use anu_trace::{RingSink, TraceLevel};

#[test]
fn fig6_request_spans_are_clean_for_every_policy() {
    let exp = anu_harness::reduced(
        anu_harness::fig6(anu_harness::DEFAULT_SEED),
        anu_harness::DEFAULT_SEED,
    );
    for (label, kind) in &exp.policies {
        let mut policy = kind.build(&exp.cluster, &exp.workload, exp.seed);
        let mut ring = RingSink::new(TraceLevel::Request);
        let result =
            anu_cluster::run_traced(&exp.cluster, &exp.workload, policy.as_mut(), &mut ring);

        // The JSONL rendering parses back to exactly the recorded event
        // stream.
        let text: String = ring
            .decode_lines()
            .iter()
            .map(|l| l.clone() + "\n")
            .collect();
        let events = parse_jsonl(&text).expect("JSONL parses");
        assert_eq!(
            events,
            ring.decode_events(),
            "{label}: JSONL/ring divergence"
        );
        let a = analyze(&events);

        // Zero orphaned dispatches/completes/markers, zero attribution
        // mismatches: the integrity bar the CI smoke holds.
        assert!(a.integrity.clean(), "{label}: {:?}", a.integrity);

        // Every offered request reconstructs as a span; every completed
        // request completes its span.
        assert_eq!(
            a.spans.len() as u64,
            result.summary.offered_requests,
            "{label}: span count"
        );
        assert_eq!(
            a.attribution.completed, result.summary.completed_requests,
            "{label}: completed count"
        );

        // Attribution telescopes per span (mismatches == 0 above) and in
        // aggregate.
        assert_eq!(
            a.attribution.stall_us
                + a.attribution.queue_us
                + a.attribution.requeue_us
                + a.attribution.service_us,
            a.attribution.latency_us,
            "{label}: aggregate attribution"
        );
    }
}
