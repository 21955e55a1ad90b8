//! Unit pins for the harness plumbing: task seeding, verdict rendering,
//! and CSV field escaping. These are cheap, deterministic tests that
//! catch contract drift without running any simulation.

use anu_des::task_seed;
use anu_harness::{checks_table, csv_field, ShapeCheck, Verdict};

// ---------------------------------------------------------------- seeds

/// `task_seed` is a stability contract, not just a hash: grid CSV names,
/// trace files, and every committed artifact depend on task N of base
/// seed S always producing the same stream. These pins were computed
/// from the documented SplitMix64 jump construction; if one fires, every
/// golden output in the repo is stale.
#[test]
fn task_seed_values_are_pinned() {
    for (base, task, expected) in [
        (1u64, 0u64, 0x0000_0000_0000_0001u64),
        (1, 1, 0x910a_2dec_8902_5cc1),
        (1, 2, 0xbeeb_8da1_658e_ec67),
        (1, 7, 0xe099_ec6c_d736_3ca5),
        (42, 1, 0xbdd7_3226_2feb_6e95),
        (42, 100, 0x39fe_ecac_1eb4_a198),
        (0xDEAD_BEEF, 3, 0x021f_bc2f_8e1c_fc1d),
    ] {
        assert_eq!(
            task_seed(base, task),
            expected,
            "task_seed({base}, {task}) drifted"
        );
    }
}

#[test]
fn task_seed_zero_is_identity_and_tasks_are_distinct() {
    // Task 0 must return the base seed itself (single-task grids are
    // byte-identical to direct runs), and nearby tasks must not collide.
    for base in [0u64, 1, 42, u64::MAX] {
        assert_eq!(task_seed(base, 0), base);
    }
    let seeds: Vec<u64> = (0..1000).map(|t| task_seed(7, t)).collect();
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        seeds.len(),
        "task seeds collide within 1000 tasks"
    );
}

// ------------------------------------------------------------- verdicts

fn check(claim: &str, pass: bool, measured: &str) -> ShapeCheck {
    ShapeCheck {
        claim: claim.into(),
        pass,
        measured: measured.into(),
    }
}

#[test]
fn verdict_pass_requires_every_check() {
    let mut v = Verdict {
        name: "fig6".into(),
        seed: 1,
        checks: vec![check("a", true, "x"), check("b", true, "y")],
    };
    assert!(v.pass());
    v.checks.push(check("c", false, "z"));
    assert!(!v.pass(), "one failing check must fail the verdict");
    v.checks.clear();
    assert!(v.pass(), "vacuously true with no checks");
}

#[test]
fn checks_table_format_is_pinned() {
    // The figures binary greps nothing from this block, but humans and
    // CI logs do — pin the exact layout.
    let table = checks_table(&[
        check(
            "adaptive beats static",
            true,
            "anu 55.8 ms vs simple 469108.7 ms",
        ),
        check("tuning converges", false, "late moves 17"),
    ]);
    assert_eq!(
        table,
        "  [PASS] adaptive beats static\n\
         \x20       measured: anu 55.8 ms vs simple 469108.7 ms\n\
         \x20 [FAIL] tuning converges\n\
         \x20       measured: late moves 17\n"
    );
}

// ----------------------------------------------------------- csv fields

#[test]
fn csv_field_passes_plain_labels_through() {
    for plain in ["anu-randomization", "round_robin", "", "a b c", "50%"] {
        assert_eq!(csv_field(plain), plain, "plain field must be unquoted");
    }
}

#[test]
fn csv_field_quotes_and_doubles_specials() {
    assert_eq!(csv_field("a,b"), "\"a,b\"");
    assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
    assert_eq!(csv_field("cr\rhere"), "\"cr\rhere\"");
    assert_eq!(csv_field("both,\"x\""), "\"both,\"\"x\"\"\"");
}

#[test]
fn csv_field_roundtrips_through_a_minimal_parser() {
    // Unquote what csv_field produced and require the original back.
    fn unquote(field: &str) -> String {
        if let Some(inner) = field.strip_prefix('"').and_then(|f| f.strip_suffix('"')) {
            inner.replace("\"\"", "\"")
        } else {
            field.to_string()
        }
    }
    for raw in [
        "plain",
        "a,b",
        "\"",
        "\"\"",
        "mix,\"of\nall\r",
        ",",
        "trailing\"",
    ] {
        assert_eq!(
            unquote(&csv_field(raw)),
            raw,
            "roundtrip failed for {raw:?}"
        );
    }
}
