//! Hostile trace bytes never panic the workload reader, and whatever it
//! accepts is a workload the simulator can index.
//!
//! Traces are read from outside the process. This test renders a small
//! synthetic workload as CSV and mutates the bytes with a seeded generator
//! (also without the header, so the reader infers the set count):
//! truncation at a random byte, single bit flips, splices of two cuts, a
//! number replaced by a random `u64` or by 2^32 - 1 or 2^32 (the largest
//! set index and cost in µs that a request holds, and one more), and a
//! 100,000-bracket wrap. Every mutant must return `Ok` or `Err` without
//! panicking, and every `Ok` must satisfy `file_set < n_file_sets <= 2^32`
//! and write back as CSV that reads as the same workload. The invariant is
//! checked directly rather than through `Workload::stats`, so memory stays
//! bounded whatever count a mutant claims.

use anu_des::RngStream;
use anu_workload::{read_csv, write_csv, CostModel, SyntheticConfig, WeightDist, Workload};
use std::panic;

/// Mutants per kind and format.
const ROUNDS: usize = 200;

/// The simulator indexes file sets as `u32`.
const MAX_FILE_SETS: u64 = 1 << 32;

fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Truncations, bit flips, splices and number swaps of `text`.
fn mutants(text: &str, rng: &mut RngStream) -> Vec<String> {
    let bytes = text.as_bytes();
    let numbers: Vec<(usize, usize)> = (0..bytes.len())
        .filter(|&k| bytes[k].is_ascii_digit() && (k == 0 || !bytes[k - 1].is_ascii_digit()))
        .map(|k| {
            let end = (k..bytes.len()).find(|&e| !bytes[e].is_ascii_digit());
            (k, end.unwrap_or(bytes.len()))
        })
        .collect();
    let mut out = Vec::new();
    for _ in 0..ROUNDS {
        out.push(lossy(&bytes[..rng.index(bytes.len())]));

        let mut flipped = bytes.to_vec();
        flipped[rng.index(bytes.len())] ^= 1 << rng.index(8);
        out.push(lossy(&flipped));

        let (i, j) = (rng.index(bytes.len() + 1), rng.index(bytes.len() + 1));
        out.push(lossy(&[&bytes[..i], &bytes[j..]].concat()));

        // A number becomes a random u64 of random magnitude, which reaches
        // the huge counts and ids that a bit flip rarely makes.
        let (start, end) = numbers[rng.index(numbers.len())];
        let number = rng.next_u64() >> rng.index(64);
        out.push(format!("{}{number}{}", &text[..start], &text[end..]));

        // A number at the edge of what a request holds as a set or a cost.
        let (start, end) = numbers[rng.index(numbers.len())];
        let number = (1u64 << 32) - 1 + rng.index(2) as u64;
        out.push(format!("{}{number}{}", &text[..start], &text[end..]));
    }
    let deep = 100_000;
    out.push("[".repeat(deep) + text + &"]".repeat(deep));
    out
}

/// Whether `w` writes as CSV that reads back as `w`.
fn round_trips(w: &Workload) -> Result<(), String> {
    let mut csv = Vec::new();
    write_csv(w, &mut csv).map_err(|e| format!("write: {e}"))?;
    let back = read_csv(csv.as_slice()).map_err(|e| format!("read back: {e}"))?;
    let fields = |w: &Workload| {
        (
            w.label.clone(),
            w.n_file_sets,
            w.duration_us,
            w.requests.clone(),
        )
    };
    if fields(&back) == fields(w) {
        Ok(())
    } else {
        Err("reads back differently".into())
    }
}

#[test]
fn mutated_traces_never_panic_and_stay_indexable() {
    let w = SyntheticConfig {
        n_file_sets: 20,
        total_requests: 8,
        duration_secs: 10.0,
        weights: WeightDist::PowerOfUniform { alpha: 10.0 },
        mean_cost_secs: 0.01,
        cost: CostModel::Pareto { alpha: 1.5 },
        seed: 5,
    }
    .generate();
    let mut csv = Vec::new();
    write_csv(&w, &mut csv).expect("in-memory write");
    let csv = lossy(&csv);
    let bare_csv: String = csv
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.to_string() + "\n")
        .collect();

    let mut rng = RngStream::new(0x5eed, "hostile-traces");
    let mut accepted = 0;
    let mut failures = Vec::new();
    for (format, text) in [("csv", &csv), ("bare csv", &bare_csv)] {
        for (k, mutant) in mutants(text, &mut rng).iter().enumerate() {
            let read = panic::catch_unwind(|| read_csv(mutant.as_bytes()).ok());
            match read {
                Err(_) => failures.push(format!("{format} mutant {k} panicked")),
                Ok(Some(w)) => {
                    let n = w.n_file_sets as u64;
                    let top = w.requests.iter().map(|r| r.file_set().0).max();
                    if n > MAX_FILE_SETS || top.is_some_and(|id| id >= n) {
                        failures.push(format!("{format} mutant {k}: {n} sets, top id {top:?}"));
                    }
                    if let Err(why) = round_trips(&w) {
                        failures.push(format!("{format} mutant {k}: {why}"));
                    }
                    accepted += 1;
                }
                Ok(None) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
    assert!(
        accepted > 0,
        "no mutant parsed; the invariant was never checked"
    );
}
