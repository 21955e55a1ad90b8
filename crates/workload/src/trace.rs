//! Trace persistence: CSV.
//!
//! Generated workloads can be saved and replayed so experiments across
//! policies (and across machines) run against byte-identical traces. The
//! format is a `#` header carrying the label, set count and duration, then
//! one `arrival_us,file_set,cost_us` line per request. The reader refuses
//! what a [`Request`] cannot hold, and names its line: an `arrival_us` at or
//! above 2^40, a `file_set` at or above 2^24, or a `cost_us` at or above
//! 2^32.

use crate::request::{indexable_set_count, Request, Workload};
use anu_core::FileSetId;
use anu_des::{SimDuration, SimTime};
use std::io::{self, BufRead, BufWriter, Write};

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed CSV at the given 1-based line.
    Parse {
        /// Line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Write a workload as CSV: header then `arrival_us,file_set,cost_us`.
pub fn write_csv<W: Write>(w: &Workload, out: W) -> Result<(), TraceError> {
    let mut out = BufWriter::new(out);
    writeln!(out, "# label: {}", w.label)?;
    writeln!(out, "# n_file_sets: {}", w.n_file_sets)?;
    writeln!(out, "# duration_us: {}", w.duration_us)?;
    writeln!(out, "arrival_us,file_set,cost_us")?;
    for r in w.requests.iter() {
        writeln!(out, "{},{},{}", r.arrival().0, r.file_set().0, r.cost().0)?;
    }
    out.flush()?;
    Ok(())
}

/// Read a workload from the CSV format produced by [`write_csv`].
pub fn read_csv<R: BufRead>(input: R) -> Result<Workload, TraceError> {
    let mut label = String::from("trace");
    let mut n_file_sets = 0usize;
    let mut duration_us = 0u64;
    let mut requests = Vec::new();
    // Largest file-set id, with its 1-based line, and largest arrival, for
    // checking and inferring the header fields.
    let mut max_fs = (0u64, 0usize);
    let mut max_arrival = 0u64;

    for (i, line) in input.lines().enumerate() {
        let line = line?;
        let lineno = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let rest = rest.trim();
            if let Some(v) = rest.strip_prefix("label:") {
                label = v.trim().to_string();
            } else if let Some(v) = rest.strip_prefix("n_file_sets:") {
                n_file_sets = v
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad n_file_sets: {e}"))
                    .and_then(indexable_set_count)
                    .map_err(|message| TraceError::Parse {
                        line: lineno,
                        message,
                    })?;
            } else if let Some(v) = rest.strip_prefix("duration_us:") {
                duration_us = v.trim().parse().map_err(|e| TraceError::Parse {
                    line: lineno,
                    message: format!("bad duration_us: {e}"),
                })?;
            }
            continue;
        }
        if trimmed.starts_with("arrival_us") {
            continue; // column header
        }
        let mut parts = trimmed.split(',');
        let mut field = |name: &str| {
            parts
                .next()
                .ok_or_else(|| TraceError::Parse {
                    line: lineno,
                    message: format!("missing field {name}"),
                })
                .and_then(|s| {
                    s.trim().parse::<u64>().map_err(|e| TraceError::Parse {
                        line: lineno,
                        message: format!("bad {name}: {e}"),
                    })
                })
        };
        let arrival = field("arrival_us")?;
        let fs = field("file_set")?;
        let cost = field("cost_us")?;
        let request = Request::new(SimTime(arrival), FileSetId(fs), SimDuration(cost)).map_err(
            |message| TraceError::Parse {
                line: lineno,
                message,
            },
        )?;
        max_fs = max_fs.max((fs, lineno));
        max_arrival = max_arrival.max(arrival);
        requests.push(request);
    }
    // Every set is below 2^24 and every arrival below 2^40, so the counts
    // inferred from them cannot overflow and the set count is indexable.
    let (fs, line) = max_fs;
    if n_file_sets == 0 {
        n_file_sets = fs as usize + 1;
    } else if fs as usize >= n_file_sets {
        return Err(TraceError::Parse {
            line,
            message: format!("file_set {fs} is not below n_file_sets {n_file_sets}"),
        });
    }
    if duration_us == 0 {
        duration_us = max_arrival + 1;
    }
    Ok(Workload::new(
        label,
        n_file_sets,
        SimDuration(duration_us),
        requests,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::CostModel;
    use crate::synthetic::SyntheticConfig;
    use crate::weights::WeightDist;

    fn small() -> Workload {
        SyntheticConfig {
            n_file_sets: 5,
            total_requests: 100,
            duration_secs: 10.0,
            weights: WeightDist::Constant,
            mean_cost_secs: 0.01,
            cost: CostModel::UniformSpread,
            seed: 3,
        }
        .generate()
    }

    #[test]
    fn csv_roundtrip() {
        let w = small();
        let mut buf = Vec::new();
        write_csv(&w, &mut buf).unwrap();
        let w2 = read_csv(buf.as_slice()).unwrap();
        assert_eq!(w2.requests, w.requests);
        assert_eq!(w2.n_file_sets, w.n_file_sets);
        assert_eq!(w2.duration_us, w.duration_us);
        assert_eq!(w2.label, w.label);
    }

    #[test]
    fn csv_infers_missing_metadata() {
        let csv = "1000,0,500\n2000,3,500\n";
        let w = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(w.n_file_sets, 4);
        assert_eq!(w.requests.len(), 2);
        assert_eq!(w.duration_us, 2001);
    }

    #[test]
    fn csv_rejects_garbage() {
        let err = read_csv("not,a,number\n".as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn csv_rejects_file_set_too_large_to_count() {
        let err = read_csv("0,0,1\n1,18446744073709551615,1\n".as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("n_file_sets"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn csv_rejects_more_sets_than_the_simulator_indexes() {
        // Each once returned Ok and then aborted or panicked on allocation.
        for (csv, bad_line) in [
            ("# n_file_sets: 18446744073709551615\n0,0,1\n", 1),
            ("# n_file_sets: 4000000000000\n0,0,1\n", 1),
            ("# n_file_sets: 16777217\n0,0,1\n", 1),
            ("0,0,1\n1,3999999999999,1\n", 2),
            ("0,4294967296,1\n", 1),
            ("0,16777216,1\n", 1),
        ] {
            match read_csv(csv.as_bytes()).unwrap_err() {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, bad_line, "{csv}");
                    assert!(message.contains("2^24"), "{message}");
                }
                other => panic!("wrong error: {other}"),
            }
        }
        // The largest indexable set still reads, as does its count.
        let w = read_csv("0,16777215,1\n".as_bytes()).unwrap();
        assert_eq!(w.n_file_sets, 1 << 24);
        assert_eq!(w.requests[0].file_set(), FileSetId((1 << 24) - 1));
        let w = read_csv("# n_file_sets: 16777216\n0,0,1\n".as_bytes()).unwrap();
        assert_eq!(w.n_file_sets, 1 << 24);
    }

    #[test]
    fn csv_rejects_costs_and_sets_a_request_cannot_hold() {
        for (csv, bad_line, what, bound) in [
            ("0,0,1\n5,1,4294967296\n", 2, "cost_us 4294967296", "2^32"),
            (
                "0,0,18446744073709551615\n",
                1,
                "cost_us 18446744073709551615",
                "2^32",
            ),
            (
                "# n_file_sets: 3\n0,0,1\n1,4294967296,1\n",
                3,
                "file_set 4294967296",
                "2^24",
            ),
            (
                "# n_file_sets: 3\n0,0,1\n1,16777216,1\n",
                3,
                "file_set 16777216",
                "2^24",
            ),
        ] {
            match read_csv(csv.as_bytes()).unwrap_err() {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, bad_line, "{csv}");
                    assert!(message.contains(what), "{message}");
                    assert!(message.contains(bound), "{message}");
                }
                other => panic!("wrong error: {other}"),
            }
        }
        // The largest cost a request holds still reads.
        let w = read_csv("0,0,4294967295\n".as_bytes()).unwrap();
        assert_eq!(w.requests[0].cost(), SimDuration(u64::from(u32::MAX)));
    }

    #[test]
    fn csv_rejects_arrival_too_large_for_a_duration() {
        // An arrival a request cannot hold is refused at its line, before
        // any duration is inferred from it.
        for (csv, bad_line) in [
            ("18446744073709551615,0,1\n", 1),
            ("0,0,1\n1099511627776,0,1\n", 2),
            ("# duration_us: 5\n0,0,1\n1099511627776,0,1\n", 3),
        ] {
            match read_csv(csv.as_bytes()).unwrap_err() {
                TraceError::Parse { line, message } => {
                    assert_eq!(line, bad_line, "{csv}");
                    assert!(message.contains("not below 2^40 µs"), "{message}");
                }
                other => panic!("wrong error: {other}"),
            }
        }
        // The latest arrival a request holds still reads, and the duration
        // inferred from it is one µs later.
        let w = read_csv("0,0,1\n1099511627775,0,1\n".as_bytes()).unwrap();
        assert_eq!(w.requests[1].arrival(), SimTime((1 << 40) - 1));
        assert_eq!(w.duration_us, 1 << 40);
    }

    #[test]
    fn csv_rejects_file_set_outside_the_header_count() {
        let err = read_csv("# n_file_sets: 3\n0,7,1\n".as_bytes()).unwrap_err();
        match err {
            TraceError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("n_file_sets 3"), "{message}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn csv_missing_field() {
        let err = read_csv("123,4\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }
}
