//! What a sim-path crate may reach: no clock, no hash-ordered collection,
//! no process entropy, no file, socket, process, environment or thread,
//! and only the workspace crates along its allowed edges.
//!
//! The std bans are `ci/sim-path-clippy.toml`, which each sim-path
//! crate's `clippy.toml` links; the crate edges are each sim-path crate's
//! `[dependencies]` table, which Cargo enforces and the tests here pin.

#[cfg(feature = "entropy_alias")]
pub mod entropy_alias;
#[cfg(feature = "grouped_import")]
pub mod grouped_import;
#[cfg(feature = "hash_map")]
pub mod hash_map;
#[cfg(feature = "import_alias")]
pub mod import_alias;
#[cfg(feature = "import_crate")]
pub mod import_crate;
#[cfg(feature = "std_surfaces")]
pub mod std_surfaces;
#[cfg(feature = "thread_rng")]
pub mod thread_rng;
#[cfg(feature = "wall_clock")]
pub mod wall_clock;

#[cfg(test)]
mod tests {
    use crate::deps::dependencies;
    use crate::tests::{crate_dirs, read, rejects};

    /// Each sim-path crate's directory under `crates/` and the workspace
    /// crates its library may depend on. Adding an edge here is a reviewed
    /// decision, not a side effect of editing a manifest.
    const ALLOWED_DEPS: [(&str, &[&str]); 7] = [
        ("core", &[]),
        ("des", &[]),
        // The analytic oracle is pure arithmetic over plain f64 inputs; it
        // may read core types but never the simulator it predicts.
        ("analytic", &["anu-core"]),
        ("trace", &["anu-core", "anu-des"]),
        // Deliberately no `anu-des` edge: metrics aggregate state but can
        // never schedule calendar events, by construction.
        ("metrics", &["anu-core", "anu-trace"]),
        (
            "cluster",
            &[
                "anu-core",
                "anu-des",
                "anu-trace",
                "anu-metrics",
                "anu-workload",
            ],
        ),
        (
            "policies",
            &["anu-core", "anu-des", "anu-workload", "anu-cluster"],
        ),
    ];

    /// The dependencies in `manifest` outside the allowed edges of the
    /// sim-path crate in `crates/{dir}`.
    fn edges_outside<'m>(dir: &str, manifest: &'m str) -> Vec<&'m str> {
        let (_, allowed) = ALLOWED_DEPS
            .iter()
            .find(|(d, _)| *d == dir)
            .unwrap_or_else(|| panic!("{dir} is not a sim-path crate"));
        dependencies(manifest)
            .into_iter()
            .filter(|dep| !allowed.contains(dep))
            .collect()
    }

    #[test]
    fn aliased_std_time_is_caught() {
        rejects("imports/import_alias")
            .flags("use std::time::Instant as Clock;")
            .flags("let _t = Clock::now();");
    }

    #[test]
    fn entropy_types_caught_through_alias() {
        rejects("imports/entropy_alias")
            .flags("let _plain = Plain::new();")
            .flags("Seeded::new().hash_one(1_u32)")
            .says("use of a disallowed type `std::hash::DefaultHasher`");
    }

    #[test]
    fn forbidden_std_surfaces() {
        let gate = rejects("imports/std_surfaces");
        for call in [
            "let _file = std::fs::read_to_string(",
            "let _home = std::env::var(",
            "let _socket = std::net::TcpStream::connect(",
            "let _child = std::process::Command::new(",
            "let _worker = std::thread::spawn(",
            "let _listing = Path::new(\".\").read_dir(",
            "let _stat = Path::new(\".\").metadata(",
            "let _present = Path::new(\".\").exists(",
        ] {
            gate.flags(call);
        }
        gate.accepts("Path::new(\"a\").join(\"b\")");
    }

    #[test]
    fn grouped_imports_check_each_leaf() {
        rejects("imports/grouped_import")
            .flags("use std::{collections::HashSet, time::SystemTime};")
            .says("use of a disallowed type `std::time::SystemTime`");
    }

    #[test]
    fn duration_alone_is_allowed() {
        rejects("imports/wall_clock")
            .accepts("pub fn timeout() -> std::time::Duration")
            .accepts("std::time::Duration::from_millis(250)");
    }

    #[test]
    fn harness_import_from_sim_path_fails() {
        rejects("imports/import_crate").flags("use anu_harness::runner::Sweep;");
    }

    #[test]
    fn non_sim_crates_are_out_of_scope() {
        // Exactly the sim-path crates, and the lint cases, apply the bans,
        // and all of them apply the one list.
        let bans = read("ci/sim-path-clippy.toml");
        assert_eq!(read("ci/lint-cases/clippy.toml"), bans);
        for dir in crate_dirs() {
            let sim_path = ALLOWED_DEPS.iter().any(|(d, _)| *d == dir);
            let config = format!("crates/{dir}/clippy.toml");
            if sim_path {
                assert_eq!(read(&config), bans, "{config} must be the sim-path list");
            } else {
                assert!(
                    !crate::tests::exists(&config),
                    "{config}: anu-{dir} is not on the sim path"
                );
            }
        }
    }

    #[test]
    fn allowed_matrix_edges_pass() {
        for (dir, allowed) in ALLOWED_DEPS {
            let manifest = read(&format!("crates/{dir}/Cargo.toml"));
            assert_eq!(
                edges_outside(dir, &manifest),
                [] as [&str; 0],
                "anu-{dir} depends outside its allowed edges {allowed:?}"
            );
        }
        // The parser sees the edges that exist, so the check above is not
        // vacuous.
        assert_eq!(
            dependencies(&read("crates/policies/Cargo.toml")),
            ["anu-core", "anu-des", "anu-workload", "anu-cluster"]
        );
    }

    #[test]
    fn matrix_respects_direction() {
        // An allowed edge is refused the other way round, so no two
        // sim-path crates can come to depend on each other.
        for (dir, allowed) in ALLOWED_DEPS {
            for dep in allowed.iter().filter_map(|dep| dep.strip_prefix("anu-")) {
                let reverse = format!("[dependencies]\nanu-{dir}.workspace = true\n");
                if ALLOWED_DEPS.iter().any(|(d, _)| *d == dep) {
                    assert_eq!(edges_outside(dep, &reverse), [format!("anu-{dir}")]);
                }
            }
        }
        let cluster = "[dependencies]\nanu-des.workspace = true\nanu-policies.workspace = true\n";
        assert_eq!(edges_outside("cluster", cluster), ["anu-policies"]);
    }

    #[test]
    fn metrics_may_aggregate_but_never_schedule() {
        let manifest = read("crates/metrics/Cargo.toml");
        assert!(
            dependencies(&manifest).contains(&"anu-trace"),
            "metrics reads trace types"
        );
        assert!(!dependencies(&manifest).contains(&"anu-des"));
        let scheduling = "[dependencies]\nanu-core.workspace = true\nanu-des.workspace = true\n";
        assert_eq!(edges_outside("metrics", scheduling), ["anu-des"]);
    }
}
