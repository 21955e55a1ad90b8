//! Reading `Cargo.lock` and crate manifests for the dependency checks.
//!
//! No package in `Cargo.lock` may carry a `source`: every package is a
//! workspace member, so draws, hashes and layouts are pinned by this
//! repository alone, and no entropy or wall-clock crate (`rand`'s
//! `thread_rng`, `OsRng`, `getrandom`) can slip in. The crate edges are
//! read from manifests, not from the lockfile, whose per-package lists
//! also hold dev-dependencies (cluster's tests run the policies); see
//! `imports`.

/// The packages in a lockfile that come from outside the workspace: those
/// with a `source` line, from a registry or a git repository alike.
pub(crate) fn external_packages(lock: &str) -> Vec<&str> {
    let mut name = "";
    let mut external = Vec::new();
    for line in lock.lines() {
        if let Some(quoted) = line.strip_prefix("name = ") {
            name = quoted.trim_matches('"');
        } else if line.starts_with("source = ") {
            external.push(name);
        }
    }
    external
}

/// The package names in a manifest's `[dependencies]` table.
pub(crate) fn dependencies(manifest: &str) -> Vec<&str> {
    let mut in_table = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[dependencies]";
        } else if in_table && !line.is_empty() && !line.starts_with('#') {
            names.extend(line.split(['.', '=', ' ']).next());
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::{dependencies, external_packages};
    use crate::tests::read;

    #[test]
    fn workspace_only_lockfile_passes() {
        let lock = read("Cargo.lock");
        assert!(lock.contains("name = \"anu-core\""), "not a lockfile");
        assert_eq!(
            external_packages(&lock),
            [] as [&str; 0],
            "Cargo.lock names packages from outside the workspace"
        );
    }

    #[test]
    fn external_package_is_reported() {
        let lock = "[[package]]\nname = \"anu-core\"\nversion = \"0.1.0\"\n\n\
                    [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\
                    source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        assert_eq!(external_packages(lock), ["rand"]);
    }

    #[test]
    fn git_source_is_also_external() {
        let lock = "[[package]]\nname = \"getrandom\"\nversion = \"0.2.0\"\n\
                    source = \"git+https://example.com/getrandom#0123abcd\"\n";
        assert_eq!(external_packages(lock), ["getrandom"]);
    }

    #[test]
    fn dependency_lists_do_not_confuse_the_parser() {
        // A package's dependency list names other packages, quoted and
        // indented; only a package's own `source` line makes it external.
        let lock = "[[package]]\nname = \"anu-cluster\"\nversion = \"0.1.0\"\n\
                    dependencies = [\n \"anu-core\",\n \"rand\",\n]\n";
        assert_eq!(external_packages(lock), [] as [&str; 0]);
        // Dotted and inline-table entries both count, comments do not, and
        // the table ends where the next one starts.
        let manifest = "[package]\nname = \"anu-x\"\n\n[dependencies]\n\
                        # the core types\nanu-core.workspace = true\n\
                        anu-des = { path = \"../des\" }\n\n\
                        [dev-dependencies]\nanu-policies.workspace = true\n";
        assert_eq!(dependencies(manifest), ["anu-core", "anu-des"]);
    }
}
