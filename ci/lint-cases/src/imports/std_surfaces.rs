//! Fails with: use of a disallowed method `std::fs::read_to_string`
//!
//! Beside the rejected calls: joining two paths, which builds a path in
//! memory and touches no file.

use std::path::Path;

/// Reaches files, the environment, the network, child processes and
/// threads.
pub fn ambient() {
    let _file = std::fs::read_to_string("config");
    let _home = std::env::var("HOME");
    let _socket = std::net::TcpStream::connect("localhost:1");
    let _child = std::process::Command::new("true");
    let _worker = std::thread::spawn(|| ());
}

/// Reads the file system through `Path` instead of `std::fs`.
pub fn through_path() {
    let _listing = Path::new(".").read_dir();
    let _stat = Path::new(".").metadata();
    let _present = Path::new(".").exists();
}

/// Builds a path without touching the file system.
pub fn joined() -> std::path::PathBuf {
    Path::new("a").join("b")
}
