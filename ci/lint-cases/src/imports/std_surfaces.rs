//! Fails with: use of a disallowed method `std::fs::read_to_string`

/// Reaches files, the environment, the network, child processes and
/// threads.
pub fn ambient() {
    let _file = std::fs::read_to_string("config");
    let _home = std::env::var("HOME");
    let _socket = std::net::TcpStream::connect("localhost:1");
    let _child = std::process::Command::new("true");
    let _worker = std::thread::spawn(|| ());
}
