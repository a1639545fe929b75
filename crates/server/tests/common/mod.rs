//! Helpers shared by the server integration tests. Each test binary
//! uses its own subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use domatic_graph::Graph;
use domatic_server::server::ResponseSink;
use domatic_server::{Server, ServerConfig};
use domatic_telemetry::json;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The CI smoke topology: a ring with skip-3 chords, solvable at b ≥ 1.
pub fn ring_graph(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + 3) % n)])
        .collect();
    Graph::from_edges(n as usize, &edges)
}

/// A server with `ring` (24 nodes) and `ring2` (30 nodes) registered.
pub fn make_server(cfg: ServerConfig) -> Arc<Server> {
    let server = Server::new(cfg);
    server.add_graph("ring", ring_graph(24));
    server.add_graph("ring2", ring_graph(30));
    Arc::new(server)
}

/// An in-memory response sink and the buffer behind it.
pub fn sink() -> (Arc<Mutex<Vec<u8>>>, ResponseSink) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let dyn_sink: ResponseSink = buf.clone();
    (buf, dyn_sink)
}

/// The lines written to `buf` so far.
pub fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<String> {
    let bytes = buf.lock().unwrap();
    String::from_utf8(bytes.clone())
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// Polls until `n` response lines have arrived (jobs are asynchronous).
pub fn wait_lines(buf: &Arc<Mutex<Vec<u8>>>, n: usize) -> Vec<String> {
    let start = Instant::now();
    loop {
        let have = lines(buf);
        if have.len() >= n {
            return have;
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "timed out at {} of {n} responses: {have:?}",
            have.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The rendered `result` payload of a response line (panics on errors).
pub fn result_of(line: &str) -> String {
    let prefix = line
        .find("\"result\":")
        .unwrap_or_else(|| panic!("not an ok response: {line}"));
    line[prefix + "\"result\":".len()..line.len() - 1].to_string()
}

pub fn id_of(line: &str) -> u64 {
    let v = json::parse(line).unwrap();
    u64::try_from(v.get("id").unwrap().as_int().unwrap()).unwrap()
}

pub fn error_kind(line: &str) -> String {
    let v = json::parse(line).unwrap();
    assert_eq!(v.get("ok"), Some(&json::Json::Bool(false)), "{line}");
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap()
        .to_string()
}

/// A `Write` adapter over a shared byte buffer, used as an access-log
/// sink.
pub struct SharedLog(pub Arc<Mutex<Vec<u8>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
