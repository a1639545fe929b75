//! An in-process `Server` on a loopback port, and the graph loading
//! every serve workload shares.

use crate::spans::Spans;
use domatic_graph::io::{parse_edge_list, to_edge_list};
use domatic_graph::Graph;
use domatic_server::{Server, ServerConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A running server and the thread serving it.
pub struct Fixture {
    addr: SocketAddr,
    server: Arc<Server>,
    thread: JoinHandle<io::Result<()>>,
}

impl Fixture {
    /// Registers `graphs` and serves them on an ephemeral loopback port.
    pub fn start(graphs: Vec<(String, Graph)>, cfg: ServerConfig) -> io::Result<Fixture> {
        let server = Arc::new(Server::new(cfg));
        for (name, g) in graphs {
            server.add_graph(name, g);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve_tcp(listener));
        Ok(Fixture {
            addr,
            server,
            thread,
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server, for its `stats` counters.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Asks the server to shut down and joins its thread, which returns
    /// only after every shard thread has been joined.
    pub fn stop(self) -> io::Result<()> {
        let mut s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n")?;
        let mut line = String::new();
        BufReader::new(&s).read_line(&mut line)?;
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Loads a generated graph the way a user loads a file: render it to
/// the edge-list text format and parse it back, timing the parse as a
/// `graph.parse` span. Returns the parsed graph.
pub fn load(g: &Graph, spans: &mut Spans) -> Result<Graph, String> {
    let text = to_edge_list(g);
    let t = Instant::now();
    let parsed = parse_edge_list(&text).map_err(|e| format!("edge list does not parse: {e}"))?;
    spans.add("graph.parse", None, 0, t, Instant::now());
    Ok(parsed)
}

/// Seed of every generated graph. Graphs stay the same from run to
/// run; a run's seed changes what is asked of them: solver seeds,
/// request keys, mutations. The work a solver does follows its graph's
/// bottleneck (the node with the least energy in its closed
/// neighbourhood) and its tie-breaks, so a fresh draw, or even a
/// relabeling, of the same kind of graph moves a solve's time by up to
/// a quarter, which would swamp the changes the benchmark is there to
/// see.
pub const STRUCTURE_SEED: u64 = 2005;

/// The `ring:N` topology of the serving tier's CI smoke runs: a cycle
/// with skip-3 chords.
pub fn ring(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + 3) % n)])
        .collect();
    Graph::from_edges(n as usize, &edges)
}
