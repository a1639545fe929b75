//! End-to-end serving tests: each spawns the real `domatic serve` binary
//! on ephemeral ports and drives it over TCP, or over stdio, its default
//! transport.
//!
//! - `top` and `profile` run as subprocesses against a live traced
//!   server — the acceptance path for the tracing, exposition, and
//!   profiling surface.
//! - A synthetic request mix, and the same mix at 100 and 1,000
//!   connections, must hit pinned response digests closed-loop and
//!   pipelined, traced and plain, at 1 shard and at 4. Piped through
//!   stdio, the mix must hit the same digest.
//! - Four seeded churn campaigns replay `mutate`/`solve` sequences and
//!   must hit pinned per-campaign digests at 1 shard and at 4.
//!
//! The server inherits `RAYON_NUM_THREADS`, and every run must hit the
//! same constant, so running the suite at 1 and at 4 threads pins
//! responses byte-identical across thread counts, shard counts, arrival
//! shapes and tracing.

use domatic_telemetry::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_domatic");

/// The graphs behind the synthetic mix.
const MIX_GRAPHS: [&str; 2] = ["main=ring:24", "er=gnp:40,6.0,1"];

/// The 50-request mix over 8 connections.
const MIX_DIGEST: &str = "94fb2aa4446a252d";

/// Connection scaling: (connections, requests, digest) of the mix.
const SCALE_DIGESTS: [(usize, usize, &str); 2] = [
    (100, 1000, "dcae86ebbcfae08b"),
    (1000, 2000, "a02175e5e0f0cbf0"),
];

/// The graphs the churn campaigns mutate.
const CAMPAIGN_GRAPHS: [&str; 4] = [
    "crash=gnp:32,5.0,7",
    "flap=ring:24",
    "recharge=ring:18",
    "dense=dense:12,3",
];

/// Each campaign's (name, requests, receipt-order digest).
const CAMPAIGN_DIGESTS: [(&str, usize, &str); 4] = [
    ("crash-wave", 13, "054b0e3d100506b3"),
    ("link-flap", 13, "e935814e6d2b7310"),
    ("battery-recharge", 13, "c53b13cdb54f8223"),
    ("dense-growth", 7, "804c3c12bd05f83d"),
];

struct ServerProc {
    child: Child,
    addr: String,
    /// Empty unless the server was started traced.
    metrics_addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl ServerProc {
    /// One request on a fresh connection; returns the parsed response.
    fn call(&self, request: &str) -> Json {
        let line = Conn::open(&self.addr).call(request);
        domatic_telemetry::json::parse(&line)
            .unwrap_or_else(|e| panic!("invalid response {line}: {e}"))
    }

    /// Asks the server to drain and requires a clean exit.
    fn shutdown(mut self) {
        self.call("{\"id\":1,\"op\":\"shutdown\"}");
        let status = self.child.wait().expect("wait for domatic serve");
        assert!(status.success(), "serve exited with {status}");
    }
}

/// Starts `domatic serve --shards <shards>` with the `name=spec` graphs
/// on an ephemeral port and reads the announced addresses off its
/// stdout. `traced` names an access log and turns on the whole
/// observability surface: the log, a metrics port, and slow-request
/// dumps.
fn start_server(graphs: &[&str], shards: usize, traced: Option<&Path>) -> ServerProc {
    let mut cmd = Command::new(BIN);
    cmd.args(["serve", "--port", "0", "--shards", &shards.to_string()])
        .args(graphs.iter().flat_map(|g| ["--graph", g]));
    if let Some(log) = traced {
        cmd.args(["--metrics-port", "0", "--slow-ms", "10000", "--access-log"])
            .arg(log);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn domatic serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr = String::new();
    let mut metrics_addr = String::new();
    // `metrics on` is printed first, so `listening on` is the last line.
    let deadline = Instant::now() + Duration::from_secs(30);
    while addr.is_empty() && Instant::now() < deadline {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(a) = line.trim().strip_prefix("listening on ") {
            addr = a.to_string();
        }
        if let Some(a) = line.trim().strip_prefix("metrics on ") {
            metrics_addr = a.to_string();
        }
    }
    assert!(!addr.is_empty(), "server did not announce its address");
    assert_eq!(
        !metrics_addr.is_empty(),
        traced.is_some(),
        "a metrics address is announced exactly when traced"
    );
    ServerProc {
        child,
        addr,
        metrics_addr,
    }
}

/// One blocking JSON-lines connection with Nagle off: strictly
/// request/response traffic would otherwise wait ~40 ms on the server's
/// delayed ACK.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream =
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"));
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        // A stuck server fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    /// Writes one request line in a single write.
    fn send(&mut self, request: &str) {
        self.stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("write request");
    }

    /// Reads one response line, without its line ending.
    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed the connection");
        line.trim_end().to_string()
    }

    fn call(&mut self, request: &str) -> String {
        self.send(request);
        self.recv()
    }
}

/// The canonical hash of response lines, in the order given.
fn digest(lines: &[String]) -> String {
    let mut hasher = domatic::core::hash::CanonicalHasher::new();
    for line in lines {
        hasher.write_str(line);
    }
    format!("{:016x}", hasher.finish())
}

/// The synthetic workload: a mixed solve/bounds trace with
/// deliberate key duplicates (seeds cycle mod 3) so batching and caching
/// have something to coalesce. Deterministic in (`n`, `graphs`, `seed`).
fn synthetic_trace(n: usize, graphs: &[String], seed: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let graph = &graphs[i % graphs.len()];
            let id = i + 1;
            if i % 4 == 0 {
                format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"{graph}\",\"b\":3}}")
            } else {
                let alg = if i % 2 == 0 { "greedy" } else { "uniform" };
                format!(
                    "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"{graph}\",\"alg\":\"{alg}\",\"b\":3,\"seed\":{}}}",
                    seed + (i % 3) as u64
                )
            }
        })
        .collect()
}

/// The mix over [`MIX_GRAPHS`] at seed 0.
fn mix_trace(n: usize) -> Vec<String> {
    synthetic_trace(n, &["main".to_string(), "er".to_string()], 0)
}

/// Replays `trace` from one thread over `clients` connections, request
/// `k` on connection `k % clients`, and returns the error-response count
/// and the [`digest`] of the sorted responses, which no arrival order
/// can change. Closed loop keeps one request in flight per connection;
/// pipelined writes every request before reading any response.
fn replay(addr: &str, trace: &[String], clients: usize, pipelined: bool) -> (usize, String) {
    let mut conns: Vec<Conn> = (0..clients)
        .map(|c| {
            if c % 64 == 63 {
                // Pace the connect storm so the accept loop keeps up.
                std::thread::sleep(Duration::from_millis(1));
            }
            Conn::open(addr)
        })
        .collect();
    let mut responses = Vec::with_capacity(trace.len());
    if pipelined {
        for (k, request) in trace.iter().enumerate() {
            conns[k % clients].send(request);
        }
        for k in 0..trace.len() {
            responses.push(conns[k % clients].recv());
        }
    } else {
        for round in trace.chunks(clients) {
            for (conn, request) in conns.iter_mut().zip(round) {
                conn.send(request);
            }
            for conn in &mut conns[..round.len()] {
                responses.push(conn.recv());
            }
        }
    }
    let errors = responses
        .iter()
        .filter(|r| r.contains("\"ok\":false"))
        .count();
    responses.sort_unstable();
    (errors, digest(&responses))
}

/// The body of one HTTP scrape of the `--metrics-port` listener.
fn scrape(metrics_addr: &str) -> String {
    let mut scrape = TcpStream::connect(metrics_addr).expect("connect metrics");
    write!(scrape, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    BufReader::new(scrape)
        .read_to_string(&mut response)
        .unwrap();
    response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a body")
        .1
        .to_string()
}

/// Checks every sample line of a text exposition against the format's
/// line grammar — a metric name in `[A-Za-z_:][A-Za-z0-9_:]*`, an
/// optional `{…}` label block, one numeric value — without the parser
/// under test. Returns each sample's name and value.
fn exposition_samples(body: &str) -> Vec<(String, f64)> {
    let name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    body.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, rest) = line.split_at(line.find(|c| !name_char(c)).unwrap_or(line.len()));
            let rest = match rest.strip_prefix('{') {
                Some(labels) => labels.split_once('}').map_or("", |(_, rest)| rest),
                None => rest,
            };
            let value = rest
                .strip_prefix(' ')
                .filter(|v| !v.is_empty() && !v.contains(char::is_whitespace))
                .and_then(|v| v.parse::<f64>().ok());
            match value {
                Some(value) if name.starts_with(|c: char| !c.is_ascii_digit()) => {
                    (name.to_string(), value)
                }
                _ => panic!("malformed exposition line: {line:?}"),
            }
        })
        .collect()
}

/// Checks an access log: every line is valid JSON, and `t_us` never
/// regresses within a trace. Returns the number of timed events.
fn access_log_events(path: &Path) -> usize {
    let log = std::fs::read_to_string(path).expect("access log written");
    let mut last: std::collections::HashMap<i128, i128> = std::collections::HashMap::new();
    let mut events = 0;
    for line in log.lines() {
        let v = domatic_telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("invalid access-log line {line}: {e}"));
        let (Some(trace), Some(t_us)) = (
            v.get("trace").and_then(|t| t.as_int()),
            v.get("t_us").and_then(|t| t.as_int()),
        ) else {
            continue; // slow_request dumps carry events instead of t_us
        };
        let prev = last.insert(trace, t_us).unwrap_or(0);
        assert!(t_us >= prev, "timestamps regress in trace {trace}: {line}");
        events += 1;
    }
    events
}

fn drive_traffic(addr: &str, n: u64) {
    let mut conn = Conn::open(addr);
    for i in 0..n {
        let line = if i % 3 == 0 {
            format!("{{\"id\":{i},\"op\":\"bounds\",\"graph\":\"main\",\"b\":3}}")
        } else {
            format!(
                "{{\"id\":{i},\"op\":\"solve\",\"graph\":\"main\",\"alg\":\"greedy\",\"b\":3,\"seed\":{}}}",
                i % 2
            )
        };
        let resp = conn.call(&line);
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
}

#[test]
fn top_and_profile_run_against_a_live_server() {
    let dir = std::env::temp_dir().join(format!("domatic-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let server = start_server(&["main=ring:24"], 1, Some(&log_path));
    drive_traffic(&server.addr, 12);

    // `domatic top` completes a bounded number of refresh frames.
    let top = Command::new(BIN)
        .args([
            "top",
            "--addr",
            &server.addr,
            "--interval-ms",
            "150",
            "--iterations",
            "2",
            "--no-clear",
        ])
        .output()
        .expect("run domatic top");
    assert!(top.status.success(), "top failed: {top:?}");
    let out = String::from_utf8_lossy(&top.stdout);
    assert!(out.contains("collecting first window"), "{out}");
    assert!(out.contains("req/s"), "{out}");
    assert!(out.contains("p99_us"), "{out}");

    // `domatic profile` emits collapsed-stack lines for the traffic.
    let profile = Command::new(BIN)
        .args(["profile", "--addr", &server.addr])
        .output()
        .expect("run domatic profile");
    assert!(profile.status.success(), "profile failed: {profile:?}");
    let stacks = String::from_utf8_lossy(&profile.stdout);
    assert!(
        stacks.lines().any(|l| {
            l.starts_with("serve;solve;main;greedy;")
                && l.split(' ')
                    .nth(1)
                    .is_some_and(|v| v.parse::<u64>().is_ok())
        }),
        "expected solve frames in:\n{stacks}"
    );
    // `bounds` runs no solver: its frames skip the `alg` level instead
    // of naming the parser's default solver or leaving an empty frame.
    assert!(
        stacks
            .lines()
            .any(|l| l.starts_with("serve;bounds;main;queue_wait ")),
        "expected bounds frames in:\n{stacks}"
    );
    assert!(
        !stacks.contains(";;") && !stacks.contains("serve;bounds;main;uniform"),
        "bounds frames must not carry an alg:\n{stacks}"
    );

    // The HTTP scrape endpoint serves exposition that the telemetry
    // parser reads back with the required series.
    let body = scrape(&server.metrics_addr);
    let samples = domatic_telemetry::prometheus::parse(&body).expect("exposition parses");
    assert!(samples
        .iter()
        .any(|s| s.name == "server_requests_total" && s.value >= 12.0));
    assert!(samples
        .iter()
        .any(|s| s.name == "server_request_latency_us_bucket" && s.label("op") == Some("solve")));

    // The access log holds valid JSON lines with per-trace monotone
    // timestamps.
    assert!(
        access_log_events(&log_path) > 0,
        "access log captured events"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn synthetic_mix_serves_one_digest_traced_or_plain() {
    let dir = std::env::temp_dir().join(format!("domatic-mix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = mix_trace(50);
    for shards in [1, 4] {
        for traced in [false, true] {
            let log_path = dir.join(format!("access-{shards}.jsonl"));
            let server = start_server(&MIX_GRAPHS, shards, traced.then_some(log_path.as_path()));
            let run = format!("shards={shards} traced={traced}");
            for pipelined in [false, true] {
                let (errors, got) = replay(&server.addr, &trace, 8, pipelined);
                assert_eq!(errors, 0, "{run} pipelined={pipelined}: error responses");
                assert_eq!(got, MIX_DIGEST, "{run} pipelined={pipelined}");
            }
            let sent = 2 * trace.len();

            if traced {
                // The scrape follows every response, so the request
                // counter must have counted each one.
                let samples = exposition_samples(&scrape(&server.metrics_addr));
                let value = |name: &str| samples.iter().find(|(n, _)| n == name).map(|s| s.1);
                assert_eq!(value("server_requests_total"), Some(sent as f64), "{run}");
                for required in ["server_request_latency_us_bucket", "runtime_cache_bytes"] {
                    assert!(
                        value(required).is_some(),
                        "{run}: missing series {required}"
                    );
                }
            }

            // The trace asks 7 distinct keys (1 bounds, 3 greedy seeds,
            // 3 uniform seeds); single-flight batching solves each once,
            // the default cache evicts none, and the rest are hits.
            let stats = server.call("{\"id\":1,\"op\":\"stats\"}");
            let stat = |k: &str| stats.get("result").and_then(|r| r.get(k)?.as_int());
            assert_eq!(stat("errors"), Some(0), "{run}: {stats:?}");
            assert_eq!(stat("solves"), Some(7), "{run}: {stats:?}");
            assert!(
                stat("cache_hits").is_some_and(|h| h > 0),
                "{run}: {stats:?}"
            );
            server.shutdown();

            if traced {
                let events = access_log_events(&log_path);
                assert!(events >= sent, "{run}: {events} access-log events");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stdio_transport_serves_the_mix_digest() {
    let mut child = Command::new(BIN)
        .arg("serve")
        .args(MIX_GRAPHS.iter().flat_map(|g| ["--graph", g]))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn domatic serve");
    let mut input: String = mix_trace(50).iter().map(|r| format!("{r}\n")).collect();
    input.push_str("{\"id\":51,\"op\":\"shutdown\"}\n");
    // A few KiB fit the pipe buffer, so the whole trace is written
    // before any response is read; dropping stdin closes it.
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(input.as_bytes())
        .expect("write trace");
    let out = child.wait_with_output().expect("wait for domatic serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "serve exited with {}: {stderr}",
        out.status
    );
    // Stdio answers in completion order; drop the shutdown reply and
    // sort, as `replay` does.
    let mut responses: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8 responses")
        .lines()
        .filter(|line| !line.contains("\"draining\":true"))
        .map(str::to_string)
        .collect();
    assert_eq!(responses.len(), 50, "{responses:?}");
    let errors = responses.iter().filter(|r| r.contains("\"ok\":false"));
    assert_eq!(errors.count(), 0, "{responses:?}");
    assert!(stderr.contains(" 7 solves,"), "{stderr}");
    responses.sort_unstable();
    assert_eq!(digest(&responses), MIX_DIGEST);
}

#[test]
fn connection_scaling_keeps_the_digest_at_100_and_1000_connections() {
    // One socket per connection, plus headroom for the rest of the
    // process: an inherited 1024-fd soft limit is too low.
    let want = 2 * SCALE_DIGESTS.iter().map(|s| s.0).max().unwrap() as u64;
    let limit = mio::sys::raise_nofile_limit(want).expect("raise RLIMIT_NOFILE");
    assert!(limit >= want, "RLIMIT_NOFILE stays at {limit}, need {want}");
    for shards in [1, 4] {
        let server = start_server(&MIX_GRAPHS, shards, None);
        for (clients, requests, want_digest) in SCALE_DIGESTS {
            let trace = mix_trace(requests);
            for pipelined in [false, true] {
                let run = format!("shards={shards} clients={clients} pipelined={pipelined}");
                let (errors, got) = replay(&server.addr, &trace, clients, pipelined);
                assert_eq!(errors, 0, "{run}: error responses");
                assert_eq!(got, want_digest, "{run}");
            }
        }
        server.shutdown();
    }
}

/// One connection with one monotone id counter: strictly
/// request/response, so the bytes a campaign observes are independent
/// of the server's shard count.
struct ScenarioClient {
    conn: Conn,
    next_id: u64,
}

impl ScenarioClient {
    /// Sends `{"id":<next>,<body>}` and returns the response line and
    /// the round-trip micros.
    fn rpc(&mut self, body: &str) -> (String, u64) {
        self.next_id += 1;
        let start = Instant::now();
        let line = self
            .conn
            .call(&format!("{{\"id\":{},{body}}}", self.next_id));
        (line, start.elapsed().as_micros() as u64)
    }
}

/// Accumulator for one campaign: receipt-order response lines (the
/// digest input), latencies, and every envelope violation the campaign
/// noticed, error responses included.
struct ScenarioRun {
    name: &'static str,
    lines: Vec<String>,
    latencies_us: Vec<u64>,
    violations: Vec<String>,
}

impl ScenarioRun {
    fn new(name: &'static str) -> ScenarioRun {
        ScenarioRun {
            name,
            lines: Vec::new(),
            latencies_us: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// The `result` object's text inside a response line, if the line
    /// is an `ok` response. Byte-exact slicing (no re-render) so two
    /// results compare equal iff the server sent identical payloads.
    fn result_slice(line: &str) -> Option<&str> {
        let idx = line.find("\"result\":")?;
        line.get(idx + "\"result\":".len()..line.len() - 1)
    }

    /// One round trip through `client`, recording the line, the
    /// latency, and whether the server said ok. Returns the response
    /// line on success, `None` (and records a violation) otherwise.
    fn call(&mut self, client: &mut ScenarioClient, body: &str) -> Option<String> {
        let (line, us) = client.rpc(body);
        self.latencies_us.push(us);
        self.lines.push(line.clone());
        let ok = domatic_telemetry::json::parse(&line)
            .ok()
            .and_then(|v| v.get("ok").cloned())
            .is_some_and(|b| matches!(b, Json::Bool(true)));
        if ok {
            Some(line)
        } else {
            self.violations
                .push(format!("{}: error response: {line}", self.name));
            None
        }
    }

    /// A `mutate` round trip; returns the parsed result object.
    fn mutate(&mut self, client: &mut ScenarioClient, body: &str) -> Option<Json> {
        let line = self.call(client, body)?;
        domatic_telemetry::json::parse(&line)
            .ok()
            .and_then(|v| v.get("result").cloned())
    }

    /// A greedy `solve` round trip at seed 0; enforces the lifetime
    /// envelope and returns the byte-exact result slice.
    fn solve(&mut self, client: &mut ScenarioClient, graph: &str) -> Option<String> {
        let body = format!(
            "\"op\":\"solve\",\"graph\":\"{graph}\",\"alg\":\"greedy\",\"b\":3,\"k\":1,\"seed\":0"
        );
        let line = self.call(client, &body)?;
        let lifetime = domatic_telemetry::json::parse(&line).ok().and_then(|v| {
            v.get("result")
                .and_then(|r| r.get("lifetime"))
                .and_then(|l| l.as_int())
        });
        match lifetime {
            Some(l) if l >= 1 => {}
            other => self.violations.push(format!(
                "{}: solve lifetime envelope violated (lifetime {other:?} < 1): {line}",
                self.name
            )),
        }
        Self::result_slice(&line).map(str::to_string)
    }
}

/// Rounds per campaign.
const ROUNDS: u64 = 3;

/// A tiny deterministic index mixer for node/edge picks — NOT meant to
/// be a good PRNG, just a platform-stable spreading function
/// (splitmix-style multiply-xor).
fn scenario_pick(round: u64, salt: u64, modulus: u64) -> u64 {
    let mut x = round
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 27;
    x % modulus
}

/// Crash waves: batches of `remove_node` against the Erdős–Rényi
/// `crash` graph, with `bounds` + `solve` probes after every wave. The
/// node ids shift down on each removal (the protocol compacts), so the
/// picks below are against the *current* population.
fn scenario_crash_wave(client: &mut ScenarioClient) -> ScenarioRun {
    let mut run = ScenarioRun::new("crash-wave");
    let mut n: u64 = 32;
    run.solve(client, "crash");
    for wave in 0..ROUNDS {
        for j in 0..2u64 {
            let node = scenario_pick(wave, j, n);
            run.mutate(
                client,
                &format!("\"op\":\"mutate\",\"graph\":\"crash\",\"action\":\"remove_node\",\"node\":{node}"),
            );
            n -= 1;
        }
        run.call(
            client,
            "\"op\":\"bounds\",\"graph\":\"crash\",\"b\":3,\"k\":1",
        );
        run.solve(client, "crash");
    }
    run
}

/// Link flap: remove an edge of the `flap` ring, re-solve, add it back,
/// re-solve — and require the post-re-add solve to be byte-identical to
/// the pre-flap baseline. The re-added graph has the same content hash
/// as the original, so this exercises the cache's tombstone *revive*
/// path end to end.
fn scenario_link_flap(client: &mut ScenarioClient) -> ScenarioRun {
    let mut run = ScenarioRun::new("link-flap");
    let baseline = run.solve(client, "flap");
    for flip in 0..ROUNDS {
        let u = scenario_pick(flip, 1, 24);
        let v = (u + 1) % 24;
        run.mutate(
            client,
            &format!("\"op\":\"mutate\",\"graph\":\"flap\",\"action\":\"remove_edge\",\"u\":{u},\"v\":{v}"),
        );
        run.solve(client, "flap");
        run.mutate(
            client,
            &format!(
                "\"op\":\"mutate\",\"graph\":\"flap\",\"action\":\"add_edge\",\"u\":{u},\"v\":{v}"
            ),
        );
        let restored = run.solve(client, "flap");
        if restored != baseline {
            run.violations.push(format!(
                "link-flap: re-added edge ({u},{v}) did not restore the baseline solve bytes"
            ));
        }
    }
    run
}

/// Battery recharge: drain one node to 1 unit, re-solve under the
/// non-uniform overlay, recharge it past the default, re-solve. Uses
/// `greedy` throughout — the closed-form `uniform` solver rightly
/// refuses non-uniform batteries.
fn scenario_battery_recharge(client: &mut ScenarioClient) -> ScenarioRun {
    let mut run = ScenarioRun::new("battery-recharge");
    run.solve(client, "recharge");
    for cycle in 0..ROUNDS {
        let node = scenario_pick(cycle, 2, 18);
        run.mutate(
            client,
            &format!("\"op\":\"mutate\",\"graph\":\"recharge\",\"action\":\"set_battery\",\"node\":{node},\"value\":1"),
        );
        run.solve(client, "recharge");
        run.mutate(
            client,
            &format!("\"op\":\"mutate\",\"graph\":\"recharge\",\"action\":\"set_battery\",\"node\":{node},\"value\":4"),
        );
        run.solve(client, "recharge");
    }
    run
}

/// Dense-linear growth: the adversarial banded topology from the paper's
/// lower-bound family, grown one node at a time (`add_node` wired to its
/// three predecessors). Checks the mutate result's `n` climbs by exactly
/// one per step.
fn scenario_dense_growth(client: &mut ScenarioClient) -> ScenarioRun {
    let mut run = ScenarioRun::new("dense-growth");
    let mut n: u64 = 12;
    run.solve(client, "dense");
    for _ in 0..ROUNDS {
        let result = run.mutate(
            client,
            &format!(
                "\"op\":\"mutate\",\"graph\":\"dense\",\"action\":\"add_node\",\"neighbors\":[{},{},{}]",
                n - 1,
                n - 2,
                n - 3
            ),
        );
        n += 1;
        let got = result
            .as_ref()
            .and_then(|r| r.get("n"))
            .and_then(|v| v.as_int());
        if got != Some(n as i128) {
            run.violations.push(format!(
                "dense-growth: add_node reported n {got:?}, expected {n}"
            ));
        }
        run.solve(client, "dense");
    }
    run
}

#[test]
fn scenario_campaigns_reproduce_the_committed_digests_without_stalling() {
    for shards in [1, 4] {
        let server = start_server(&CAMPAIGN_GRAPHS, shards, None);
        let mut client = ScenarioClient {
            conn: Conn::open(&server.addr),
            next_id: 0,
        };
        let runs = [
            scenario_crash_wave(&mut client),
            scenario_link_flap(&mut client),
            scenario_battery_recharge(&mut client),
            scenario_dense_growth(&mut client),
        ];
        drop(client);
        for (run, (name, requests, want_digest)) in runs.into_iter().zip(CAMPAIGN_DIGESTS) {
            assert_eq!(run.name, name);
            assert!(
                run.violations.is_empty(),
                "shards={shards}: {:#?}",
                run.violations
            );
            assert_eq!(run.lines.len(), requests, "shards={shards} {name}");
            assert_eq!(digest(&run.lines), want_digest, "shards={shards} {name}");
            // A round trip waiting on a delayed ACK takes ~40 ms; a
            // served request here takes a few.
            let mut latencies = run.latencies_us;
            latencies.sort_unstable();
            let p50 = latencies[(latencies.len() - 1) / 2];
            assert!(p50 < 20_000, "shards={shards} {name}: p50 {p50} us");
        }
        server.shutdown();
    }
}
