//! End-to-end observability test: spawns the real `domatic serve` binary
//! with `--access-log` + `--metrics-port`, drives mixed traffic over
//! TCP, then runs `domatic top` and `domatic profile` as subprocesses
//! against the live server — the acceptance path for the tracing,
//! exposition, and profiling surface. A second test replays the
//! `domatic scenario` churn campaigns against the same kind of server.

use domatic_telemetry::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_domatic");

struct ServerProc {
    child: Child,
    addr: String,
    metrics_addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `domatic serve` with the `name=spec` graphs on ephemeral ports
/// and reads both announced addresses off its stdout.
fn start_server(access_log: &std::path::Path, graphs: &[&str]) -> ServerProc {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--port",
            "0",
            "--metrics-port",
            "0",
            "--batch-window-ms",
            "0",
        ])
        .args(graphs.iter().flat_map(|g| ["--graph", g]))
        .arg("--access-log")
        .arg(access_log)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn domatic serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr = String::new();
    let mut metrics_addr = String::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while (addr.is_empty() || metrics_addr.is_empty()) && Instant::now() < deadline {
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
    assert!(
        !addr.is_empty() && !metrics_addr.is_empty(),
        "server did not announce its addresses"
    );
    ServerProc {
        child,
        addr,
        metrics_addr,
    }
}

fn drive_traffic(addr: &str, n: u64) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for i in 0..n {
        let line = if i % 3 == 0 {
            format!("{{\"id\":{i},\"op\":\"bounds\",\"graph\":\"main\",\"b\":3}}")
        } else {
            format!(
                "{{\"id\":{i},\"op\":\"solve\",\"graph\":\"main\",\"alg\":\"greedy\",\"b\":3,\"seed\":{}}}",
                i % 2
            )
        };
        writeln!(stream, "{line}").expect("write");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("read");
        assert!(resp.contains("\"ok\":true"), "{resp}");
    }
}

#[test]
fn top_and_profile_run_against_a_live_server() {
    let dir = std::env::temp_dir().join(format!("domatic-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.jsonl");
    let server = start_server(&log_path, &["main=ring:24"]);
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

    // The HTTP scrape endpoint serves parseable exposition with the
    // required series.
    let mut scrape = TcpStream::connect(&server.metrics_addr).expect("connect metrics");
    write!(scrape, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    BufReader::new(scrape)
        .read_to_string(&mut response)
        .unwrap();
    let body = response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a body")
        .1;
    let samples = domatic_telemetry::prometheus::parse(body).expect("exposition parses");
    assert!(samples
        .iter()
        .any(|s| s.name == "server_requests_total" && s.value >= 12.0));
    assert!(samples
        .iter()
        .any(|s| s.name == "server_request_latency_us_bucket" && s.label("op") == Some("solve")));

    // The access log holds valid JSON lines with per-trace monotone
    // timestamps.
    let log = std::fs::read_to_string(&log_path).expect("access log written");
    assert!(!log.trim().is_empty(), "access log captured events");
    let mut last: std::collections::HashMap<i128, i128> = std::collections::HashMap::new();
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
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `rows` of a `BENCH_scenarios.json` document.
fn scenario_rows(doc: &str) -> Vec<Json> {
    let doc = domatic_telemetry::json::parse(doc).expect("scenario JSON parses");
    match doc.get("rows") {
        Some(Json::Arr(rows)) => rows.clone(),
        other => panic!("no rows array: {other:?}"),
    }
}

#[test]
fn scenario_campaigns_reproduce_the_committed_digests_without_stalling() {
    let dir = std::env::temp_dir().join(format!("domatic-scenario-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The four campaign graphs, as in the CI scenario-matrix job.
    let server = start_server(
        &dir.join("access.jsonl"),
        &[
            "crash=gnp:32,5.0,7",
            "flap=ring:24",
            "recharge=ring:18",
            "dense=dense:12,3",
        ],
    );
    let out = dir.join("scenarios.json");
    let run = Command::new(BIN)
        .args(["scenario", "--addr", &server.addr, "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("run domatic scenario");
    assert!(run.status.success(), "scenario failed: {run:?}");

    let committed = scenario_rows(include_str!("../BENCH_scenarios.json"));
    let fresh = scenario_rows(&std::fs::read_to_string(&out).expect("scenario output"));
    assert_eq!(fresh.len(), committed.len());
    for (row, want) in fresh.iter().zip(&committed) {
        let name = row.get("name").and_then(Json::as_str).expect("row name");
        assert_eq!(Some(name), want.get("name").and_then(Json::as_str));
        assert_eq!(row.get("digest"), want.get("digest"), "{name}");
        assert_eq!(row.get("requests"), want.get("requests"), "{name}");
        // A round trip waiting on a delayed ACK takes ~40 ms; a served
        // request here takes a few.
        let p50 = row.get("p50_us").and_then(Json::as_int).expect("p50_us");
        assert!(p50 < 20_000, "{name}: p50 {p50} us");
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
