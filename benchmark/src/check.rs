//! Output checks: every schedule the benchmark receives is validated by
//! `validate_schedule` against the benchmark's own copy of the
//! instance, and every reported bound is recomputed.

use domatic_core::bounds::{fault_tolerant_upper_bound, general_upper_bound, uniform_upper_bound};
use domatic_core::solver::{make_solver, SolverConfig};
use domatic_graph::{Graph, NodeSet};
use domatic_schedule::{validate_schedule, Batteries, Schedule};
use domatic_telemetry::json::{self, Json};
use std::time::{Duration, Instant};

/// One question a serve workload asks.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Ask {
    /// `solve` on a named graph at uniform battery `b`.
    Solve {
        /// Graph name.
        graph: &'static str,
        /// Solver registry name.
        alg: &'static str,
        /// Uniform battery level.
        b: u64,
        /// Solver seed.
        seed: u64,
    },
    /// `bounds` on a named graph at uniform battery `b`.
    Bounds {
        /// Graph name.
        graph: &'static str,
        /// Uniform battery level.
        b: u64,
    },
}

impl Ask {
    /// The request line for this question under request id `id`.
    pub fn line(&self, id: u64) -> String {
        match self {
            Ask::Solve { graph, alg, b, seed } => format!(
                "{{\"id\":{id},\"op\":\"solve\",\"graph\":\"{graph}\",\"alg\":\"{alg}\",\"b\":{b},\"seed\":{seed}}}"
            ),
            Ask::Bounds { graph, b } => {
                format!("{{\"id\":{id},\"op\":\"bounds\",\"graph\":\"{graph}\",\"b\":{b}}}")
            }
        }
    }

    /// The graph the question is about.
    pub fn graph(&self) -> &'static str {
        match self {
            Ask::Solve { graph, .. } | Ask::Bounds { graph, .. } => graph,
        }
    }

    /// The uniform battery level the question uses.
    pub fn b(&self) -> u64 {
        match self {
            Ask::Solve { b, .. } | Ask::Bounds { b, .. } => *b,
        }
    }
}

/// What a checked answer established.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Checked {
    /// Whether the answer carried a schedule (`solve`) rather than
    /// bounds only.
    pub schedule: bool,
    /// The schedule's lifetime `Σ t_i` (0 for bounds).
    pub lifetime: u64,
    /// The solver's upper bound the lifetime is measured against.
    pub bound: u64,
    /// Time spent in `validate_schedule`.
    pub validate: Duration,
    /// Time spent recomputing the bound.
    pub bound_time: Duration,
}

/// Splits a success line `{"id":N,"ok":true,"result":{…}}` into its id
/// and result payload; an error line or anything else is a failure.
pub fn split_ok(line: &str) -> Result<(u64, &str), String> {
    let rest = line
        .strip_prefix("{\"id\":")
        .ok_or_else(|| format!("malformed response: {line}"))?;
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    let id: u64 = rest[..digits]
        .parse()
        .map_err(|_| format!("malformed response id: {line}"))?;
    let payload = rest[digits..]
        .strip_prefix(",\"ok\":true,\"result\":")
        .and_then(|p| p.strip_suffix('}'))
        .ok_or_else(|| format!("request {id} failed: {line}"))?;
    Ok((id, payload))
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("result lacks '{key}'"))
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| format!("result field '{key}' is not a non-negative integer"))
}

fn text<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("result field '{key}' is not a string"))
}

/// Rebuilds the `schedule` array (`[[duration, [nodes…]], …]`) over an
/// `n`-node universe, rejecting out-of-range node ids.
fn parse_schedule(v: &Json, n: usize) -> Result<Schedule, String> {
    let Json::Arr(entries) = field(v, "schedule")? else {
        return Err("result field 'schedule' is not an array".into());
    };
    let mut s = Schedule::new();
    for e in entries {
        let (duration, nodes) = match e {
            Json::Arr(pair) if pair.len() == 2 => (&pair[0], &pair[1]),
            _ => return Err("schedule entry is not [duration, nodes]".into()),
        };
        let duration = duration
            .as_int()
            .and_then(|d| u64::try_from(d).ok())
            .ok_or("schedule duration is not a non-negative integer")?;
        let Json::Arr(nodes) = nodes else {
            return Err("schedule entry's nodes are not an array".into());
        };
        let mut set = NodeSet::new(n);
        for v in nodes {
            let id = v
                .as_int()
                .and_then(|i| u32::try_from(i).ok())
                .filter(|&i| (i as usize) < n)
                .ok_or_else(|| format!("schedule names node {v:?} outside 0..{n}"))?;
            set.insert(id);
        }
        s.push(set, duration);
    }
    Ok(s)
}

/// Checks a `solve` or `bounds` result payload for `ask` against the
/// instance `(g, batteries)` the server should have answered.
pub fn check_reply(
    ask: &Ask,
    payload: &str,
    g: &Graph,
    batteries: &Batteries,
) -> Result<Checked, String> {
    let v = json::parse(payload).map_err(|e| format!("result is not JSON: {e}"))?;
    if text(&v, "graph")? != ask.graph() || uint(&v, "b")? != ask.b() {
        return Err(format!("result answers another question than {ask:?}"));
    }
    if uint(&v, "n")? != g.n() as u64 {
        return Err(format!(
            "result has n={}, graph has {}",
            uint(&v, "n")?,
            g.n()
        ));
    }
    match ask {
        Ask::Bounds { b, .. } => {
            let k = uint(&v, "k")?.max(1) as usize;
            let t = Instant::now();
            let want = [
                ("general", general_upper_bound(g, batteries)),
                ("uniform", uniform_upper_bound(g, *b)),
                ("ft", fault_tolerant_upper_bound(g, *b, k)),
            ];
            let bound_time = t.elapsed();
            for (key, expected) in want {
                if uint(&v, key)? != expected {
                    return Err(format!(
                        "bound '{key}' is {}, expected {expected}",
                        uint(&v, key)?
                    ));
                }
            }
            if uint(&v, "m")? != g.m() as u64 {
                return Err("result's edge count differs from the graph".into());
            }
            Ok(Checked {
                bound: want[0].1,
                bound_time,
                ..Checked::default()
            })
        }
        Ask::Solve { alg, seed, .. } => {
            if text(&v, "alg")? != *alg || uint(&v, "seed")? != *seed {
                return Err(format!("result answers another question than {ask:?}"));
            }
            let schedule = parse_schedule(&v, g.n())?;
            let tolerance = uint(&v, "tolerance")? as usize;
            let t = Instant::now();
            let valid = validate_schedule(g, batteries, &schedule, tolerance);
            let validate = t.elapsed();
            valid.map_err(|e| format!("invalid schedule: {e}"))?;
            let lifetime = uint(&v, "lifetime")?;
            if lifetime != schedule.lifetime() {
                return Err(format!(
                    "reported lifetime {lifetime}, schedule lasts {}",
                    schedule.lifetime()
                ));
            }
            let solver = make_solver(alg).map_err(|e| e.to_string())?;
            let cfg = SolverConfig::new().k(uint(&v, "k")? as usize);
            let t = Instant::now();
            let bound = solver.upper_bound(g, batteries, &cfg);
            let bound_time = t.elapsed();
            if uint(&v, "bound")? != bound || lifetime > bound {
                return Err(format!(
                    "bound {} reported, {bound} recomputed, lifetime {lifetime}",
                    uint(&v, "bound")?
                ));
            }
            Ok(Checked {
                schedule: true,
                lifetime,
                bound,
                validate,
                bound_time,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::fixture::{ring, Fixture};

    #[test]
    fn a_corrupted_schedule_counts_as_failed() {
        let g = ring(24);
        let fx = Fixture::start(
            vec![("ring".to_string(), g.clone())],
            domatic_server::ServerConfig::default(),
        )
        .unwrap();
        let mut client = Client::connect(fx.addr(), 1).unwrap();
        let ask = Ask::Solve {
            graph: "ring",
            alg: "greedy",
            b: 3,
            seed: 0,
        };
        let line = client.rpc(0, 1, &ask.line(1)).unwrap().line;
        drop(client);
        fx.stop().unwrap();

        let batteries = Batteries::uniform(24, 3);
        let (id, payload) = split_ok(&line).unwrap();
        assert_eq!(id, 1);
        let ok = check_reply(&ask, payload, &g, &batteries).unwrap();
        assert!(ok.schedule && ok.lifetime > 0 && ok.lifetime <= ok.bound);

        // Stretch the first step past every battery.
        let stretched = payload.replacen("\"schedule\":[[", "\"schedule\":[[9", 1);
        assert!(check_reply(&ask, &stretched, &g, &batteries).is_err());
        // Empty the first set: it no longer dominates.
        let start = payload.find("\"schedule\":[[").unwrap() + 13;
        let open = payload[start..].find(",[").unwrap() + start + 2;
        let close = payload[open..].find(']').unwrap() + open;
        let emptied = format!("{}{}", &payload[..open], &payload[close..]);
        assert!(check_reply(&ask, &emptied, &g, &batteries).is_err());
        // An error line never passes.
        assert!(
            split_ok("{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"x\",\"message\":\"y\"}}")
                .is_err()
        );
        // Answering a different question is a failure too.
        let other = Ask::Solve {
            graph: "ring",
            alg: "greedy",
            b: 3,
            seed: 1,
        };
        assert!(check_reply(&other, payload, &g, &batteries).is_err());
    }
}
