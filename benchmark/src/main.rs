//! `bench`: the benchmark's command line.
//!
//! ```text
//! bench run [--workload W|all] [--seed S] [--seconds T] [--trace 0|1] [--out PATH] [--quick]
//! bench calibrate [--runs N] [--seed S] [--seconds T] [--out PATH]
//! bench compare A.json B.json
//! ```
//!
//! `BENCHMARK.json`'s command is `bench run`, invoked with `--workload W
//! --seed S --seconds T --trace 0|1` appended, `T` being its
//! `run_seconds`. `--seconds` sets the measured phase and defaults to
//! `run_seconds`; `--quick` shrinks the inputs and runs set-up once, for
//! the smoke test.
//!
//! `run` re-executes this binary once per workload (and once more with
//! tracing on under `--trace 1`), so the telemetry registry, the rayon
//! pool and the graphs' lazily built caches start cold and identical in
//! every run. It prints every metric as `workload metric value unit
//! (n=samples)` and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A failed check exits 1.

use domatic_benchmark::metrics::{self, Outcome, Value, END_TO_END, PER_LAYER, WORKLOADS};
use domatic_benchmark::{churn, serve, solve_mix, stats, Ctx, DEFAULT_SEED};
use domatic_telemetry::json::{self, Json};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Measured seconds per workload run, as `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Output digests of the default seed, per workload.
const DIGESTS: &str = include_str!("../digests.json");

/// Quality guards a run record carries from its untraced run, next to
/// the end-to-end metrics: `compare` fails when solve-mix's lifetime
/// ratio falls at all or a schedule fails its check.
const GUARDS: [&str; 2] = ["core.lifetime_ratio", "schedule.valid_ratio"];

fn usage() -> ! {
    eprintln!(
        "usage:\n  bench run [--workload W|all] [--seed S] [--seconds T] [--trace 0|1] [--out PATH] [--quick]\n  bench calibrate [--runs N] [--seed S] [--seconds T] [--out PATH]\n  bench compare A.json B.json\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

/// Parsed flags shared by the subcommands.
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    quick: bool,
    runs: usize,
    rest: Vec<String>,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        quick: false,
        runs: 5,
        rest: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = value(&mut i),
            "--seed" => o.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value(&mut i).parse().unwrap_or_else(|_| usage());
                if !(s.is_finite() && s > 0.0) {
                    usage()
                }
                o.seconds = s;
            }
            "--runs" => o.runs = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => o.out = Some(value(&mut i)),
            "--quick" => o.quick = true,
            "--trace" => {
                o.trace = match value(&mut i).as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            a if a.starts_with("--") => usage(),
            a => o.rest.push(a.to_string()),
        }
        i += 1;
    }
    o
}

impl Opts {
    fn workloads(&self) -> Vec<&'static str> {
        if self.workload == "all" {
            return WORKLOADS.to_vec();
        }
        match WORKLOADS.iter().find(|w| **w == self.workload) {
            Some(w) => vec![*w],
            None => usage(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let opts = parse(&args[1..]);
    let code = match cmd.as_str() {
        "run" => run(&opts),
        "child" => child(&opts),
        "calibrate" => calibrate(&opts),
        "compare" => compare(&opts),
        _ => usage(),
    };
    std::process::exit(code)
}

/// Runs one workload in this process and prints its record as JSON.
fn child(o: &Opts) -> i32 {
    let ctx = Ctx {
        seed: o.seed,
        seconds: o.seconds,
        traced: o.trace,
        quick: o.quick,
    };
    let result = match o.workload.as_str() {
        "solve-mix" => solve_mix::run(&ctx),
        "serve-hot" => serve::serve_hot(&ctx),
        "serve-solve" => serve::serve_solve(&ctx),
        "churn" => churn::run(&ctx),
        _ => usage(),
    };
    match result {
        Ok(mut out) => {
            out.put("peak_rss_mb", metrics::peak_rss_mb(), 1);
            println!("{}", out.to_json().render());
            0
        }
        Err(e) => {
            eprintln!("{}: {e}", o.workload);
            1
        }
    }
}

/// Runs `workload` in a fresh child process and reads its record.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} run failed ({})", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Outcome::from_json(&json::parse(last).map_err(|e| format!("{workload}: bad record: {e}"))?)
}

fn machine() -> (usize, &'static str) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores, std::env::consts::ARCH)
}

/// The committed digest of `workload` at the default seed.
fn committed_digest(workload: &str) -> Option<String> {
    json::parse(DIGESTS)
        .ok()?
        .get(workload)?
        .as_str()
        .map(String::from)
}

/// The tail quantile a metric name denotes, if any.
fn tail_of(name: &str) -> Option<f64> {
    if name.contains("p99") {
        Some(0.99)
    } else if name.contains("p90") {
        Some(0.9)
    } else {
        None
    }
}

fn print_metric(workload: &str, def: &metrics::Def, v: Value) {
    let thin = match tail_of(def.name) {
        Some(p) if v.n > 0 && !stats::reportable(v.n, p) => " [fewer than 10 samples beyond]",
        _ => "",
    };
    println!(
        "{workload} {} {} {} (n={}){thin}",
        def.name, v.value, def.unit, v.n
    );
}

fn run(o: &Opts) -> i32 {
    let (cores, arch) = machine();
    let seconds = o.seconds;
    eprintln!(
        "bench: seed {} · {seconds} s per phase · {cores} cores · {arch}",
        o.seed
    );
    let single = o.workloads().len() == 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut summary: BTreeMap<String, Json> = BTreeMap::new();
    let mut record: BTreeMap<String, Json> = BTreeMap::new();
    for w in o.workloads() {
        let untraced = match spawn(w, o.seed, seconds, false, o.quick) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench: {e}");
                return 1;
            }
        };
        let traced = if o.trace {
            match spawn(w, o.seed, seconds, true, o.quick) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("bench: {e}");
                    return 1;
                }
            }
        } else {
            None
        };
        let mut violations = untraced.violations.clone();
        if let Some(t) = &traced {
            violations.extend(t.violations.iter().cloned());
            if t.digest != untraced.digest {
                violations.push(format!(
                    "traced answers differ from untraced: {:?} vs {:?}",
                    t.digest, untraced.digest
                ));
            }
        }
        if o.seed == DEFAULT_SEED && !o.quick {
            let want = committed_digest(w);
            if untraced.digest.is_some() && want != untraced.digest {
                violations.push(format!(
                    "answers differ from the committed digest: {:?}, expected {want:?}",
                    untraced.digest
                ));
            }
        }
        let n_failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed);
        attempted += untraced.attempted + traced.as_ref().map_or(0, |t| t.attempted);
        failed += n_failed;
        correct &= violations.is_empty() && n_failed == 0;
        for v in &violations {
            eprintln!("bench: {w}: {v}");
        }

        let mut shown: Vec<(&metrics::Def, Value)> = END_TO_END
            .iter()
            .map(|d| (d, untraced.metrics.get(d.name).copied().unwrap_or_default()))
            .collect();
        let mut layer = Vec::new();
        if let Some(t) = &traced {
            for d in PER_LAYER {
                let v = if d.name == "telemetry.trace_overhead" {
                    let base = untraced.get("throughput_per_s");
                    let ratio = if base > 0.0 {
                        t.get("throughput_per_s") / base
                    } else {
                        0.0
                    };
                    Value { value: ratio, n: 2 }
                } else {
                    t.metrics.get(d.name).copied().unwrap_or_default()
                };
                layer.push((d, v));
            }
            for (span, s) in &t.self_ms {
                eprintln!(
                    "{w} self {span}: {:.3} ms self of {:.3} ms total over {} spans",
                    s.self_ms, s.total_ms, s.count
                );
            }
        }
        shown.extend(layer.iter().copied());
        for (d, v) in &shown {
            print_metric(w, d, *v);
        }
        // The last line carries the end-to-end metrics of an untraced
        // run, or the per-layer metrics of a traced one.
        let reported: &[(&metrics::Def, Value)] = if o.trace { &layer } else { &shown };
        for (d, v) in reported {
            let key = if single {
                d.name.to_string()
            } else {
                format!("{w}/{}", d.name)
            };
            summary.insert(
                key,
                Json::obj([
                    ("value".to_string(), Json::Num(v.value)),
                    ("unit".to_string(), Json::Str(d.unit.to_string())),
                ]),
            );
        }
        let guards: Vec<(&str, Value)> = GUARDS
            .iter()
            .filter_map(|g| Some((*g, *untraced.metrics.get(*g)?)))
            .collect();
        let mut rec = untraced;
        rec.violations = violations;
        rec.metrics = shown
            .iter()
            .map(|(d, v)| (d.name.to_string(), *v))
            .collect();
        rec.metrics
            .extend(guards.into_iter().map(|(g, v)| (g.to_string(), v)));
        if let Some(t) = traced {
            rec.self_ms = t.self_ms;
        }
        record.insert(w.to_string(), rec.to_json());
    }
    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("schema".to_string(), Json::Str("domatic-bench/1".into())),
            ("cores".to_string(), Json::Int(cores as i128)),
            ("arch".to_string(), Json::Str(arch.into())),
            ("seed".to_string(), Json::Int(o.seed as i128)),
            ("seconds".to_string(), Json::Num(seconds)),
            ("trace".to_string(), Json::Bool(o.trace)),
            ("workloads".to_string(), Json::Obj(record)),
        ]);
        if let Err(e) = write_file(path, &doc.render()) {
            eprintln!("bench: cannot write {path}: {e}");
            return 1;
        }
    }
    let last = Json::obj([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Int(attempted as i128)),
        ("failed".to_string(), Json::Int(failed as i128)),
        ("metrics".to_string(), Json::Obj(summary)),
    ]);
    println!("{}", last.render());
    i32::from(!correct)
}

fn write_file(path: &str, text: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("{text}\n"))
}

/// How much worse `b` is than `a`, as a share of `a`: positive when
/// worse, for a metric where lower (or higher) is better.
fn worse(lower: bool, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        0.0
    } else if lower {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Runs every workload in two sets of `--runs` runs, run `r` of each set
/// at seed `--seed + r`, and proposes each end-to-end metric's
/// regression bound: three times the larger of a set's spread (the
/// interquartile distance of its single runs as a share of their
/// median) and the drift between the two sets' medians, rounded up to a
/// percent. `compare` takes one-run records as well as sets of runs, so
/// the bound has to hold for a single run, not only for a set's median.
/// A proposal over 10% is flagged unresolved: the host's noise, not the
/// code, then sets how small a regression the metric can show.
fn calibrate(o: &Opts) -> i32 {
    let (cores, arch) = machine();
    let seconds = o.seconds;
    let mut runs = Vec::new();
    let mut sets: [BTreeMap<(&str, &str), Vec<f64>>; 2] = Default::default();
    for (set, values) in sets.iter_mut().enumerate() {
        for r in 0..o.runs {
            let seed = o.seed + r as u64;
            let mut per = BTreeMap::new();
            for w in o.workloads() {
                let out = match spawn(w, seed, seconds, false, o.quick) {
                    Ok(out) if out.failed == 0 && out.violations.is_empty() => out,
                    Ok(out) => {
                        eprintln!("bench: {w} seed {seed}: failed checks {:?}", out.violations);
                        return 1;
                    }
                    Err(e) => {
                        eprintln!("bench: {e}");
                        return 1;
                    }
                };
                eprintln!(
                    "bench: calibration set {} run {} of {} · {w} done",
                    set + 1,
                    r + 1,
                    o.runs
                );
                let mut m = BTreeMap::new();
                for d in END_TO_END {
                    let v = out.get(d.name);
                    values.entry((w, d.name)).or_default().push(v);
                    m.insert(d.name.to_string(), Json::Num(v));
                }
                for g in GUARDS {
                    m.insert(g.to_string(), Json::Num(out.get(g)));
                }
                per.insert(w.to_string(), Json::Obj(m));
            }
            runs.push(Json::obj([
                ("set".to_string(), Json::Int(set as i128 + 1)),
                ("seed".to_string(), Json::Int(seed as i128)),
                ("workloads".to_string(), Json::Obj(per)),
            ]));
        }
    }
    let mut summary: BTreeMap<String, Json> = BTreeMap::new();
    println!("workload metric median_a rel_iqr_a median_b rel_iqr_b drift min max proposed_bound");
    for ((w, name), a) in &sets[0] {
        let b = &sets[1][&(*w, *name)];
        let lower = END_TO_END
            .iter()
            .any(|d| d.name == *name && d.better == "lower");
        let (ma, mb) = (stats::median(a), stats::median(b));
        let (sa, sb) = (stats::rel_iqr(a), stats::rel_iqr(b));
        let drift = worse(lower, ma, mb);
        let min = a.iter().chain(b).copied().fold(f64::INFINITY, f64::min);
        let max = a.iter().chain(b).copied().fold(f64::NEG_INFINITY, f64::max);
        let bound = ((3.0 * sa.max(sb).max(drift.abs()) * 100.0).ceil() / 100.0).max(0.02);
        let note = if bound > 0.25 {
            " [over 25%: too noisy for any bound]"
        } else if bound > 0.10 {
            " [over 10%: unresolved]"
        } else {
            ""
        };
        println!("{w} {name} {ma} {sa:.4} {mb} {sb:.4} {drift:+.4} {min} {max} {bound:.2}{note}");
        let set = |v: &[f64]| {
            let (q1, med, q3) = stats::quartiles(v);
            Json::obj([
                ("median".to_string(), Json::Num(med)),
                ("q1".to_string(), Json::Num(q1)),
                ("q3".to_string(), Json::Num(q3)),
                ("rel_iqr".to_string(), Json::Num(stats::rel_iqr(v))),
            ])
        };
        let entry = summary
            .entry(w.to_string())
            .or_insert_with(|| Json::Obj(BTreeMap::new()));
        if let Json::Obj(m) = entry {
            m.insert(
                name.to_string(),
                Json::obj([
                    ("a".to_string(), set(a)),
                    ("b".to_string(), set(b)),
                    ("drift".to_string(), Json::Num(drift)),
                    ("min".to_string(), Json::Num(min)),
                    ("max".to_string(), Json::Num(max)),
                    ("proposed_bound".to_string(), Json::Num(bound)),
                ]),
            );
        }
    }
    let doc = Json::obj([
        (
            "schema".to_string(),
            Json::Str("domatic-bench-calibration/2".into()),
        ),
        ("cores".to_string(), Json::Int(cores as i128)),
        ("arch".to_string(), Json::Str(arch.into())),
        ("seconds".to_string(), Json::Num(seconds)),
        ("runs".to_string(), Json::Arr(runs)),
        ("summary".to_string(), Json::Obj(summary)),
    ]);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| "target/bench/calibration.json".into());
    if let Err(e) = write_file(&path, &doc.render()) {
        eprintln!("bench: cannot write {path}: {e}");
        return 1;
    }
    eprintln!("bench: wrote {path}");
    0
}

/// Values per `(workload, metric)` in a `run --out` record or a
/// calibration file: the end-to-end metrics, the guards and, from run
/// records, each run's `failed` count.
fn load_values(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut take = |workloads: &Json, nested: bool| {
        if let Json::Obj(ws) = workloads {
            for (w, m) in ws {
                if let Some(f) = m.get("failed").and_then(Json::as_f64) {
                    out.entry((w.clone(), "failed".into())).or_default().push(f);
                }
                let metrics = if nested { m.get("metrics") } else { Some(m) };
                if let Some(Json::Obj(ms)) = metrics {
                    for (name, v) in ms {
                        let x = if nested { v.get("value") } else { Some(v) };
                        if let Some(x) = x.and_then(Json::as_f64) {
                            out.entry((w.clone(), name.clone())).or_default().push(x);
                        }
                    }
                }
            }
        }
    };
    match (doc.get("runs"), doc.get("workloads")) {
        (Some(Json::Arr(runs)), _) => {
            for r in runs {
                if let Some(ws) = r.get("workloads") {
                    take(ws, false);
                }
            }
        }
        (_, Some(ws)) => take(ws, true),
        _ => {
            return Err(format!(
                "{path}: neither a run record nor a calibration file"
            ))
        }
    }
    Ok(out)
}

/// Applies `BENCHMARK.json`'s bounds: for every end-to-end metric on
/// every workload, B's median may be worse than A's by at most the
/// metric's bound. Quality has no slack: B fails if solve-mix's lifetime
/// ratio falls at all, if any of its schedules fails its check, or if
/// any of its runs counts a failed operation.
fn compare(o: &Opts) -> i32 {
    let [a, b] = o.rest.as_slice() else { usage() };
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench: cannot read BENCHMARK.json: {e}");
            return 2;
        }
    };
    let (va, vb) = match (load_values(a), load_values(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench: {e}");
            return 2;
        }
    };
    let Some(Json::Arr(defs)) = spec.get("end_to_end") else {
        eprintln!("bench: BENCHMARK.json lacks end_to_end");
        return 2;
    };
    let mut worse_than_bound = 0;
    let mut verdict = |ok: bool| {
        worse_than_bound += usize::from(!ok);
        if ok {
            "ok"
        } else {
            "WORSE"
        }
    };
    let key = |w: &str, m: &str| (w.to_string(), m.to_string());
    println!("workload metric median_a median_b worse bound verdict");
    for d in defs {
        let name = d.get("name").and_then(Json::as_str).unwrap_or_default();
        let lower = d.get("better").and_then(Json::as_str) == Some("lower");
        let bound = d.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        for w in WORKLOADS {
            let (Some(xa), Some(xb)) = (va.get(&key(w, name)), vb.get(&key(w, name))) else {
                continue;
            };
            let (ma, mb) = (stats::median(xa), stats::median(xb));
            let x = worse(lower, ma, mb);
            println!(
                "{w} {name} {ma} {mb} {x:+.4} {bound} {}",
                verdict(x <= bound)
            );
        }
    }
    let lifetime = key("solve-mix", GUARDS[0]);
    if let (Some(xa), Some(xb)) = (va.get(&lifetime), vb.get(&lifetime)) {
        let (ma, mb) = (stats::median(xa), stats::median(xb));
        let x = worse(false, ma, mb);
        println!(
            "solve-mix {} {ma} {mb} {x:+.4} 0 {}",
            GUARDS[0],
            verdict(mb >= ma)
        );
    }
    for ((w, name), xb) in &vb {
        let bad = match name.as_str() {
            "schedule.valid_ratio" => xb.iter().filter(|&&x| x < 1.0).count(),
            "failed" => xb.iter().filter(|&&x| x > 0.0).count(),
            _ => continue,
        };
        if bad > 0 {
            println!("{w} {name} in {bad} of B's runs {}", verdict(false));
        }
    }
    i32::from(worse_than_bound > 0)
}
