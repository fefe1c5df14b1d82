//! Host-cost benchmark of the mtmpi workspace (see README.md).
//!
//! ```text
//! <bin> --workload <name> --seed <n> --seconds <s> --trace <0|1>   driver contract
//! <bin> run    --seed <n> [--seconds <s>] [--out <file>]           every end-to-end metric
//! <bin> layers --seed <n> [--out <file>]                           the traced layer ledger
//! <bin> agree  <baseline.json> <candidate.json>                    apply the bounds
//! ```
//!
//! Every measurement runs in a child process of this one, pinned to one
//! CPU with `taskset`; this process only spawns, merges and prints.

mod metrics;
mod probes;
mod procfs;
mod runner;
mod span;
mod stats;
mod workloads;

use metrics::{agree, unit_of, Report, ResultSet, Source, Value, END_TO_END, PER_LAYER};
use mtmpi_prof::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{bfs, profile, pt2pt, serve, Workload, NAMES};

/// Seconds one `run` workload measures when `--seconds` is not given
/// (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 25.0;

type Res<T> = Result<T, String>;

/// `benchmark/`: the package directory. `cargo run` exports it; a binary
/// started by hand falls back to where it was compiled.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn out_dir() -> PathBuf {
    package_dir().join("out")
}

// ---------------------------------------------------------------- child

/// Body of a child process: `child <kind> <seed> <seconds> <traced> <cpu>`.
/// Verifies its own affinity, measures, prints one [`Report`] line.
fn child(args: &[String]) -> Res<()> {
    let [kind, seed, seconds, traced, cpu] = args else {
        return Err("child: expected <kind> <seed> <seconds> <traced> <cpu>".into());
    };
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let seconds: f64 = seconds.parse().map_err(|e| format!("seconds: {e}"))?;
    let traced = traced == "1";
    let allowed = procfs::allowed_cpus();
    if cpu != "-" {
        let want: u32 = cpu.parse().map_err(|e| format!("cpu: {e}"))?;
        if allowed != [want] {
            return Err(format!(
                "affinity did not apply: wanted cpu {want}, allowed {allowed:?} — \
                 refusing to emit unpinned numbers"
            ));
        }
    }
    fn workload<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Report {
        if traced {
            runner::traced::<W>(seed)
        } else {
            runner::end_to_end::<W>(seed, seconds)
        }
    }
    let report = match kind.as_str() {
        pt2pt::Pt2ptFigure::NAME => workload::<pt2pt::Pt2ptFigure>(seed, seconds, traced),
        profile::ProfileExport::NAME => workload::<profile::ProfileExport>(seed, seconds, traced),
        bfs::BfsCompute::NAME => workload::<bfs::BfsCompute>(seed, seconds, traced),
        serve::ServePool::NAME => workload::<serve::ServePool>(seed, seconds, traced),
        "probes" => side_report(|out| probes::all(seed, out)),
        "unpinned" => side_report(|out| probes::unpinned(seed, allowed.len() as u32, out)),
        other => return Err(format!("child: unknown kind {other:?}")),
    };
    println!("{}", report.to_json(true));
    Ok(())
}

/// A probe child's report: metrics only, one notional operation.
fn side_report(f: impl FnOnce(&mut Vec<(&'static str, f64)>)) -> Report {
    let mut values = Vec::new();
    f(&mut values);
    let mut r = Report {
        attempted: 1,
        ..Report::default()
    };
    for (name, v) in values {
        r.push(name, Value::new(v, unit_of(name)));
    }
    r
}

// --------------------------------------------------------------- parent

/// The CPU children are pinned to: the last one this process may use
/// (the first takes most interrupts).
fn pin_cpu() -> u32 {
    *procfs::allowed_cpus().last().expect("non-empty cpu list")
}

/// Spawn `child <kind> …` of this executable — under `taskset -c <cpu>`
/// when `cpu` is given — with every `MTMPI_*` variable scrubbed and its
/// cwd in `out/<kind>/`, so `Fig::finish` never writes into the repo's
/// `results/`. The child's argv carries no `--trace`/`--quick`
/// (`Fig::new` and `quick_mode()` read argv). Returns its report.
fn spawn(kind: &str, seed: u64, seconds: f64, traced: bool, cpu: Option<u32>) -> Res<Report> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cwd = out_dir().join(kind);
    std::fs::create_dir_all(&cwd).map_err(|e| format!("create {}: {e}", cwd.display()))?;
    let mut cmd = match cpu {
        Some(c) => {
            let mut t = Command::new("taskset");
            t.arg("-c").arg(c.to_string()).arg(&exe);
            t
        }
        None => Command::new(&exe),
    };
    cmd.arg("child")
        .arg(kind)
        .arg(seed.to_string())
        .arg(seconds.to_string())
        .arg(if traced { "1" } else { "0" })
        .arg(cpu.map_or("-".to_owned(), |c| c.to_string()));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MTMPI_") {
            cmd.env_remove(k);
        }
    }
    if cpu.is_some() {
        // glibc hands each short-lived simulated thread whichever malloc
        // arena is free, so peak RSS of identical work wanders by ±20 %
        // (29–41 MiB on pt2pt_figure); one arena makes it repeat to 1 %,
        // and costs nothing while one thread runs at a time. The
        // unpinned child measures multi-worker speed and keeps arenas.
        cmd.env("MALLOC_ARENA_MAX", "1");
    }
    let log = cwd.join("stderr.log");
    let stderr =
        std::fs::File::create(&log).map_err(|e| format!("create {}: {e}", log.display()))?;
    let out = cmd
        .current_dir(&cwd)
        .stdin(Stdio::null())
        .stderr(stderr)
        .output()
        .map_err(|e| match (e.kind(), cpu) {
            (std::io::ErrorKind::NotFound, Some(_)) => {
                "taskset not found: refusing to emit unpinned numbers".to_owned()
            }
            _ => format!("spawn {kind} child: {e}"),
        })?;
    let tail = || {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().rev().take(12).collect();
        lines.into_iter().rev().collect::<Vec<_>>().join("\n")
    };
    if !out.status.success() {
        return Err(format!("{kind} child: {}\n{}", out.status, tail()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{kind} child printed nothing\n{}", tail()))?;
    Json::parse(line)
        .and_then(|j| Report::from_json(&j))
        .map_err(|e| format!("{kind} child result: {e}"))
}

fn host_meta(seed: u64) -> Vec<(String, String)> {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(str::to_owned)
            })
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = procfs::status_field(&cpuinfo.replace('\t', ""), "model name")
        .unwrap_or("unknown")
        .to_owned();
    let pkg = package_dir();
    let git = first_line("git", &["-C", &pkg.to_string_lossy(), "rev-parse", "HEAD"]);
    [
        ("seed", seed.to_string()),
        ("nproc", procfs::allowed_cpus().len().to_string()),
        ("pinned_cpu", pin_cpu().to_string()),
        ("cpu_model", model),
        ("kernel", first_line("uname", &["-r"])),
        ("rustc", first_line("rustc", &["-V"])),
        ("git_commit", git),
    ]
    .map(|(k, v)| (k.to_owned(), v))
    .into()
}

/// End-to-end reports of `names`, one pinned child each.
fn measure_run(names: &[&str], seed: u64, seconds: f64) -> Res<Vec<(String, Report)>> {
    let cpu = pin_cpu();
    names
        .iter()
        .map(|w| {
            eprintln!("[benchmark] {w}: end to end, seed {seed}, {seconds} s, cpu {cpu} ...");
            Ok((w.to_string(), spawn(w, seed, seconds, false, Some(cpu))?))
        })
        .collect()
}

/// The layer ledger: one traced child per workload plus the `probes`
/// (pinned) and `unpinned` children. Column `w` of the result holds every
/// per-layer metric: those measured on `w`'s own worlds and spans, and
/// the ones other children own (the same value in every column). Also
/// merges the children's spans into `out/trace.json`.
fn measure_layers(seed: u64) -> Res<Vec<(String, Report)>> {
    let cpu = pin_cpu();
    let mut children: Vec<(String, Report)> = Vec::new();
    for kind in NAMES.iter().copied().chain(["probes"]) {
        eprintln!("[benchmark] {kind}: traced, seed {seed}, cpu {cpu} ...");
        children.push((kind.to_owned(), spawn(kind, seed, 0.0, true, Some(cpu))?));
    }
    eprintln!("[benchmark] unpinned: seed {seed}, every allowed cpu ...");
    children.push((
        "unpinned".to_owned(),
        spawn("unpinned", seed, 0.0, true, None)?,
    ));
    let of = |kind: &str, name: &str| -> Res<f64> {
        let (_, r) = children
            .iter()
            .find(|(k, _)| k == kind)
            .expect("spawned above");
        r.value(name).map_err(|e| format!("{kind} child: {e}"))
    };
    let derived = |name: &str| -> Res<f64> {
        match name {
            "host.unpinned_slowdown" => {
                Ok(of("unpinned", "host.unpinned_cell_s")? / of("probes", "host.pinned_cell_s")?)
            }
            "serve.mc_speedup" => Ok(of("unpinned", "serve.mc_tenants_per_s")?
                * of("serve_pool", "serve.us_per_tenant")?
                / 1e6),
            other => Err(format!("no derivation for {other}")),
        }
    };

    let mut events = Vec::new();
    for w in NAMES {
        let path = out_dir().join(w).join("trace.json");
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        events.extend(span::doc_events(&doc));
    }
    let merged = out_dir().join("trace.json");
    std::fs::write(&merged, span::trace_doc(&events))
        .map_err(|e| format!("{}: {e}", merged.display()))?;

    let workload_reports: Vec<&Report> = children[..NAMES.len()].iter().map(|(_, r)| r).collect();
    NAMES
        .iter()
        .map(|w| {
            let mut column = Report {
                attempted: workload_reports.iter().map(|r| r.attempted).sum(),
                failed: workload_reports.iter().map(|r| r.failed).sum(),
                metrics: Vec::new(),
            };
            for m in &PER_LAYER {
                let v = match m.source {
                    Source::Workload => of(w, m.name)?,
                    Source::Child(kind) => of(kind, m.name)?,
                    Source::Derived => derived(m.name)?,
                };
                column.push(m.name, Value::new(v, m.unit));
            }
            Ok((w.to_string(), column))
        })
        .collect()
}

// ---------------------------------------------------------- subcommands

/// `--key value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Res<Self> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or(format!("--{key} needs a value"))?;
            pairs.push((key.to_owned(), v.clone()));
        }
        Ok(Self(pairs))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<Option<T>> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} {v:?} is not a number"))
            })
            .transpose()
    }

    fn seed(&self) -> Res<u64> {
        self.num("seed")?.ok_or("--seed <u64> is required".into())
    }
}

fn write_set(set: &ResultSet, flags: &Flags) -> Res<()> {
    let path = flags.get("out").map_or_else(
        || out_dir().join(format!("{}-seed{}.json", set.kind, set.seed)),
        PathBuf::from,
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, set.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[benchmark] wrote {}", path.display());
    Ok(())
}

fn all_correct(reports: &[(String, Report)]) -> Res<()> {
    match reports
        .iter()
        .find(|(_, r)| r.failed > 0 || r.attempted == 0)
    {
        Some((w, r)) => Err(format!(
            "{w}: {} of {} ops failed their checks",
            r.failed, r.attempted
        )),
        None => Ok(()),
    }
}

/// `run`: every workload end to end; prints every metric by name.
fn cmd_run(flags: &Flags) -> Res<()> {
    let seed = flags.seed()?;
    let seconds = flags.num("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let workloads = measure_run(&NAMES, seed, seconds)?;
    println!(
        "{:<16} {:<12} {:>14} {:<6} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "value", "unit", "min", "median", "max", "n"
    );
    for (w, r) in &workloads {
        for m in &END_TO_END {
            let v = r.get(m.name).ok_or(format!("{w}: {} missing", m.name))?;
            let spread = v.spread.map_or(String::new(), |(min, median, max, n)| {
                format!("{min:>14.4} {median:>14.4} {max:>14.4} {n:>3}")
            });
            println!(
                "{w:<16} {:<12} {:>14.4} {:<6} {spread}",
                m.name, v.value, v.unit
            );
        }
        println!(
            "{w:<16} {:<12} {:>14.4} {:<6} ({} of {} ops)",
            "failed_share",
            r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
            r.failed,
            r.attempted
        );
    }
    let set = ResultSet {
        kind: "run".into(),
        seed,
        meta: host_meta(seed),
        workloads,
    };
    write_set(&set, flags)?;
    all_correct(&set.workloads)
}

/// `layers`: the traced ledger, one column per workload.
fn cmd_layers(flags: &Flags) -> Res<()> {
    let seed = flags.seed()?;
    let workloads = measure_layers(seed)?;
    print!("{:<30} {:<12} {:<6}", "metric", "unit", "better");
    for w in NAMES {
        print!(" {w:>16}");
    }
    println!();
    for m in &PER_LAYER {
        let better = if m.lower_is_better { "lower" } else { "higher" };
        print!("{:<30} {:<12} {better:<6}", m.name, m.unit);
        for (_, r) in &workloads {
            let v = r.value(m.name)?;
            if v.fract() == 0.0 {
                print!(" {v:>16}");
            } else {
                print!(" {v:>16.4}");
            }
        }
        println!();
    }
    eprintln!(
        "[benchmark] spans: {} (open in https://ui.perfetto.dev)",
        out_dir().join("trace.json").display()
    );
    let set = ResultSet {
        kind: "layers".into(),
        seed,
        meta: host_meta(seed),
        workloads,
    };
    write_set(&set, flags)?;
    all_correct(&set.workloads)
}

fn cmd_agree(args: &[String]) -> Res<()> {
    let [base, cand] = args else {
        return Err("agree: expected <baseline.json> <candidate.json>".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(Path::new(p))
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| ResultSet::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (lines, ok) = agree(&load(base)?, &load(cand)?);
    for l in &lines {
        println!("{l}");
    }
    if ok {
        println!("agree: {} comparisons hold", lines.len());
        Ok(())
    } else {
        Err("agree: the candidate is outside the benchmark's bounds".into())
    }
}

/// The driver contract: one workload, one result line with exactly
/// `correct`, `attempted`, `failed`, `metrics`.
fn cmd_contract(flags: &Flags) -> Res<()> {
    let name = flags
        .get("workload")
        .ok_or("--workload <name> is required")?;
    if !NAMES.contains(&name) {
        return Err(format!("unknown workload {name:?}; one of {NAMES:?}"));
    }
    let seed = flags.seed()?;
    let seconds = flags.num("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let report = match flags.get("trace") {
        Some("1") => measure_layers(seed)?
            .into_iter()
            .find(|(w, _)| w == name)
            .map(|(_, r)| r)
            .expect("every workload has a column"),
        Some("0") | None => measure_run(&[name], seed, seconds)?.remove(0).1,
        Some(other) => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    println!("{}", report.to_json(false));
    all_correct(&[(name.to_owned(), report)])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("run") => Flags::parse(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("layers") => Flags::parse(&args[1..]).and_then(|f| cmd_layers(&f)),
        Some("agree") => cmd_agree(&args[1..]),
        Some(a) if a.starts_with("--") => Flags::parse(&args).and_then(|f| cmd_contract(&f)),
        _ => Err(
            "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                  | run --seed <n> | layers --seed <n> | agree <a.json> <b.json>"
                .into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
