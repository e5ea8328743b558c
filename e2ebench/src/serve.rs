//! The `family_serve` workload: an in-process `ServeEngine` with two pool
//! workers serving the pinned 254-member family corpus.
//!
//! Each pass submits `{"op":"submit","family":"all"}` to an engine over an
//! empty `DiskStore` (the write phase), drops it, and then replays the same
//! request against fresh engines over the same store (the replay phase).
//! The families carry their own seeds, so the benchmark seed does not
//! change this workload.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nncps::barrier::SessionStats;
use nncps::scenarios::json::Json;
use nncps::scenarios::{builtin_families, BatchReport, ServeEngine, ServeOptions};

use crate::report::{Metrics, Tally};
use crate::spans::Tracer;
use crate::stats::{median, samples_beyond, MemberTimes};
use crate::Args;

/// Pool workers of the served engine.
const WORKERS: usize = 2;
/// Replays after each traced write phase; `store.replay_s` is their
/// median.  Other passes replay once, to check the replayed report.
const TRACED_REPLAYS: usize = 10;
/// The tail percentile of member times (254 members leave 12 beyond it).
const TAIL_PERCENT: f64 = 95.0;

/// What the client saw of one submit request.
#[derive(Debug, Default)]
struct Phase {
    /// When the request was sent.
    sent: Option<Instant>,
    /// Seconds from sending the request to receiving `done`.
    wall: f64,
    /// Seconds from sending the request to the first event.
    first_event: f64,
    /// Seconds from sending the request to the last `member` event.
    last_member: f64,
    /// Bytes of every response line, newline included.
    event_bytes: usize,
    /// Per member event: the member's index, seconds since the request at
    /// the event, and the member's reported build + verify time.
    members: Vec<(usize, f64, f64)>,
    /// The deterministic report of the `done` event.
    report: Option<String>,
    /// The timing-bearing report of the `done` event.
    report_timed: Option<String>,
    /// Protocol-level problems: crashes, `error` events, wrong verdicts.
    problems: Vec<String>,
    /// Engine counters after the request.
    stats: SessionStats,
}

fn request_line(args: &Args) -> String {
    let family = if args.quick { "linear-ci-grid" } else { "all" };
    format!("{{\"op\":\"submit\",\"family\":\"{family}\"}}")
}

/// Set-up: the family catalogue, its expansion, and an engine over an
/// empty store at `root`.  Returns the engine and the member count.
fn setup(args: &Args, root: &Path) -> Result<(ServeEngine, usize), String> {
    let _ = std::fs::remove_dir_all(root);
    let families = builtin_families();
    let mut members = 0;
    for family in families
        .iter()
        .filter(|f| !args.quick || f.name() == "linear-ci-grid")
    {
        members += family.expand().map_err(|e| e.to_string())?.len();
    }
    Ok((open_engine(families, root)?, members))
}

fn open_engine(families: Vec<nncps::Family>, root: &Path) -> Result<ServeEngine, String> {
    ServeEngine::new(
        families,
        &ServeOptions {
            threads: WORKERS,
            store: Some(root.to_path_buf()),
        },
    )
}

/// Sends one request line and collects what comes back.
fn submit(engine: &ServeEngine, line: &str) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        sent: Some(start),
        ..Phase::default()
    };
    engine.handle_line(line, &mut |reply| {
        let at = start.elapsed().as_secs_f64();
        if phase.event_bytes == 0 {
            phase.first_event = at;
        }
        phase.event_bytes += reply.len() + 1;
        let Ok(event) = Json::parse(reply) else {
            phase.problems.push(format!("unparseable event: {reply}"));
            return;
        };
        let text = |key| {
            event
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        match event.get("event").and_then(Json::as_str) {
            Some("member") => {
                phase.last_member = at;
                let number = |key| event.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                phase
                    .members
                    .push((number("index") as usize, at, number("wall_time_s")));
                if event.get("matches_expected") != Some(&Json::Bool(true)) {
                    phase.problems.push(format!(
                        "member `{}` has unexpected verdict {}",
                        text("name"),
                        text("verdict")
                    ));
                }
            }
            Some("done") => {
                // The request ends when `done` arrives, before the client
                // parses the reports it carries.
                phase.wall = at;
                phase.report = event
                    .get("report")
                    .and_then(Json::as_str)
                    .map(str::to_string);
                phase.report_timed = event
                    .get("report_timed")
                    .and_then(Json::as_str)
                    .map(str::to_string);
            }
            Some("crash") => phase.problems.push(format!(
                "member `{}` crashed: {}",
                text("name"),
                text("payload")
            )),
            _ => phase.problems.push(format!("unexpected event: {reply}")),
        }
    });
    if phase.report.is_none() {
        phase.wall = start.elapsed().as_secs_f64();
    }
    phase.stats = engine.cache().session().stats();
    phase
}

/// Checks one phase: every member answered with its expected verdict, the
/// family counts hold, and the report equals `reference` byte for byte.
fn check(phase: &Phase, members: usize, reference: Option<&str>, what: &str, tally: &mut Tally) {
    for problem in &phase.problems {
        tally.fail(format!("{what}: {problem}"));
    }
    let answered = phase.members.len();
    for _ in 0..members {
        tally.attempt([]);
    }
    if answered != members {
        tally.fail(format!(
            "{what}: {answered} member events for {members} members"
        ));
    }
    let Some(report) = phase.report.as_deref() else {
        tally.fail(format!("{what}: no `done` report"));
        return;
    };
    match BatchReport::from_json(report) {
        Ok(parsed) => {
            if let Err(findings) = parsed.check_family_counts() {
                for finding in findings {
                    tally.fail(format!("{what}: {finding}"));
                }
            }
        }
        Err(e) => tally.fail(format!("{what}: unreadable report: {e}")),
    }
    if reference.is_some_and(|r| r != report) {
        tally.fail(format!("{what}: report differs from the first write phase"));
    }
}

/// Number and total size of the files under `root`.
fn walk(root: &Path) -> (usize, u64) {
    let mut files = 0;
    let mut bytes = 0;
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(entry.path()),
                Ok(meta) => {
                    files += 1;
                    bytes += meta.len();
                }
                Err(_) => {}
            }
        }
    }
    (files, bytes)
}

/// One pass: write phase over an empty store, then replays over it.
struct Pass {
    write: Phase,
    replays: Vec<Phase>,
    setup_s: f64,
    store_files: usize,
    store_bytes: u64,
}

fn pass(args: &Args, root: &Path, replays: usize) -> Result<(Pass, usize), String> {
    let start = Instant::now();
    let (engine, members) = setup(args, root)?;
    let setup_s = start.elapsed().as_secs_f64();
    let line = request_line(args);
    let write = submit(&engine, &line);
    drop(engine);
    let (store_files, store_bytes) = walk(root);
    let mut phases = Vec::with_capacity(replays);
    for _ in 0..replays {
        let engine = open_engine(builtin_families(), root)?;
        phases.push(submit(&engine, &line));
    }
    std::fs::remove_dir_all(root).map_err(|e| format!("cannot remove {}: {e}", root.display()))?;
    Ok((
        Pass {
            write,
            replays: phases,
            setup_s,
            store_files,
            store_bytes,
        },
        members,
    ))
}

/// Checks a pass against the first write-phase report of the run.
fn check_pass(pass: &Pass, members: usize, first: &mut Option<String>, tally: &mut Tally) {
    check(&pass.write, members, first.as_deref(), "write", tally);
    if first.is_none() {
        first.clone_from(&pass.write.report);
    }
    for replay in &pass.replays {
        check(
            replay,
            members,
            pass.write.report.as_deref(),
            "replay",
            tally,
        );
    }
}

fn store_root(args: &Args) -> PathBuf {
    args.work_dir
        .join(format!("serve-store-{}", std::process::id()))
}

/// The end-to-end run (`--trace 0`).
pub fn run(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let root = store_root(args);
    let mut setup_times = Vec::new();
    let start = Instant::now();
    let mut first = None;
    let mut throughput = Vec::new();
    let mut member_times = MemberTimes::default();
    while throughput.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (pass, members) = pass(args, &root, 1)?;
        check_pass(&pass, members, &mut first, tally);
        throughput.push(members as f64 / pass.write.wall);
        for &(index, _, seconds) in &pass.write.members {
            member_times.push(index, seconds);
        }
        setup_times.push(pass.setup_s);
        // More set-ups between passes, so that their median spans the run.
        for _ in 1..crate::setup_reps(args) {
            let start = Instant::now();
            let (engine, _) = setup(args, &root)?;
            setup_times.push(start.elapsed().as_secs_f64());
            drop(engine);
        }
    }
    println!(
        "family_serve: {} write phases; verdict_s_tail = p{TAIL_PERCENT} of {} member times ({} beyond)",
        throughput.len(),
        member_times.count(),
        samples_beyond(member_times.count(), TAIL_PERCENT)
    );
    let mut metrics = Metrics::default();
    metrics.push("verdicts_per_s", median(&throughput), "1/s");
    metrics.push("verdict_s_p50", member_times.p50(), "s");
    metrics.push("verdict_s_tail", member_times.percentile(TAIL_PERCENT), "s");
    metrics.push("setup_s", median(&setup_times), "s");
    Ok(metrics)
}

/// The traced run (`--trace 1`): passes alternate between untraced and
/// traced write phases; the traced ones record a span per request, one per
/// `member` event (it ends when the event arrives and lasts the member's
/// reported time) and an instant for `done`.
pub fn run_traced(args: &Args, tally: &mut Tally) -> Result<(Metrics, Tracer), String> {
    let root = store_root(args);
    let mut tracer = Tracer::new();
    let mut first = None;
    let mut untraced = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut build_s = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let tracing = untraced.len() > traced.len();
        let replays = if tracing && !args.quick {
            TRACED_REPLAYS
        } else {
            1
        };
        let (mut pass, members) = pass(args, &root, replays)?;
        check_pass(&pass, members, &mut first, tally);
        // Keep only the timed report's build times: a pass's reports take
        // about 1 MB each and would inflate `mem.peak_rss_mb`.
        build_s.push(build_seconds(&pass.write));
        for phase in std::iter::once(&mut pass.write).chain(&mut pass.replays) {
            phase.report = None;
            phase.report_timed = None;
        }
        if !tracing {
            untraced.push(pass.write.wall);
            continue;
        }
        let sent = tracer.seconds_at(
            pass.write
                .sent
                .expect("a submitted request has a send time"),
        );
        let request = tracer.record("request", traced.len(), None, sent, sent + pass.write.wall);
        for &(_, at, seconds) in &pass.write.members {
            let end = sent + at;
            tracer.record(
                "pool.member",
                traced.len(),
                Some(request),
                end - seconds,
                end,
            );
        }
        let done = sent + pass.write.wall;
        tracer.record("serve.done", traced.len(), Some(request), done, done);
        traced.push(pass);
    }

    let mut member_times = MemberTimes::default();
    for &(index, _, seconds) in traced.iter().flat_map(|p| &p.write.members) {
        member_times.push(index, seconds);
    }
    let busy: Vec<f64> = traced
        .iter()
        .map(|p| {
            p.write.members.iter().map(|&(_, _, s)| s).sum::<f64>()
                / (WORKERS as f64 * p.write.wall)
        })
        .collect();
    let last = traced.last().expect("at least one traced pass");
    let members = last.write.members.len().max(1) as f64;
    let (layers, request_total) = tracer.layer_self_times("request");
    let traced_wall = median(&traced.iter().map(|p| p.write.wall).collect::<Vec<_>>());

    let mut m = Metrics::default();
    m.push("build.busy_s", median(&build_s), "s");
    let warm = last.write.stats.warm;
    for (names, hits, misses) in [
        (
            [
                "cache.formula_hits",
                "cache.formula_lookups",
                "cache.formula_hit_ratio",
            ],
            warm.formula_hits,
            warm.formula_misses,
        ),
        (
            [
                "cache.trace_hits",
                "cache.trace_lookups",
                "cache.trace_hit_ratio",
            ],
            warm.trace_hits,
            warm.trace_misses,
        ),
        (
            [
                "cache.candidate_hits",
                "cache.candidate_lookups",
                "cache.candidate_hit_ratio",
            ],
            warm.candidate_hits,
            warm.candidate_misses,
        ),
    ] {
        let lookups = hits + misses;
        m.push(names[0], hits as f64, "count");
        m.push(names[1], lookups as f64, "count");
        m.push(names[2], hits as f64 / lookups.max(1) as f64, "frac");
    }
    m.push("pool.member_s_p50", member_times.p50(), "s");
    m.push(
        "pool.member_s_tail",
        member_times.percentile(TAIL_PERCENT),
        "s",
    );
    m.push("pool.busy_frac", median(&busy), "frac");
    m.push("store.entries_written", last.store_files as f64, "count");
    m.push("store.bytes_written", last.store_bytes as f64, "bytes");
    let replay_hits = last
        .replays
        .first()
        .map_or(0, |r| r.stats.disk_outcome_hits);
    m.push(
        "store.replay_hit_ratio",
        replay_hits as f64 / members,
        "frac",
    );
    let replay_s: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.replays.iter().map(|r| r.wall))
        .collect();
    m.push("store.replay_s", median(&replay_s), "s");
    let median_of =
        |f: fn(&Phase) -> f64| median(&traced.iter().map(|p| f(&p.write)).collect::<Vec<_>>());
    m.push("serve.first_event_s", median_of(|p| p.first_event), "s");
    m.push(
        "serve.report_tail_s",
        median_of(|p| p.wall - p.last_member),
        "s",
    );
    m.push(
        "serve.event_bytes",
        median_of(|p| p.event_bytes as f64),
        "bytes",
    );
    m.push(
        "trace.overhead_frac",
        traced_wall / median(&untraced) - 1.0,
        "frac",
    );
    m.push(
        "trace.unaccounted_frac",
        layers["request"] / request_total,
        "frac",
    );
    Ok((m, tracer))
}

/// Σ of the members' `build_time_s` in the timing-bearing report.
fn build_seconds(phase: &Phase) -> f64 {
    let Some(Ok(report)) = phase.report_timed.as_deref().map(BatchReport::from_json) else {
        return 0.0;
    };
    report.results.iter().map(|r| r.build_time_s).sum()
}
