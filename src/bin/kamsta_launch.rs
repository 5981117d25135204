//! `kamsta_launch` — run a rank program on `p` real OS processes over
//! the socket transport, under a supervising parent.
//!
//! Launcher mode (no `--rendezvous`): binds a loopback rendezvous
//! listener, spawns `--pes` copies of this same binary as workers, serves
//! the rank-assignment handshake, and then **supervises**: worker stderr
//! is piped through the launcher
//! (echoed live, with the last typed error line captured), worker exits
//! are polled, and on the first failure the launcher emits a structured
//! JSON failure report on stderr —
//!
//! ```text
//! {"event":"worker-failure","pe":2,"phase":"run","exit":3,"error":"transport-error: ..."}
//! ```
//!
//! — gives surviving workers a short grace window to fail typed on
//! their own (their io deadline surfaces the dead peer), then kills the
//! stragglers so one dead worker can never stall the job to the full
//! timeout. `--relaunch N` retries the whole job up to `N` more times
//! with backoff (`{"event":"relaunch",...}` announces each attempt).
//! Exit status 0 iff some attempt's every worker exited 0.
//!
//! Worker mode (`--rendezvous ADDR --rank R`, which the launcher passes
//! to each child together with its own `--pes`, `--program`, `--seed`,
//! `--stagger-ms` and `--timeout-ms`): connect to the rendezvous, form
//! the TCP mesh via [`Machine::try_run_worker`], run the program from
//! [`kamsta::launchprog`]. Rank 0 prints the JSON digest on stdout; a
//! typed transport failure prints `transport-error: ...` on stderr and
//! exits 3. The machine settings — fault plans (`KAMSTA_FAULTS`) and the
//! handshake deadline (`KAMSTA_HANDSHAKE_TIMEOUT_MS`) among them — ride
//! the inherited environment.
//!
//! ```text
//! kamsta_launch --pes 4 --program mst --seed 7 [--stagger-ms 50] \
//!     [--timeout-ms 30000] [--relaunch 2]
//! ```
//!
//! `--stagger-ms k` makes worker `r` sleep `r*k` ms before contacting
//! the rendezvous, forcing out-of-order connects through the handshake.
//! A bad command line (an unknown program too) exits 2 before any spawn.

use kamsta::cli::{self, Flags};
use kamsta::comm::serve_rendezvous;
use kamsta::{launchprog, Machine, MachineConfig, MachineError};
use std::io::BufRead;
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::os::unix::process::ExitStatusExt;
use std::process::{exit, Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Opts {
    pes: usize,
    program: String,
    seed: u64,
    stagger_ms: u64,
    timeout_ms: u64,
    relaunch: u32,
    /// `Some` in worker mode: the launcher's rendezvous address.
    rendezvous: Option<String>,
    rank: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: kamsta_launch --pes N [--program {}] [--seed S] [--stagger-ms MS] \
         [--timeout-ms MS] [--relaunch N] [--rendezvous ADDR --rank R (worker mode)]",
        launchprog::PROGRAMS.join("|")
    )
}

fn parse_opts(flags: &Flags) -> Result<Opts, String> {
    let pes: Option<NonZeroUsize> = flags.get_opt("--pes")?;
    let program: String = flags.get("--program", "sum".into())?;
    if !launchprog::PROGRAMS.contains(&program.as_str()) {
        return Err(format!("unknown program {program:?}"));
    }
    Ok(Opts {
        pes: pes.ok_or("--pes is required")?.get(),
        program,
        seed: flags.get("--seed", 42)?,
        stagger_ms: flags.get("--stagger-ms", 0)?,
        timeout_ms: flags.get("--timeout-ms", 30_000)?,
        relaunch: flags.get("--relaunch", 0)?,
        rendezvous: flags.get_opt("--rendezvous")?,
        rank: flags.get_opt("--rank")?,
    })
}

fn worker(opts: &Opts, rendezvous: String) -> ! {
    if opts.stagger_ms > 0 {
        std::thread::sleep(Duration::from_millis(
            opts.rank.unwrap_or(0) as u64 * opts.stagger_ms,
        ));
    }
    // KAMSTA_FAULTS / KAMSTA_HANDSHAKE_TIMEOUT_MS resolve inside the
    // machine config, identically on every worker (inherited env).
    let cfg = MachineConfig::new(opts.pes)
        .with_rendezvous(rendezvous)
        .with_io_timeout(Duration::from_millis(opts.timeout_ms));
    let (program, seed) = (&opts.program, opts.seed);
    match Machine::try_run_worker(cfg, opts.rank, |comm| launchprog::run(program, comm, seed)) {
        Ok(run) => {
            if let Some(digest) = run.result {
                println!("{digest}");
            }
            exit(0)
        }
        Err(e @ MachineError::Transport { .. }) => {
            eprintln!("transport-error: {e}");
            exit(3)
        }
        Err(e) => {
            eprintln!("launch-error: {e}");
            exit(2)
        }
    }
}

/// One supervised worker: the child process, the thread forwarding its
/// stderr, and the last typed error line seen on it.
struct Supervised {
    child: Child,
    last_error: Arc<Mutex<Option<String>>>,
    forwarder: Option<std::thread::JoinHandle<()>>,
    status: Option<ExitStatus>,
    reported: bool,
}

/// Escape a string for embedding in a JSON event line.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Emit the structured failure report for one dead worker.
fn report_failure(pe: usize, phase: &str, status: ExitStatus, last_error: &Option<String>) {
    let exit_code = status
        .code()
        .map_or_else(|| "null".to_string(), |c| c.to_string());
    let error = last_error
        .as_deref()
        .map_or_else(|| "null".to_string(), |e| format!("\"{}\"", json_escape(e)));
    eprintln!(
        "{{\"event\":\"worker-failure\",\"pe\":{pe},\"phase\":\"{phase}\",\
         \"exit\":{exit_code},\"error\":{error}}}"
    );
}

fn spawn_workers(opts: &Opts, exe: &std::path::Path, addr: &str) -> Vec<Supervised> {
    (0..opts.pes)
        .map(|rank| {
            // `--program` is one of `PROGRAMS`, so no value holds a space.
            let args = format!(
                "--rendezvous {addr} --rank {rank} --pes {} --program {} --seed {} \
                 --stagger-ms {} --timeout-ms {}",
                opts.pes, opts.program, opts.seed, opts.stagger_ms, opts.timeout_ms
            );
            let mut child = Command::new(exe)
                .args(args.split(' '))
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| {
                    eprintln!("launch-error: cannot spawn worker {rank}: {e}");
                    exit(2)
                });
            let last_error = Arc::new(Mutex::new(None));
            let forwarder = child.stderr.take().map(|stderr| {
                let last_error = Arc::clone(&last_error);
                std::thread::spawn(move || {
                    let reader = std::io::BufReader::new(stderr);
                    for line in reader.lines().map_while(Result::ok) {
                        if line.starts_with("transport-error:") || line.starts_with("launch-error:")
                        {
                            *last_error.lock().unwrap() = Some(line.clone());
                        }
                        eprintln!("[pe {rank}] {line}");
                    }
                })
            });
            Supervised {
                child,
                last_error,
                forwarder,
                status: None,
                reported: false,
            }
        })
        .collect()
}

/// Kill and reap every worker still running; join the stderr forwarders.
fn teardown(workers: &mut [Supervised], phase: &str) {
    for (rank, w) in workers.iter_mut().enumerate() {
        if w.status.is_none() {
            let _ = w.child.kill();
            if let Ok(status) = w.child.wait() {
                w.status = Some(status);
            }
        }
        if let Some(status) = w.status {
            if !status.success() && !w.reported {
                w.reported = true;
                report_failure(rank, phase, status, &w.last_error.lock().unwrap());
            }
        }
        if let Some(f) = w.forwarder.take() {
            let _ = f.join();
        }
    }
}

/// Supervise the running workers until all exit (or the first failure's
/// grace window expires and the rest are killed). Returns success.
fn supervise(workers: &mut [Supervised], timeout: Duration) -> bool {
    // After the first failure, give survivors a moment to fail typed on
    // their own (their io deadline detects the dead peer; their stderr
    // explains the failure from their side) — then kill the rest. The
    // window is a fraction of the io timeout so a die mid-superstep
    // resolves in seconds, not the full deadline.
    let grace = (timeout / 2).min(Duration::from_secs(2));
    let mut first_failure: Option<Instant> = None;
    loop {
        let mut all_done = true;
        for (rank, w) in workers.iter_mut().enumerate() {
            if w.status.is_some() {
                continue;
            }
            match w.child.try_wait() {
                Ok(Some(status)) => {
                    w.status = Some(status);
                    if !status.success() {
                        w.reported = true;
                        report_failure(rank, "run", status, &w.last_error.lock().unwrap());
                        first_failure.get_or_insert_with(Instant::now);
                    }
                }
                Ok(None) => all_done = false,
                Err(e) => {
                    eprintln!("launch-error: waiting on worker {rank}: {e}");
                    w.status = Some(ExitStatus::from_raw(0x7f00));
                    first_failure.get_or_insert_with(Instant::now);
                }
            }
        }
        if all_done {
            break;
        }
        if let Some(t0) = first_failure {
            if t0.elapsed() > grace {
                eprintln!("launch-error: killing remaining workers after failure grace window");
                teardown(workers, "run");
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    teardown(workers, "run"); // reaps nothing if all exited; joins forwarders
    workers
        .iter()
        .all(|w| w.status.is_some_and(|s| s.success()))
}

/// One full job attempt: rendezvous + supervised run. Returns success.
fn run_job(opts: &Opts, exe: &std::path::Path) -> bool {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
        eprintln!("launch-error: cannot bind rendezvous listener: {e}");
        exit(2)
    });
    let addr = listener.local_addr().unwrap().to_string();
    let mut workers = spawn_workers(opts, exe, &addr);

    // Serve the handshake, aborting early if any worker dies before the
    // mesh exists (it could never complete, only time out).
    let served = serve_rendezvous(
        &listener,
        opts.pes,
        Duration::from_millis(opts.timeout_ms),
        || {
            for (rank, w) in workers.iter_mut().enumerate() {
                if let Ok(Some(status)) = w.child.try_wait() {
                    w.status = Some(status);
                    if !w.reported {
                        w.reported = true;
                        report_failure(rank, "rendezvous", status, &w.last_error.lock().unwrap());
                    }
                    return Some(format!("worker {rank} exited during rendezvous: {status}"));
                }
            }
            None
        },
    );
    if let Err(e) = served {
        eprintln!("launch-error: rendezvous failed: {e}");
        teardown(&mut workers, "rendezvous");
        return false;
    }
    supervise(&mut workers, Duration::from_millis(opts.timeout_ms))
}

fn launcher(opts: Opts) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("launch-error: cannot locate own binary: {e}");
        exit(2)
    });
    for attempt in 0..=opts.relaunch {
        if attempt > 0 {
            let backoff = Duration::from_millis(200u64 << (attempt - 1).min(4));
            eprintln!(
                "{{\"event\":\"relaunch\",\"attempt\":{attempt},\"of\":{},\
                 \"backoff_ms\":{}}}",
                opts.relaunch,
                backoff.as_millis()
            );
            std::thread::sleep(backoff);
        }
        if run_job(&opts, &exe) {
            exit(0)
        }
    }
    exit(1)
}

fn main() {
    let opts = cli::parse_or_exit(&usage(), parse_opts);
    match opts.rendezvous.clone() {
        Some(addr) => worker(&opts, addr),
        None => launcher(opts),
    }
}
