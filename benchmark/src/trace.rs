//! Spans recorded by the benchmark around its calls into each layer.
//! PE closures hand their `Instant` pairs back with their result; the
//! harness thread files them here after the machine has returned, so
//! nothing is locked or written while anything is timed. The file is
//! written once, when the run ends.

use crate::json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Window = (Instant, Instant);

pub fn secs(w: Window) -> f64 {
    w.1.duration_since(w.0).as_secs_f64()
}

/// Run `f` and say when it started and ended.
pub fn timed<R>(f: impl FnOnce() -> R) -> (Window, R) {
    let t0 = Instant::now();
    let r = f();
    ((t0, Instant::now()), r)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// PE rank, or `None` for a span on the harness thread.
    pub rank: Option<usize>,
    /// Timed op (rep or round) the span belongs to.
    pub rep: usize,
    pub window: Window,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// File a span; returns its id for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        rank: Option<usize>,
        rep: usize,
        window: Window,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            rank,
            rep,
            window,
            parent,
        });
        self.spans.len() - 1
    }

    /// A span's duration minus the part of it its children cover on the
    /// busiest rank (children of different ranks run side by side).
    pub fn self_time(&self, id: usize) -> f64 {
        let mut per_rank: Vec<(Option<usize>, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(id)) {
            match per_rank.iter_mut().find(|(r, _)| *r == s.rank) {
                Some((_, t)) => *t += secs(s.window),
                None => per_rank.push((s.rank, secs(s.window))),
            }
        }
        let covered = per_rank.iter().map(|(_, t)| *t).fold(0.0, f64::max);
        secs(self.spans[id].window) - covered
    }

    /// Where trace files go: `out/` beside the crate's manifest.
    pub fn path_for(workload: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.jsonl"))
    }

    /// One JSON object per line: id, name, rank, rep, start and end in
    /// seconds since the trace began, parent id.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |x: Option<usize>| x.map_or(Value::Null, |v| Value::Num(v as f64));
        for (id, s) in self.spans.iter().enumerate() {
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(id as f64)),
                ("name".into(), Value::Str(s.name.into())),
                ("rank".into(), opt(s.rank)),
                ("rep".into(), Value::Num(s.rep as f64)),
                (
                    "start".into(),
                    Value::Num(s.window.0.duration_since(self.epoch).as_secs_f64()),
                ),
                (
                    "end".into(),
                    Value::Num(s.window.1.duration_since(self.epoch).as_secs_f64()),
                ),
                ("parent".into(), opt(s.parent)),
            ]);
            writeln!(f, "{}", line.render())?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_busiest_ranks_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Trace::new();
        let root = tr.add("run", None, 0, (at(0), at(100)), None);
        tr.add("a", Some(0), 0, (at(10), at(40)), Some(root));
        tr.add("b", Some(0), 0, (at(40), at(80)), Some(root));
        tr.add("a", Some(1), 0, (at(10), at(30)), Some(root));
        assert!((tr.self_time(root) - 0.030).abs() < 1e-9);
    }
}
