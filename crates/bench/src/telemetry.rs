//! Machine-readable run telemetry for the experiment binaries.
//!
//! Every binary in `src/bin/` records wall-clock time per phase plus a
//! few scalar metrics (corpus size, clause count, speedup, …) and writes
//! them to `BENCH_<id>.json` in the working directory on exit, so perf
//! regressions across PRs are diffable without scraping stdout.
//!
//! Every artifact, this recorder's included, is a [`Json`] value written
//! by [`write_artifact`].

use quorumcc_model::spec::ExploreBounds;
use quorumcc_sim::Json;
use std::time::Instant;

/// Parses `--threads N` / `--threads=N` from the process arguments.
///
/// Returns `0` (all available parallelism) when the flag is absent, so
/// experiment runs use the whole machine by default; determinism
/// guarantees the *outputs* are identical at every thread count, only
/// the recorded timings vary.
///
/// # Panics
///
/// Panics with a usage message when the flag is present but its value is
/// missing or not a number — a bad CLI invocation should fail loudly,
/// not silently fall back to a default.
#[must_use]
pub fn threads_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = if a == "--threads" {
            args.next()
        } else if let Some(v) = a.strip_prefix("--threads=") {
            Some(v.to_string())
        } else {
            continue;
        };
        let val = val.unwrap_or_else(|| panic!("--threads requires a value"));
        return val
            .parse()
            .unwrap_or_else(|e| panic!("--threads {val}: {e} (expected a count, 0 = all cores)"));
    }
    0
}

/// Collects per-phase wall-clock timings and scalar metrics for one
/// experiment run, then serializes them to `BENCH_<id>.json`.
pub struct BenchRecorder {
    id: String,
    threads_requested: usize,
    threads_effective: usize,
    bounds: ExploreBounds,
    phases: Vec<(String, f64)>,
    metrics: Vec<(String, f64)>,
    sections: Vec<(String, Json)>,
}

impl BenchRecorder {
    /// Starts a recorder for the experiment `id` (the `BENCH_<id>.json`
    /// stem) running with `threads` workers (`0` = all available).
    #[must_use]
    pub fn new(id: &str, threads: usize, bounds: ExploreBounds) -> Self {
        BenchRecorder {
            id: id.to_string(),
            threads_requested: threads,
            threads_effective: quorumcc_core::parallel::effective_threads(threads),
            bounds,
            phases: Vec::new(),
            metrics: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// The resolved worker count (`0` requests mapped to the machine).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads_effective
    }

    /// Overrides the recorded effective thread count with the pool size
    /// the dominant phase actually used.
    ///
    /// The constructor's default only clamps the request to the machine
    /// (`0` → all cores); a phase that fans out over fewer items than
    /// that runs a smaller pool, and the telemetry should say so rather
    /// than advertise parallelism that never existed.
    pub fn set_threads_effective(&mut self, n: usize) {
        self.threads_effective = n.max(1);
    }

    /// Runs `f`, recording its wall-clock time under `name`.
    pub fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.phases.push((name.to_string(), ms));
        out
    }

    /// Records a phase timed externally (e.g. accumulated across a loop).
    pub fn record_phase(&mut self, name: &str, millis: f64) {
        self.phases.push((name.to_string(), millis));
    }

    /// Records a scalar metric (corpus size, clause count, speedup, …).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Attaches a value as a top-level key of the record — how the
    /// experiment binaries embed a run's
    /// [`RunTelemetry`](quorumcc_replication::RunTelemetry).
    pub fn section(&mut self, name: &str, value: Json) {
        self.sections.push((name.to_string(), value));
    }

    /// The record as a JSON value.
    #[must_use]
    pub fn json(&self) -> Json {
        let scalars = |rows: &[(String, f64)]| {
            Json::Object(
                rows.iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            )
        };
        let bounds = Json::object()
            .field("depth", self.bounds.depth)
            .field("max_states", self.bounds.max_states)
            .field("budget", self.bounds.budget);
        let head = Json::object()
            .field("id", self.id.as_str())
            .field("threads_requested", self.threads_requested)
            .field("threads_effective", self.threads_effective)
            .field("bounds", bounds)
            .field("phases_ms", scalars(&self.phases))
            .field("metrics", scalars(&self.metrics));
        (self.sections.iter()).fold(head, |doc, (name, value)| doc.field(name, value.clone()))
    }

    /// Writes `BENCH_<id>.json` — the standard last step of every
    /// experiment binary; a failure to write is reported, not fatal.
    pub fn finish(&self) {
        if let Err(e) = write_artifact(&self.id, &self.json()) {
            eprintln!("\ntelemetry: could not write BENCH_{}.json: {e}", self.id);
        }
    }
}

/// Writes `doc` to `BENCH_<id>.json` in the working directory and prints
/// the path — the one way an experiment binary leaves an artifact.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_artifact(id: &str, doc: &Json) -> std::io::Result<()> {
    let path = format!("BENCH_{id}.json");
    std::fs::write(&path, format!("{doc}\n"))?;
    println!("\ntelemetry written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> ExploreBounds {
        ExploreBounds {
            depth: 4,
            max_states: 4_096,
            budget: 5_000_000,
        }
    }

    #[test]
    fn phases_and_metrics_appear_in_json() {
        let mut r = BenchRecorder::new("unit", 2, bounds());
        let v = r.phase("work", || 42);
        assert_eq!(v, 42);
        r.metric("clauses", 19.0);
        let j = r.json().to_string();
        assert!(j.contains("\"id\": \"unit\""));
        assert!(j.contains("\"threads_requested\": 2"));
        assert!(j.contains("\"bounds\": {\"depth\": 4, \"max_states\": 4096, \"budget\": 5000000}"));
        assert!(j.contains("\"work\":"));
        assert!(j.contains("\"clauses\": 19"));
        assert!(!j.contains("\"absent\":"));
    }

    #[test]
    fn empty_record_is_valid_shape() {
        let r = BenchRecorder::new("empty", 0, bounds());
        let j = r.json().to_string();
        assert!(j.contains("\"phases_ms\": {}"));
        assert!(j.contains("\"metrics\": {}"));
        assert!(r.threads() >= 1);
    }

    #[test]
    fn effective_threads_can_be_overridden_to_the_phase_pool() {
        let mut r = BenchRecorder::new("pool", 0, bounds());
        r.set_threads_effective(3);
        assert_eq!(r.threads(), 3);
        assert!(r.json().to_string().contains("\"threads_effective\": 3"));
        r.set_threads_effective(0);
        assert_eq!(r.threads(), 1);
    }

    #[test]
    fn sections_nest_as_values() {
        let mut r = BenchRecorder::new("raw", 1, bounds());
        r.metric("k", 1.0);
        let run = Json::object().field("runs", 1u64);
        r.section(
            "telemetry",
            Json::object().field("mode", "hybrid").field("run", run),
        );
        let j = r.json().to_string();
        assert!(
            j.ends_with(
                ",\n  \"telemetry\": {\n    \"mode\": \"hybrid\",\n    \"run\": {\"runs\": 1}\n  }\n}"
            ),
            "{j}"
        );
    }

    #[test]
    fn json_escaping_handles_specials() {
        let mut r = BenchRecorder::new("a\"b\\c\nd", 1, bounds());
        r.metric("nan", f64::NAN);
        r.metric("half", 1.5);
        let j = r.json().to_string();
        assert!(j.contains("\"id\": \"a\\\"b\\\\c\\nd\""), "{j}");
        assert!(
            j.contains("\"metrics\": {\"nan\": null, \"half\": 1.5}"),
            "{j}"
        );
    }
}
