//! The measured process: rounds of set-up, a closed serve loop and
//! teardown, then the output checks.
//!
//! One generator thread requests batches in plan order and sends the next
//! request only when the previous one has returned. A run repeats whole
//! rounds — set up, serve every epoch of the round, tear down — until it
//! has measured at least the requested seconds and enough batches to
//! quote p99, so every run attempts whole rounds of the same operations.

use crate::check::{digest, Reference, Served};
use crate::host;
use crate::spec::{Workload, FRAMES_PER_CLIP, TAG, TRIALS, VIDEOS_PER_BATCH};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use sand::codec::Dataset;
use sand::core::{EngineStats, Fleet, SandEngine};
use sand::frame::Tensor;
use sand::vfs::{SandVfs, ViewPath};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches a run serves at least, so that ten lie beyond its p99.
pub const MIN_BATCHES: usize = 1010;
/// Set-ups a run times at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 9;
/// How long a teardown may take before it counts as failed.
pub const TEARDOWN_DEADLINE: Duration = Duration::from_secs(20);

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run prints as its result line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Where a run's inputs live.
pub struct Inputs {
    pub dir: PathBuf,
}

impl Inputs {
    pub fn dataset(&self) -> PathBuf {
        self.dir.join("dataset")
    }
    /// The prepared persistent store of `restart-log`.
    pub fn prepared_store(&self) -> PathBuf {
        self.dir.join("store-prepared")
    }
    /// The store a `restart-log` round reopens (a fresh copy each round).
    pub fn work_store(&self) -> PathBuf {
        self.dir.join("store-work")
    }
}

/// An engine (or fleet) under test and the VFS mounted on it.
pub enum Target {
    Single { engine: SandEngine, vfs: SandVfs },
    Fleet { fleet: Fleet, vfs: SandVfs },
}

impl Target {
    pub fn engine(&self) -> &SandEngine {
        match self {
            Target::Single { engine, .. } => engine,
            Target::Fleet { fleet, .. } => fleet.engine(),
        }
    }
}

/// Builds and starts the workload's engine over `dataset`.
pub fn build(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    dataset: Arc<Dataset>,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Target, String> {
    match workload {
        Workload::TrialsShared => {
            let fleet = tracer
                .span("core.fleet_new", parent, 0, || {
                    Fleet::new(workload.fleet_config(seed), dataset)
                })
                .map_err(|e| format!("fleet: {e}"))?;
            if !fleet.rejected().is_empty() {
                return Err(format!("tenants rejected: {:?}", fleet.rejected()));
            }
            let vfs = fleet.engine().mount();
            Ok(Target::Fleet { fleet, vfs })
        }
        _ => {
            let store_dir = (workload == Workload::RestartLog).then(|| inputs.work_store());
            let engine = tracer
                .span("core.new", parent, 0, || {
                    SandEngine::new(workload.engine_config(seed, store_dir), dataset)
                })
                .map_err(|e| format!("engine: {e}"))?;
            tracer
                .span("core.start", parent, 0, || engine.start())
                .map_err(|e| format!("start: {e}"))?;
            let vfs = engine.mount();
            Ok(Target::Single { engine, vfs })
        }
    }
}

/// Trace-only probes after a round's serve loop, outside its timing:
/// re-reads the round's last epoch through the path the loop did not
/// take (the engine's `serve_batch` for VFS workloads, the VFS for the
/// fleet), and records each planned chunk's unique decoded frames.
fn probe_round(
    workload: Workload,
    target: &Target,
    iters: u64,
    tracer: &mut Tracer,
    m: &mut Measured,
) -> Result<(), String> {
    let engine = target.engine();
    let last = workload.epochs_per_round() - 1;
    let reqs: Vec<_> = requests(workload, iters)
        .into_iter()
        .filter(|&(_, epoch, _)| epoch == last)
        .collect();
    for (tenant, epoch, it) in reqs {
        let tag = planned_tag(tenant);
        match target {
            Target::Single { .. } => {
                tracer
                    .span("probe.core.fleet_serve", SpanId::MAX, 0, || {
                        engine.serve_batch(&tag, epoch, it)
                    })
                    .map_err(|e| format!("probe serve: {e}"))?;
            }
            Target::Fleet { vfs, .. } => {
                let path = ViewPath::batch(&tag, epoch, it);
                let fd = tracer
                    .span("probe.vfs.open", SpanId::MAX, 0, || vfs.open(&path))
                    .map_err(|e| format!("probe open: {e}"))?;
                tracer
                    .span("probe.vfs.read", SpanId::MAX, 0, || vfs.read_to_end(fd))
                    .map_err(|e| format!("probe read: {e}"))?;
                tracer
                    .span("probe.vfs.getxattr", SpanId::MAX, 0, || {
                        vfs.getxattr(fd, "labels")
                    })
                    .map_err(|e| format!("probe getxattr: {e}"))?;
                tracer
                    .span("probe.vfs.close", SpanId::MAX, 0, || vfs.close(fd))
                    .map_err(|e| format!("probe close: {e}"))?;
            }
        }
    }
    let k = workload.engine_config(0, None).epochs_per_chunk;
    let mut start = 0;
    while start <= last {
        let merge = engine
            .merge_stats(start)
            .map_err(|e| format!("merge stats: {e}"))?;
        m.unique_frames_per_chunk.push(merge.unique_frames as f64);
        start += k;
    }
    Ok(())
}

/// Trace-only probe for the fleet, whose set-up is one call: times
/// `SandEngine::new` and `start` separately on an engine planning the
/// same namespaced tasks.
fn probe_setup(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let dataset = Arc::new(Dataset::open_dir(&inputs.dataset()).map_err(|e| e.to_string())?);
    let mut config = workload.engine_config(seed, None);
    config.tasks = workload.planned_tasks();
    let engine = tracer
        .span("probe.core.new", SpanId::MAX, 0, || {
            SandEngine::new(config, dataset)
        })
        .map_err(|e| format!("probe engine: {e}"))?;
    tracer
        .span("probe.core.start", SpanId::MAX, 0, || engine.start())
        .map_err(|e| format!("probe start: {e}"))?;
    if !teardown(engine, TEARDOWN_DEADLINE) {
        return Err("the probe engine did not shut down".into());
    }
    Ok(())
}

/// Drops `value` on a helper thread and waits at most `deadline` for it.
/// Returns `false` when the drop did not return in time; the helper is
/// then left behind and ends with the process.
pub fn teardown<T: Send + 'static>(value: T, deadline: Duration) -> bool {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::Builder::new()
        .name("perfbench-teardown".into())
        .spawn(move || {
            drop(value);
            let _ = tx.send(());
        });
    let Ok(helper) = helper else {
        return false;
    };
    match rx.recv_timeout(deadline) {
        Ok(()) => helper.join().is_ok(),
        Err(_) => false,
    }
}

/// Copies the prepared store into a fresh working directory.
pub fn fresh_store_copy(inputs: &Inputs) -> Result<(), String> {
    let work = inputs.work_store();
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| format!("clear {}: {e}", work.display()))?;
    }
    copy_dir(&inputs.prepared_store(), &work)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

/// One timed set-up: from opening the dataset directory until the engine
/// accepts its first read.
fn timed_setup(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<(Target, Duration), String> {
    if workload == Workload::RestartLog {
        fresh_store_copy(inputs)?;
    }
    let started = Instant::now();
    let root = tracer.open("setup", SpanId::MAX, 0);
    let dataset = tracer.span("codec.open_dir", root, 0, || {
        Dataset::open_dir(&inputs.dataset())
    });
    let dataset = Arc::new(dataset.map_err(|e| format!("open dataset: {e}"))?);
    let target = build(workload, seed, inputs, dataset, tracer, root)?;
    tracer.close(root);
    Ok((target, started.elapsed()))
}

/// The batch requests of one round, in generator order.
pub fn requests(workload: Workload, iters_per_epoch: u64) -> Vec<(&'static str, u64, u64)> {
    let mut out = Vec::new();
    for epoch in 0..workload.epochs_per_round() {
        for it in 0..iters_per_epoch {
            match workload {
                Workload::TrialsShared => {
                    out.extend(TRIALS.iter().map(|t| (t.name, epoch, it)));
                }
                _ => out.push(("", epoch, it)),
            }
        }
    }
    out
}

/// The tag a request is planned under.
pub fn planned_tag(tenant: &str) -> String {
    if tenant.is_empty() {
        TAG.to_string()
    } else {
        sand::core::fleet::fleet_tag(tenant, TAG)
    }
}

/// Serves one batch the way a trainer does and reduces it to a record.
/// Returns the record and the latency the trainer saw.
pub fn serve_one(
    target: &Target,
    tenant: &str,
    epoch: u64,
    it: u64,
    batch_id: u64,
    tracer: &mut Tracer,
) -> Result<(Served, Duration), String> {
    let root = tracer.open("batch", SpanId::MAX, batch_id);
    let started = Instant::now();
    let (tensor, bytes, labels, latency) = match target {
        Target::Single { vfs, .. } => {
            let path = ViewPath::batch(TAG, epoch, it);
            let fd = tracer
                .span("vfs.open", root, batch_id, || vfs.open(&path))
                .map_err(|e| format!("open {path}: {e}"))?;
            let bytes = tracer
                .span("vfs.read", root, batch_id, || vfs.read_to_end(fd))
                .map_err(|e| format!("read {path}: {e}"))?;
            let labels = tracer
                .span("vfs.getxattr", root, batch_id, || {
                    vfs.getxattr(fd, "labels")
                })
                .map_err(|e| format!("getxattr {path}: {e}"))?;
            tracer
                .span("vfs.close", root, batch_id, || vfs.close(fd))
                .map_err(|e| format!("close {path}: {e}"))?;
            let tensor = tracer.span("frame.tensor_from_bytes", root, batch_id, || {
                Tensor::from_bytes(&bytes)
            });
            let latency = started.elapsed();
            (tensor, bytes, labels, latency)
        }
        Target::Fleet { fleet, vfs } => {
            let bytes = tracer
                .span("core.fleet_serve", root, batch_id, || {
                    fleet.serve_batch(tenant, TAG, epoch, it)
                })
                .map_err(|e| format!("serve {tenant} {epoch}/{it}: {e}"))?;
            let tensor = tracer.span("frame.tensor_from_bytes", root, batch_id, || {
                Tensor::from_bytes(&bytes)
            });
            let latency = started.elapsed();
            // Labels come through the view API, outside the latency the
            // trainer of a fleet sees.
            let path = ViewPath::batch(&planned_tag(tenant), epoch, it);
            let labels = vfs
                .getxattr_path(&path, "labels")
                .map_err(|e| format!("getxattr {path}: {e}"))?;
            (tensor, bytes, labels, latency)
        }
    };
    tracer.close(root);
    let tensor = tensor.map_err(|e| format!("tensor {epoch}/{it}: {e}"))?;
    let labels = labels
        .split(',')
        .map(|l| l.parse::<u32>().map_err(|_| format!("bad label `{l}`")))
        .collect::<Result<Vec<u32>, String>>()?;
    Ok((
        Served {
            tag: planned_tag(tenant),
            epoch,
            iteration: it,
            digest: digest(&bytes),
            shape: tensor.shape().to_vec(),
            labels,
        },
        latency,
    ))
}

/// Shape every batch of `tag` must have.
pub fn expected_shape(tag: &str) -> Vec<usize> {
    let crop = TRIALS
        .iter()
        .find(|t| planned_tag(t.name) == tag)
        .map_or(48, |t| t.crop);
    vec![VIDEOS_PER_BATCH, 3, FRAMES_PER_CLIP, crop, crop]
}

/// Engine counters over a window.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub frames_decoded: u64,
    pub frames_discarded: u64,
    pub warm_hits: u64,
    pub aug_ops: u64,
    pub mem_hits: u64,
    pub disk_hits: u64,
    pub evictions: u64,
    pub spills: u64,
    pub demand_jobs: u64,
    pub pre_jobs: u64,
    pub busy_ns: u64,
    pub affinity_hits: u64,
    pub affinity_steals: u64,
}

impl Counters {
    pub fn delta(before: &EngineStats, after: &EngineStats) -> Self {
        Counters {
            frames_decoded: after.decode.frames_decoded - before.decode.frames_decoded,
            frames_discarded: after.decode.frames_discarded - before.decode.frames_discarded,
            warm_hits: after.decode.warm_hits - before.decode.warm_hits,
            aug_ops: after.aug_ops_applied - before.aug_ops_applied,
            mem_hits: after.store.memory_hits - before.store.memory_hits,
            disk_hits: after.store.disk_hits - before.store.disk_hits,
            evictions: after.store.evictions - before.store.evictions,
            spills: after.store.spills - before.store.spills,
            demand_jobs: after.sched.demand_served - before.sched.demand_served,
            pre_jobs: after.sched.pre_served - before.sched.pre_served,
            busy_ns: after.sched.busy_nanos - before.sched.busy_nanos,
            affinity_hits: after.sched.affinity_hits - before.sched.affinity_hits,
            affinity_steals: after.sched.affinity_steals - before.sched.affinity_steals,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.frames_decoded += o.frames_decoded;
        self.frames_discarded += o.frames_discarded;
        self.warm_hits += o.warm_hits;
        self.aug_ops += o.aug_ops;
        self.mem_hits += o.mem_hits;
        self.disk_hits += o.disk_hits;
        self.evictions += o.evictions;
        self.spills += o.spills;
        self.demand_jobs += o.demand_jobs;
        self.pre_jobs += o.pre_jobs;
        self.busy_ns += o.busy_ns;
        self.affinity_hits += o.affinity_hits;
        self.affinity_steals += o.affinity_steals;
    }
}

/// Everything the serve rounds measured.
#[derive(Default)]
pub struct Measured {
    pub served: Vec<Served>,
    pub latencies_ms: Vec<f64>,
    pub setups_s: Vec<f64>,
    pub serve_wall: Duration,
    pub serve_cpu: Duration,
    /// Batches per second of each round's serve loop.
    pub round_rates: Vec<f64>,
    /// Process CPU milliseconds per batch of each round's serve loop.
    pub round_cpu_ms: Vec<f64>,
    /// Resident-set high-water mark after the first round's serve loop.
    pub peak_rss_mb: f64,
    /// Engine counters over the serve loops.
    pub serve_counters: Counters,
    /// Engine-lifetime counters of each round (set-up included).
    pub round_totals: Vec<Counters>,
    pub peak_store_mem: u64,
    /// Unique decoded frames of each planned chunk (traced runs).
    pub unique_frames_per_chunk: Vec<f64>,
    pub rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
}

/// Runs rounds until at least `seconds` of serving and
/// [`MIN_BATCHES`] batches are measured, then tops set-up samples up to
/// [`MIN_SETUPS`].
pub fn measure(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    seconds: u64,
    trace: bool,
) -> Result<Measured, String> {
    let mut tracer = Tracer::new(trace);
    let mut m = Measured::default();
    let mut batch_id = 0u64;
    let target_wall = Duration::from_secs(seconds);
    while m.serve_wall < target_wall || m.served.len() < MIN_BATCHES {
        let (target, setup) = timed_setup(workload, seed, inputs, &mut tracer)?;
        m.setups_s.push(setup.as_secs_f64());
        let engine = target.engine().clone();
        let iters = engine
            .iterations_per_epoch(&planned_tag(TRIALS[0].name))
            .or_else(|| engine.iterations_per_epoch(TAG))
            .ok_or("engine does not know the task")?;
        let zero = EngineStats::default();
        let before = engine.stats();
        let cpu0 = host::process_cpu()?;
        let reqs = requests(workload, iters);
        let per_round = reqs.len();
        let wall0 = Instant::now();
        for (tenant, epoch, it) in reqs {
            m.attempted += 1;
            let (served, latency) = serve_one(&target, tenant, epoch, it, batch_id, &mut tracer)?;
            batch_id += 1;
            m.latencies_ms.push(latency.as_secs_f64() * 1e3);
            m.served.push(served);
            if trace {
                m.peak_store_mem = m.peak_store_mem.max(engine.stats().store.memory_bytes);
            }
        }
        let wall = wall0.elapsed();
        let cpu = host::process_cpu()?.saturating_sub(cpu0);
        m.serve_wall += wall;
        m.serve_cpu += cpu;
        m.round_rates.push(per_round as f64 / wall.as_secs_f64());
        m.round_cpu_ms
            .push(cpu.as_secs_f64() * 1e3 / per_round as f64);
        if m.rounds == 0 {
            m.peak_rss_mb = host::peak_rss_mb()?;
        }
        let after = engine.stats();
        m.serve_counters.add(&Counters::delta(&before, &after));
        m.round_totals.push(Counters::delta(&zero, &after));
        m.rounds += 1;
        if trace {
            probe_round(workload, &target, iters, &mut tracer, &mut m)?;
        }
        drop(engine);
        m.attempted += 1;
        if !teardown(target, TEARDOWN_DEADLINE) {
            m.failed += 1;
            eprintln!(
                "teardown of round {} did not return within {TEARDOWN_DEADLINE:?}",
                m.rounds
            );
            m.tracer = Some(tracer);
            return Ok(m);
        }
    }
    while m.setups_s.len() < MIN_SETUPS {
        let (target, setup) = timed_setup(workload, seed, inputs, &mut tracer)?;
        m.setups_s.push(setup.as_secs_f64());
        m.attempted += 1;
        if !teardown(target, TEARDOWN_DEADLINE) {
            m.failed += 1;
            eprintln!("teardown after a set-up sample did not return within {TEARDOWN_DEADLINE:?}");
            break;
        }
    }
    if trace && workload == Workload::TrialsShared {
        for _ in 0..3 {
            probe_setup(workload, seed, inputs, &mut tracer)?;
        }
    }
    m.tracer = Some(tracer);
    Ok(m)
}

/// The end-to-end metrics of a measured run.
pub fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    // Host speed on a shared machine drifts over seconds; totals over the
    // whole run average that drift better than a median of a few rounds.
    let batches = m.served.len() as f64;
    let lat = stats::sorted(&m.latencies_ms);
    Ok(vec![
        Metric::new(
            "batches_per_s",
            batches / m.serve_wall.as_secs_f64(),
            "batch/s",
        ),
        Metric::new(
            "serve_p50_ms",
            stats::nearest_rank(&lat, 50.0).ok_or("no latencies")?,
            "ms",
        ),
        Metric::new("serve_p99_ms", stats::tail_percentile(&lat, 99.0)?, "ms"),
        Metric::new(
            "cpu_ms_per_batch",
            m.serve_cpu.as_secs_f64() * 1e3 / batches,
            "ms",
        ),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"),
        Metric::new(
            "setup_s",
            stats::median(&m.setups_s).ok_or("no set-up samples")?,
            "s",
        ),
    ])
}

/// Runs every output check of the workload.
pub fn check(workload: Workload, seed: u64, inputs: &Inputs, m: &Measured) -> Result<(), String> {
    let dataset = Dataset::open_dir(&inputs.dataset()).map_err(|e| format!("dataset: {e}"))?;
    let tasks = workload.planned_tasks();
    let engine_config = workload.engine_config(seed, None);
    let reference = Reference::new(
        &dataset,
        &tasks,
        engine_config.seed,
        engine_config.epochs_per_chunk,
    );
    // Rounds repeat the same requests: recompute one round's worth and
    // compare every round against it.
    reference.check(&m.served, &expected_shape, host::nproc())?;
    match workload {
        Workload::TrialsShared => {
            let bound = crate::check::distinct_op_applications(
                &dataset,
                &tasks,
                engine_config.seed,
                engine_config.epochs_per_chunk,
                workload.epochs_per_round(),
            )?;
            for (round, totals) in m.round_totals.iter().enumerate() {
                if totals.aug_ops > bound {
                    return Err(format!(
                        "round {round} applied {} aug ops, more than the {bound} distinct \
                         applications the tenants' plans hold",
                        totals.aug_ops
                    ));
                }
            }
        }
        Workload::RestartLog => {
            for (round, totals) in m.round_totals.iter().enumerate() {
                if totals.frames_decoded != 0 || totals.aug_ops != 0 {
                    return Err(format!(
                        "round {round}: the reopened engine decoded {} frames and applied {} ops",
                        totals.frames_decoded, totals.aug_ops
                    ));
                }
            }
        }
        Workload::TrainEvict => {}
    }
    Ok(())
}

/// Prepares the persistent store of `restart-log`: an engine serves every
/// epoch a round serves, drains, and is dropped, so the log holds the
/// same content in every run.
pub fn prepare_store(seed: u64, inputs: &Inputs) -> Result<(), String> {
    let workload = Workload::RestartLog;
    let dir = inputs.prepared_store();
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    let dataset =
        Arc::new(Dataset::open_dir(&inputs.dataset()).map_err(|e| format!("open dataset: {e}"))?);
    let engine = SandEngine::new(workload.engine_config(seed, Some(dir)), dataset)
        .map_err(|e| format!("engine: {e}"))?;
    engine.start().map_err(|e| format!("start: {e}"))?;
    let iters = engine.iterations_per_epoch(TAG).ok_or("no task")?;
    for (_, epoch, it) in requests(workload, iters) {
        engine
            .serve_batch(TAG, epoch, it)
            .map_err(|e| format!("prepare {epoch}/{it}: {e}"))?;
    }
    engine.wait_idle();
    if !teardown(engine, TEARDOWN_DEADLINE) {
        return Err("the preparing engine did not shut down".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drops only after `delay`.
    struct SlowDrop(Duration);

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(self.0);
        }
    }

    #[test]
    fn teardown_reports_a_drop_that_overruns_its_deadline() {
        let started = Instant::now();
        assert!(!teardown(
            SlowDrop(Duration::from_secs(3)),
            Duration::from_millis(50)
        ));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the watchdog waited for the drop"
        );
        assert!(teardown(SlowDrop(Duration::ZERO), Duration::from_secs(5)));
    }
}
