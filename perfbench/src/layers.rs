//! Per-layer metrics of the traced run, and the baseline reference loop.
//!
//! Three sources feed the per-layer metrics:
//! - spans the traced serve loop recorded around each call into a layer
//!   (medians of their durations);
//! - engine counter deltas over the serve loops (`stats()`), per batch;
//! - replays of the workload's own planned inputs through each layer's
//!   public functions (decode, each op, compression, planning, the
//!   store's tiers, the scheduler), timed one call at a time.

use crate::run::{self, Inputs, Measured, Metric};
use crate::spec::Workload;
use crate::{host, stats};
use sand::codec::{Dataset, Decoder};
use sand::frame::tensor::clip_to_tensor;
use sand::frame::{compress_frame, decompress_frame, Frame};
use sand::graph::{PlanInput, Planner, PlannerOptions, VideoMeta};
use sand::sched::{Job, JobKind, Scheduler};
use sand::storage::{ObjectMeta, ObjectStore, StoreConfig};
use sand::train::{chain_ops, TaskPlan};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// Median of a span's durations in `unit_ns` units, or the median of the
/// fallback span when the serve loop did not make that call.
fn span_median(m: &Measured, name: &str, fallback: &str, unit_ns: f64) -> Result<f64, String> {
    let tracer = m.tracer.as_ref().ok_or("no tracer")?;
    let mut d = tracer.durations(name);
    if d.is_empty() {
        d = tracer.durations(fallback);
    }
    stats::median(&d)
        .map(|ns| ns / unit_ns)
        .ok_or_else(|| format!("no `{name}` span"))
}

/// Every per-layer metric of a traced run.
pub fn per_layer(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    m: &Measured,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let batches = m.served.len() as f64;
    let c = &m.serve_counters;
    let per_batch = |v: u64| v as f64 / batches;

    // Wall-clock throughput of the traced loop, for the tracing overhead.
    out.push(Metric::new(
        "trace.batches_per_s",
        batches / m.serve_wall.as_secs_f64(),
        "batch/s",
    ));
    out.push(Metric::new(
        "core.new_ms",
        span_median(m, "core.new", "probe.core.new", 1e6)?,
        "ms",
    ));
    out.push(Metric::new(
        "core.start_ms",
        span_median(m, "core.start", "probe.core.start", 1e6)?,
        "ms",
    ));
    for (metric, span, unit_ns, unit) in [
        ("vfs.open_us", "vfs.open", 1e3, "us"),
        ("vfs.read_ms", "vfs.read", 1e6, "ms"),
        ("vfs.getxattr_us", "vfs.getxattr", 1e3, "us"),
        ("vfs.close_us", "vfs.close", 1e3, "us"),
        (
            "frame.tensor_from_bytes_us",
            "frame.tensor_from_bytes",
            1e3,
            "us",
        ),
        ("core.fleet_serve_ms", "core.fleet_serve", 1e6, "ms"),
    ] {
        let fallback = format!("probe.{span}");
        out.push(Metric::new(
            metric,
            span_median(m, span, &fallback, unit_ns)?,
            unit,
        ));
    }

    out.push(Metric::new(
        "codec.frames_decoded_per_batch",
        per_batch(c.frames_decoded),
        "frame",
    ));
    out.push(Metric::new(
        "codec.frames_discarded_per_batch",
        per_batch(c.frames_discarded),
        "frame",
    ));
    out.push(Metric::new(
        "codec.warm_hits_per_batch",
        per_batch(c.warm_hits),
        "count",
    ));
    out.push(Metric::new(
        "frame.aug_ops_per_batch",
        per_batch(c.aug_ops),
        "op",
    ));
    out.push(Metric::new(
        "storage.mem_hits_per_batch",
        per_batch(c.mem_hits),
        "count",
    ));
    out.push(Metric::new(
        "storage.disk_hits_per_batch",
        per_batch(c.disk_hits),
        "count",
    ));
    out.push(Metric::new(
        "storage.evictions_per_batch",
        per_batch(c.evictions),
        "count",
    ));
    out.push(Metric::new(
        "storage.spills_per_batch",
        per_batch(c.spills),
        "count",
    ));
    out.push(Metric::new(
        "storage.peak_mem_mib",
        m.peak_store_mem as f64 / MIB,
        "MiB",
    ));
    out.push(Metric::new(
        "sched.demand_jobs_per_batch",
        per_batch(c.demand_jobs),
        "job",
    ));
    out.push(Metric::new(
        "sched.pre_jobs_per_batch",
        per_batch(c.pre_jobs),
        "job",
    ));
    out.push(Metric::new(
        "sched.busy_ms_per_batch",
        c.busy_ns as f64 / 1e6 / batches,
        "ms",
    ));
    let pinned = c.affinity_hits + c.affinity_steals;
    out.push(Metric::new(
        "sched.affinity_hit_ratio",
        if pinned == 0 {
            0.0
        } else {
            c.affinity_hits as f64 / pinned as f64
        },
        "ratio",
    ));
    out.push(Metric::new(
        "graph.unique_frames_per_chunk",
        stats::median(&m.unique_frames_per_chunk).ok_or("no chunk was planned")?,
        "frame",
    ));

    let dataset = Dataset::open_dir(&inputs.dataset()).map_err(|e| format!("dataset: {e}"))?;
    let config = workload.engine_config(seed, None);
    let tasks = workload.planned_tasks();
    let plan = TaskPlan::single_task(&tasks[0], &dataset, 0..config.epochs_per_chunk, config.seed)
        .map_err(|e| format!("plan: {e}"))?;
    let replay = replay_frames(&dataset, &plan)?;
    out.push(Metric::new(
        "codec.decode_us_per_frame",
        replay.decode_us_per_frame,
        "us",
    ));
    for (op, ns) in &replay.op_ns_per_px {
        out.push(Metric::new(format!("frame.op_ns_per_px.{op}"), *ns, "ns"));
    }
    let (compress, decompress) = compression(&replay.frames);
    out.push(Metric::new("frame.compress_us_per_mib", compress, "us"));
    out.push(Metric::new("frame.decompress_us_per_mib", decompress, "us"));
    out.push(Metric::new(
        "graph.plan_ms_per_chunk",
        plan_ms(&dataset, &tasks, config.seed, config.epochs_per_chunk)?,
        "ms",
    ));
    let objects: Vec<Arc<Vec<u8>>> = replay
        .frames
        .iter()
        .map(|f| Arc::new(compress_frame(f)))
        .collect();
    let (get_us, put_us) = memory_tier(config.store, &objects)?;
    out.push(Metric::new("storage.mem_get_us", get_us, "us"));
    out.push(Metric::new("storage.mem_put_us", put_us, "us"));
    out.push(Metric::new(
        "storage.evict_us_per_victim",
        evict_us(&objects, m.peak_store_mem.max(8 << 20))?,
        "us",
    ));
    let (log_get_us, replay_mib_s) = log_tier(workload, inputs, &objects)?;
    out.push(Metric::new("storage.log_get_us", log_get_us, "us"));
    out.push(Metric::new(
        "storage.replay_mib_per_s",
        replay_mib_s,
        "MiB/s",
    ));
    out.push(Metric::new(
        "sched.submit_to_start_us",
        submit_to_start_us(config.sched)?,
        "us",
    ));
    if let Some(tracer) = &m.tracer {
        // Beside the run's input directory, which is removed after a run.
        let path = inputs.dir.with_extension("spans.jsonl");
        tracer
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    Ok(out)
}

/// Decoded and augmented frames of the replay, plus their costs.
struct Replay {
    frames: Vec<Frame>,
    decode_us_per_frame: f64,
    op_ns_per_px: BTreeMap<&'static str, f64>,
}

/// Replays the first planned chunk's clips: decode each clip with a fresh
/// decoder, then apply each resolved op, timing every call.
fn replay_frames(dataset: &Dataset, plan: &TaskPlan) -> Result<Replay, String> {
    let mut decode_time = Duration::ZERO;
    let mut decoded = 0u64;
    let mut op_time: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
    let mut frames = Vec::new();
    let budget = Instant::now();
    'batches: for batch in &plan.graph.batches {
        for s in &batch.samples {
            let video = dataset.get(s.video_id).ok_or("planned video missing")?;
            let mut dec = Decoder::new(&video.encoded);
            let t0 = Instant::now();
            let clip = dec
                .decode_indices(&s.frame_indices)
                .map_err(|e| format!("decode: {e}"))?;
            decode_time += t0.elapsed();
            decoded += dec.stats().frames_decoded;
            let mut out_clip = Vec::with_capacity(clip.len());
            for (frame, &terminal) in clip.into_iter().zip(&s.frame_nodes) {
                let mut cur = frame;
                frames.push(cur.clone());
                for op in chain_ops(&plan.graph, terminal) {
                    let Some(frame_op) = op.to_frame_op().map_err(|e| e.to_string())? else {
                        continue;
                    };
                    let t0 = Instant::now();
                    let next = frame_op.apply(&cur).map_err(|e| e.to_string())?;
                    let spent = t0.elapsed();
                    let name = match op.name() {
                        "crop" => "random_crop",
                        "resize" => "resize",
                        "flip" => "flip",
                        _ => "other",
                    };
                    let e = op_time.entry(name).or_default();
                    e.0 += spent;
                    e.1 += (next.width() * next.height()) as u64;
                    if name == "resize" {
                        frames.push(next.clone());
                    }
                    cur = next;
                }
                out_clip.push(cur);
            }
            let (mean, std) = s.normalize.clone().unwrap_or((vec![0.0; 3], vec![1.0; 3]));
            let t0 = Instant::now();
            let tensor = clip_to_tensor(&out_clip, &mean, &std).map_err(|e| e.to_string())?;
            let e = op_time.entry("normalize").or_default();
            e.0 += t0.elapsed();
            e.1 += out_clip
                .iter()
                .map(|f| (f.width() * f.height()) as u64)
                .sum::<u64>();
            black_box(tensor);
            if budget.elapsed() > Duration::from_millis(1500) {
                break 'batches;
            }
        }
    }
    if decoded == 0 {
        return Err("the replay decoded nothing".into());
    }
    Ok(Replay {
        frames,
        decode_us_per_frame: decode_time.as_secs_f64() * 1e6 / decoded as f64,
        op_ns_per_px: op_time
            .into_iter()
            .filter(|(name, _)| *name != "other")
            .map(|(name, (t, px))| (name, t.as_secs_f64() * 1e9 / px.max(1) as f64))
            .collect(),
    })
}

/// Compress and decompress cost per MiB of raw frame bytes.
fn compression(frames: &[Frame]) -> (f64, f64) {
    let raw: usize = frames
        .iter()
        .map(|f| f.width() * f.height() * f.channels())
        .sum();
    let t0 = Instant::now();
    let packed: Vec<Vec<u8>> = frames.iter().map(compress_frame).collect();
    let compress = t0.elapsed();
    let t0 = Instant::now();
    for p in &packed {
        black_box(decompress_frame(p).ok());
    }
    let decompress = t0.elapsed();
    let mib = raw as f64 / MIB;
    (
        compress.as_secs_f64() * 1e6 / mib,
        decompress.as_secs_f64() * 1e6 / mib,
    )
}

/// Median time to plan one chunk of the workload's tasks.
fn plan_ms(
    dataset: &Dataset,
    tasks: &[sand::config::TaskConfig],
    seed: u64,
    k: u64,
) -> Result<f64, String> {
    let videos: Vec<VideoMeta> = dataset
        .videos()
        .iter()
        .map(|v| {
            let h = &v.encoded.header;
            VideoMeta {
                video_id: v.video_id,
                frames: v.encoded.frame_count(),
                width: h.width,
                height: h.height,
                channels: h.format.channels(),
                gop_size: h.gop_size,
                encoded_bytes: v.encoded.encoded_size(),
            }
        })
        .collect();
    let mut times = Vec::new();
    for _ in 0..5 {
        let inputs: Vec<PlanInput> = tasks
            .iter()
            .enumerate()
            .map(|(i, t)| PlanInput {
                task_id: i as u32,
                config: t.clone(),
            })
            .collect();
        let t0 = Instant::now();
        let planner = Planner::new(
            inputs,
            videos.clone(),
            PlannerOptions {
                seed,
                coordinate: true,
                epochs: 0..k,
            },
        )
        .map_err(|e| e.to_string())?;
        black_box(planner.plan().map_err(|e| e.to_string())?);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times).ok_or_else(|| "no plan timings".into())
}

/// Median put and get time of a memory-only store with the workload's
/// store settings, over the workload's frame objects.
fn memory_tier(config: StoreConfig, objects: &[Arc<Vec<u8>>]) -> Result<(f64, f64), String> {
    let store = ObjectStore::memory_only(StoreConfig {
        memory_budget: config.memory_budget.max(256 << 20),
        ..config
    })
    .map_err(|e| e.to_string())?;
    let mut puts = Vec::with_capacity(objects.len());
    for (i, o) in objects.iter().enumerate() {
        let key = format!("obj{i}");
        let t0 = Instant::now();
        store
            .put(&key, Arc::clone(o), ObjectMeta::default())
            .map_err(|e| e.to_string())?;
        puts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut gets = Vec::with_capacity(objects.len());
    for i in 0..objects.len() {
        let key = format!("obj{i}");
        let t0 = Instant::now();
        black_box(store.get(&key).map_err(|e| e.to_string())?);
        gets.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok((
        stats::median(&gets).ok_or("no gets")?,
        stats::median(&puts).ok_or("no puts")?,
    ))
}

/// Cost per victim of puts into a full memory-only store whose budget is
/// the memory the workload's store held at its peak.
fn evict_us(objects: &[Arc<Vec<u8>>], budget: u64) -> Result<f64, String> {
    let store = ObjectStore::memory_only(StoreConfig {
        memory_budget: budget,
        ..StoreConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut i = 0u64;
    let put = |store: &ObjectStore, i: &mut u64| -> Result<(), String> {
        let o = &objects[(*i as usize) % objects.len()];
        store
            .put(
                &format!("obj{i}"),
                Arc::clone(o),
                ObjectMeta {
                    deadline: Some(*i),
                    future_uses: 1,
                },
            )
            .map_err(|e| e.to_string())?;
        *i += 1;
        Ok(())
    };
    while store.stats().evictions == 0 {
        put(&store, &mut i)?;
        if i > 4_000_000 {
            return Err("the store never evicted".into());
        }
    }
    let before = store.stats().evictions;
    let t0 = Instant::now();
    for _ in 0..objects.len().max(2000) {
        put(&store, &mut i)?;
    }
    let spent = t0.elapsed();
    let victims = store.stats().evictions - before;
    Ok(spent.as_secs_f64() * 1e6 / victims.max(1) as f64)
}

/// Log-tier read cost and replay rate. `restart-log` measures its own
/// prepared log; the other workloads build a log of their frame objects.
fn log_tier(
    workload: Workload,
    inputs: &Inputs,
    objects: &[Arc<Vec<u8>>],
) -> Result<(f64, f64), String> {
    let small = StoreConfig {
        memory_budget: 1 << 20,
        ..StoreConfig::default()
    };
    if workload == Workload::RestartLog {
        run::fresh_store_copy(inputs)?;
    } else {
        let dir = inputs.work_store();
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        let store = ObjectStore::open(small, Some(dir)).map_err(|e| e.to_string())?;
        for (i, o) in objects.iter().enumerate() {
            store
                .put(
                    &format!("obj{i}"),
                    Arc::clone(o),
                    ObjectMeta {
                        deadline: Some(1 << 40),
                        future_uses: 1,
                    },
                )
                .map_err(|e| e.to_string())?;
        }
        store.enforce_budgets().map_err(|e| e.to_string())?;
        drop(store);
    }
    let t0 = Instant::now();
    let store = ObjectStore::open(small, Some(inputs.work_store())).map_err(|e| e.to_string())?;
    let replay = t0.elapsed();
    let log_mib = store.stats().log_bytes as f64 / MIB;
    let mut gets = Vec::new();
    for key in store.keys().iter().take(4000) {
        let t0 = Instant::now();
        black_box(store.get(key).map_err(|e| e.to_string())?);
        gets.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    if store.stats().disk_hits == 0 {
        return Err("the log tier served no read".into());
    }
    Ok((
        stats::median(&gets).ok_or("no log gets")?,
        log_mib / replay.as_secs_f64(),
    ))
}

/// Median delay from submitting a no-op demand job to its start, on a
/// scheduler with the workload's settings and otherwise idle workers.
fn submit_to_start_us(config: sand::sched::SchedConfig) -> Result<f64, String> {
    let sched = Scheduler::new(config);
    let mut delays = Vec::new();
    for i in 0..2000u64 {
        let (tx, rx) = mpsc::channel();
        let submitted = Instant::now();
        sched.submit(Job {
            kind: JobKind::Demand,
            deadline: i,
            remaining_work: 1,
            affinity: None,
            tenant: None,
            run: Box::new(move || {
                let _ = tx.send(Instant::now());
            }),
        });
        let started = rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| "a scheduler job never started")?;
        delays.push(started.duration_since(submitted).as_secs_f64() * 1e6);
    }
    if !run::teardown(sched, run::TEARDOWN_DEADLINE) {
        return Err("the scheduler did not shut down".into());
    }
    stats::median(&delays).ok_or_else(|| "no scheduler samples".into())
}

/// Runs the four sand-train baseline loaders through the closed loop on
/// `train-evict`'s inputs and prints batches/s and CPU ms per batch.
pub fn baselines(seed: u64, inputs: &Inputs, seconds: u64) -> Result<(), String> {
    use sand::train::loaders::{
        IdealLoader, NaiveCacheLoader, OnDemandCpuLoader, OnDemandGpuLoader,
    };
    use sand::train::Loader;
    let workload = Workload::TrainEvict;
    println!("{}", host::stamp());
    let dataset = Arc::new(Dataset::open_dir(&inputs.dataset()).map_err(|e| e.to_string())?);
    let config = workload.engine_config(seed, None);
    let epochs = workload.epochs_per_round();
    let plan = Arc::new(
        TaskPlan::single_task(
            &workload.planned_tasks()[0],
            &dataset,
            0..epochs,
            config.seed,
        )
        .map_err(|e| e.to_string())?,
    );
    let workers = host::nproc();
    // Every batch of the plan, built once before any clock starts.
    let pool = IdealLoader::stage(&dataset, &plan).map_err(|e| e.to_string())?;
    for name in ["on-demand-cpu", "gpu-sim", "naive-cache", "ideal"] {
        let (mut wall, mut cpu, mut served) = (Duration::ZERO, Duration::ZERO, 0u64);
        // Whole rounds of the plan, like the engine workloads; a loader
        // walks its plan once, so each round builds a fresh one.
        while wall < Duration::from_secs(seconds) {
            // The pre-staged loader builds every batch before its clock
            // starts; the others produce from construction on.
            let staged = (name == "ideal").then(|| IdealLoader::from_shared(Arc::clone(&pool)));
            let cpu0 = host::process_cpu()?;
            let t0 = Instant::now();
            let mut loader: Box<dyn Loader> = match (name, staged) {
                (_, Some(ideal)) => Box::new(ideal),
                ("on-demand-cpu", _) => Box::new(OnDemandCpuLoader::new(
                    Arc::clone(&dataset),
                    Arc::clone(&plan),
                    workers,
                    2,
                )),
                ("gpu-sim", _) => Box::new(OnDemandGpuLoader::new(
                    Arc::clone(&dataset),
                    Arc::clone(&plan),
                    sand::sim::NvdecModel::new(sand::sim::GpuSpec::a100()),
                    workers,
                    2,
                )),
                _ => Box::new(NaiveCacheLoader::new(
                    Arc::clone(&dataset),
                    Arc::clone(&plan),
                    workers,
                    2,
                    config.store.memory_budget,
                )),
            };
            for epoch in 0..epochs {
                for it in 0..plan.iters_per_epoch {
                    black_box(loader.next_batch(epoch, it).map_err(|e| e.to_string())?);
                    served += 1;
                }
            }
            wall += t0.elapsed();
            cpu += host::process_cpu()?.saturating_sub(cpu0);
        }
        println!(
            "{name:<14} batches={served:>5} batches_per_s={:>9.2} cpu_ms_per_batch={:>8.2}",
            served as f64 / wall.as_secs_f64(),
            cpu.as_secs_f64() * 1e3 / served as f64
        );
    }
    Ok(())
}
