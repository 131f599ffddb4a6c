//! Output checks, run outside the timed window.
//!
//! Every served batch is reduced in the serve loop to a [`Served`]
//! record: a 64-bit digest of its bytes, its shape and its labels. The
//! checker recomputes each distinct batch on a path that shares nothing
//! with the engine — `TaskPlan::single_task` per chunk, `execute_sample`
//! with a fresh decoder, `clip_to_tensor` and `stack` — and compares.

use sand::codec::Dataset;
use sand::config::TaskConfig;
use sand::frame::tensor::{clip_to_tensor, stack};
use sand::train::loaders::execute_sample;
use sand::train::TaskPlan;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

/// What the serve loop keeps of one served batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// The task tag the engine planned the batch under.
    pub tag: String,
    pub epoch: u64,
    pub iteration: u64,
    pub digest: u64,
    pub shape: Vec<usize>,
    pub labels: Vec<u32>,
}

/// A batch: its planned tag, epoch and iteration.
type BatchKey = (String, u64, u64);

/// The independently recomputed batch.
#[derive(Debug, Clone)]
struct Expected {
    digest: u64,
    shape: Vec<usize>,
    labels: Vec<u32>,
}

/// Digest of a byte string, computed in the serve loop. Four independent
/// lanes each fold every fourth 8-byte word through a bijective mix, and
/// the lanes are folded the same way at the end, so two inputs of equal
/// length that differ in a single word (any flipped byte) always digest
/// differently. The lanes keep the multiplies independent: one serial
/// chain cost about 0.45 ms per 1.3 MB batch, a tenth of a
/// `trials-shared` batch's serve time.
pub fn digest(bytes: &[u8]) -> u64 {
    fn mix(h: u64) -> u64 {
        let h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    }
    let word = |w: &[u8]| {
        let mut b = [0u8; 8];
        b.copy_from_slice(w);
        u64::from_le_bytes(b)
    };
    let mut lanes = [0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane ^ word(w));
        }
    }
    let mut h = lanes.iter().fold(0, |h, &lane| mix(h ^ lane));
    for &b in blocks.remainder() {
        h = mix(h ^ u64::from(b));
    }
    h
}

/// Recomputes batches apart from the engine.
pub struct Reference<'a> {
    dataset: &'a Dataset,
    tasks: &'a [TaskConfig],
    seed: u64,
    epochs_per_chunk: u64,
}

impl<'a> Reference<'a> {
    pub fn new(
        dataset: &'a Dataset,
        tasks: &'a [TaskConfig],
        seed: u64,
        epochs_per_chunk: u64,
    ) -> Self {
        Reference {
            dataset,
            tasks,
            seed,
            epochs_per_chunk,
        }
    }

    fn task(&self, tag: &str) -> Result<&TaskConfig, String> {
        self.tasks
            .iter()
            .find(|t| t.tag == tag)
            .ok_or_else(|| format!("served tag `{tag}` is not a planned task"))
    }

    /// Plans the chunk holding `epoch` for `tag`, as its own plan.
    fn plan(&self, tag: &str, epoch: u64) -> Result<TaskPlan, String> {
        let start = epoch - epoch % self.epochs_per_chunk;
        TaskPlan::single_task(
            self.task(tag)?,
            self.dataset,
            start..start + self.epochs_per_chunk,
            self.seed,
        )
        .map_err(|e| format!("reference plan for {tag} epoch {epoch}: {e}"))
    }

    fn compute(&self, plan: &TaskPlan, epoch: u64, iteration: u64) -> Result<Expected, String> {
        let batch = plan
            .batch(epoch, iteration)
            .map_err(|e| format!("reference batch {epoch}/{iteration}: {e}"))?;
        let mut clips = Vec::with_capacity(batch.samples.len());
        let mut labels = Vec::with_capacity(batch.samples.len());
        for s in &batch.samples {
            let (frames, _) = execute_sample(self.dataset, &plan.graph, s)
                .map_err(|e| format!("reference sample {epoch}/{iteration}: {e}"))?;
            let channels = frames.first().map_or(3, sand::frame::Frame::channels);
            let (mean, std) = s
                .normalize
                .clone()
                .unwrap_or((vec![0.0; channels], vec![1.0; channels]));
            clips.push(clip_to_tensor(&frames, &mean, &std).map_err(|e| format!("clip: {e}"))?);
            labels.push(
                self.dataset
                    .get(s.video_id)
                    .ok_or_else(|| format!("video {} not in dataset", s.video_id))?
                    .class_id,
            );
        }
        let tensor = stack(&clips).map_err(|e| format!("stack: {e}"))?;
        Ok(Expected {
            digest: digest(&tensor.to_bytes()),
            shape: tensor.shape().to_vec(),
            labels,
        })
    }

    /// Every video of the dataset appears exactly once in each planned
    /// epoch of `tag` that was served.
    fn coverage(&self, plan: &TaskPlan, tag: &str, epoch: u64) -> Result<(), String> {
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        for it in 0..plan.iters_per_epoch {
            let batch = plan.batch(epoch, it).map_err(|e| e.to_string())?;
            for s in &batch.samples {
                *seen.entry(s.video_id).or_default() += 1;
            }
        }
        let all: BTreeSet<u64> = self.dataset.videos().iter().map(|v| v.video_id).collect();
        let visited: BTreeSet<u64> = seen.keys().copied().collect();
        if visited != all || seen.values().any(|&n| n != 1) {
            return Err(format!(
                "{tag} epoch {epoch} does not visit every video exactly once"
            ));
        }
        Ok(())
    }

    /// Checks served records: bit identity, shapes, labels, and per-epoch
    /// coverage. `threads` workers recompute the distinct batches.
    pub fn check(
        &self,
        served: &[Served],
        expected_shape: &dyn Fn(&str) -> Vec<usize>,
        threads: usize,
    ) -> Result<(), String> {
        if served.is_empty() {
            return Err("no batch was served".into());
        }
        let mut chunks: BTreeSet<(String, u64)> = BTreeSet::new();
        let mut epochs: BTreeMap<(String, u64), BTreeSet<u64>> = BTreeMap::new();
        for s in served {
            chunks.insert((s.tag.clone(), s.epoch - s.epoch % self.epochs_per_chunk));
            epochs
                .entry((s.tag.clone(), s.epoch))
                .or_default()
                .insert(s.iteration);
        }
        let work: Vec<(String, u64)> = chunks.into_iter().collect();
        let expected: Mutex<HashMap<BatchKey, Expected>> = Mutex::new(HashMap::new());
        let failure: Mutex<Option<String>> = Mutex::new(None);
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some((tag, start)) = work.get(i) else {
                        return;
                    };
                    let result = self.check_chunk(tag, *start, &epochs);
                    match result {
                        Ok(batches) => expected.lock().expect("no panics").extend(batches),
                        Err(e) => {
                            failure.lock().expect("no panics").get_or_insert(e);
                            return;
                        }
                    }
                });
            }
        });
        if let Some(e) = failure.into_inner().expect("no panics") {
            return Err(e);
        }
        let expected = expected.into_inner().expect("no panics");
        for s in served {
            let key = (s.tag.clone(), s.epoch, s.iteration);
            let exp = expected
                .get(&key)
                .ok_or_else(|| format!("no reference for {key:?}"))?;
            if s.digest != exp.digest {
                return Err(format!(
                    "{} epoch {} iteration {}: served bytes differ from the reference",
                    s.tag, s.epoch, s.iteration
                ));
            }
            if s.shape != exp.shape || s.shape != expected_shape(&s.tag) {
                return Err(format!(
                    "{} epoch {} iteration {}: shape {:?}, expected {:?}",
                    s.tag,
                    s.epoch,
                    s.iteration,
                    s.shape,
                    expected_shape(&s.tag)
                ));
            }
            if s.labels != exp.labels {
                return Err(format!(
                    "{} epoch {} iteration {}: labels {:?}, dataset says {:?}",
                    s.tag, s.epoch, s.iteration, s.labels, exp.labels
                ));
            }
        }
        Ok(())
    }

    /// Plans one chunk, checks coverage of its served epochs, and
    /// recomputes the served batches in it.
    fn check_chunk(
        &self,
        tag: &str,
        start: u64,
        epochs: &BTreeMap<(String, u64), BTreeSet<u64>>,
    ) -> Result<Vec<(BatchKey, Expected)>, String> {
        let plan = self.plan(tag, start)?;
        let mut out = Vec::new();
        for epoch in start..start + self.epochs_per_chunk {
            let Some(iters) = epochs.get(&(tag.to_string(), epoch)) else {
                continue;
            };
            self.coverage(&plan, tag, epoch)?;
            if iters.len() as u64 != plan.iters_per_epoch {
                return Err(format!(
                    "{tag} epoch {epoch}: served {} of {} iterations",
                    iters.len(),
                    plan.iters_per_epoch
                ));
            }
            for &it in iters {
                out.push((
                    (tag.to_string(), epoch, it),
                    self.compute(&plan, epoch, it)?,
                ));
            }
        }
        Ok(out)
    }
}

/// Distinct augmentation-op applications in the tasks' plans over
/// `epochs`: one per distinct (video, source frame, op-chain prefix).
/// With sharing, an engine applies at most this many ops.
pub fn distinct_op_applications(
    dataset: &Dataset,
    tasks: &[TaskConfig],
    seed: u64,
    epochs_per_chunk: u64,
    epochs: u64,
) -> Result<u64, String> {
    let mut seen: BTreeSet<(u64, usize, String)> = BTreeSet::new();
    for task in tasks {
        let mut start = 0;
        while start < epochs {
            let plan = TaskPlan::single_task(task, dataset, start..start + epochs_per_chunk, seed)
                .map_err(|e| format!("plan {}: {e}", task.tag))?;
            for batch in &plan.graph.batches {
                for s in &batch.samples {
                    for (&frame, &terminal) in s.frame_indices.iter().zip(&s.frame_nodes) {
                        let mut prefix = String::new();
                        for op in sand::train::chain_ops(&plan.graph, terminal) {
                            prefix.push_str(&format!("{op:?};"));
                            seen.insert((s.video_id, frame, prefix.clone()));
                        }
                    }
                }
            }
            start += epochs_per_chunk;
        }
    }
    Ok(seen.len() as u64)
}

#[cfg(test)]
mod tests {
    //! The checker must reject wrong outputs, or its passes mean nothing.

    use super::*;
    use crate::run::{expected_shape, serve_one, Target};
    use crate::spec::{task, TAG};
    use crate::trace::Tracer;
    use sand::codec::{DatasetSpec, EncoderConfig};
    use sand::core::{EngineConfig, SandEngine};
    use std::sync::Arc;

    const SEED: u64 = 77;

    fn dataset() -> Arc<Dataset> {
        Arc::new(
            Dataset::generate(&DatasetSpec {
                num_videos: 8,
                num_classes: 3,
                width: 32,
                height: 32,
                frames_per_video: 32,
                encoder: EncoderConfig {
                    gop_size: 8,
                    quantizer: 4,
                    fps_milli: 30_000,
                    b_frames: 0,
                },
                ..Default::default()
            })
            .expect("dataset"),
        )
    }

    /// Serves two epochs through the VFS as the benchmark does; returns
    /// the records and the engine.
    fn served(ds: &Arc<Dataset>) -> (Vec<Served>, SandEngine) {
        let engine = SandEngine::new(
            EngineConfig {
                tasks: vec![task(TAG, 48, 0.45)],
                total_epochs: 2,
                seed: SEED,
                ..Default::default()
            },
            Arc::clone(ds),
        )
        .expect("engine");
        engine.start().expect("start");
        let target = Target::Single {
            engine: engine.clone(),
            vfs: engine.mount(),
        };
        let mut tracer = Tracer::new(false);
        let iters = engine.iterations_per_epoch(TAG).expect("task");
        let mut out = Vec::new();
        for epoch in 0..2 {
            for it in 0..iters {
                out.push(
                    serve_one(&target, "", epoch, it, 0, &mut tracer)
                        .expect("serve")
                        .0,
                );
            }
        }
        (out, engine)
    }

    fn check(ds: &Dataset, served: &[Served]) -> Result<(), String> {
        let tasks = vec![task(TAG, 48, 0.45)];
        Reference::new(ds, &tasks, SEED, 2).check(served, &expected_shape, 2)
    }

    #[test]
    fn digest_detects_every_single_byte_flip() {
        let base: Vec<u8> = (0..203u32).map(|i| (i * 7) as u8).collect();
        let d = digest(&base);
        for pos in 0..base.len() {
            for bit in [0x01u8, 0x80] {
                let mut b = base.clone();
                b[pos] ^= bit;
                assert_ne!(digest(&b), d, "flip at {pos}");
            }
        }
        assert_ne!(digest(&base[..202]), d);
    }

    #[test]
    fn engine_output_passes_and_corruptions_are_rejected() {
        let ds = dataset();
        let (good, engine) = served(&ds);
        assert!(good.len() >= 4);
        check(&ds, &good).expect("the engine's own output must pass");

        // One flipped byte in one batch.
        let mut bytes = engine.serve_batch(TAG, 1, 1).expect("serve");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut flipped = good.clone();
        let victim = flipped
            .iter_mut()
            .find(|s| s.epoch == 1 && s.iteration == 1)
            .expect("batch 1/1 was served");
        victim.digest = digest(&bytes);
        let err = check(&ds, &flipped).expect_err("a flipped byte must be rejected");
        assert!(err.contains("differ"), "{err}");

        // Two batches swapped.
        let mut swapped = good.clone();
        let (a, b) = (swapped[0].digest, swapped[1].digest);
        assert_ne!(a, b);
        swapped[0].digest = b;
        swapped[1].digest = a;
        assert!(
            check(&ds, &swapped).is_err(),
            "swapped batches must be rejected"
        );

        // A wrong label.
        let mut relabelled = good.clone();
        relabelled[2].labels[0] += 1;
        let err = check(&ds, &relabelled).expect_err("a wrong label must be rejected");
        assert!(err.contains("labels"), "{err}");

        // A wrong shape, and a missing iteration of an epoch.
        let mut reshaped = good.clone();
        reshaped[0].shape[3] = 40;
        assert!(
            check(&ds, &reshaped).is_err(),
            "a wrong shape must be rejected"
        );
        assert!(
            check(&ds, &good[1..]).is_err(),
            "a partial epoch must be rejected"
        );
        assert!(check(&ds, &[]).is_err(), "no output must not pass");
        drop(engine);
    }
}
