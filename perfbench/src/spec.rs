//! Workload definitions: dataset, pipelines, engine settings, round size.
//!
//! Every input is a function of the run seed. Engine settings stay at
//! their defaults except the worker count (sized to the host) and the
//! settings that define a workload: budgets, store directory, tenancy and
//! epochs.

use sand::codec::{DatasetSpec, EncoderConfig};
use sand::config::{parse_task_config, TaskConfig};
use sand::core::fleet::{FleetConfig, TenantSpec};
use sand::core::EngineConfig;
use sand::sched::SchedConfig;
use sand::storage::StoreConfig;
use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One task, memory-only store several times smaller than the bytes
    /// a round materializes: decode, augmentation, eviction, planning.
    TrainEvict,
    /// Four weighted trial tenants on one fleet sharing decode and
    /// resize: singleflight, weighted scheduling, memory-tier hits.
    TrialsShared,
    /// A prepared persistent store reopened and served: log replay,
    /// disk-tier reads, decompression.
    RestartLog,
}

/// Task tag of the single-task workloads.
pub const TAG: &str = "train";

/// Videos per batch and frames per clip (every pipeline).
pub const VIDEOS_PER_BATCH: usize = 4;
/// Frames per sampled clip.
pub const FRAMES_PER_CLIP: usize = 12;

/// One trial tenant of `trials-shared`.
pub struct Trial {
    pub name: &'static str,
    pub weight: u64,
    pub crop: usize,
    pub mean: f32,
}

/// The trial roster: two pairs differing in crop size; within a pair the
/// trials differ in their normalization constants.
pub const TRIALS: [Trial; 4] = [
    Trial {
        name: "t0",
        weight: 1,
        crop: 48,
        mean: 0.45,
    },
    Trial {
        name: "t1",
        weight: 2,
        crop: 48,
        mean: 0.5,
    },
    Trial {
        name: "t2",
        weight: 3,
        crop: 40,
        mean: 0.45,
    },
    Trial {
        name: "t3",
        weight: 4,
        crop: 40,
        mean: 0.5,
    },
];

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "train-evict" => Some(Workload::TrainEvict),
            "trials-shared" => Some(Workload::TrialsShared),
            "restart-log" => Some(Workload::RestartLog),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainEvict => "train-evict",
            Workload::TrialsShared => "trials-shared",
            Workload::RestartLog => "restart-log",
        }
    }

    /// Epochs one round serves; a run repeats whole rounds.
    pub fn epochs_per_round(self) -> u64 {
        match self {
            Workload::TrainEvict => 8,
            Workload::TrialsShared => 4,
            Workload::RestartLog => 8,
        }
    }

    /// The synthetic dataset of a run.
    pub fn dataset_spec(self, seed: u64) -> DatasetSpec {
        DatasetSpec {
            num_videos: 96,
            num_classes: 8,
            width: 64,
            height: 64,
            frames_per_video: 48,
            encoder: EncoderConfig {
                gop_size: 8,
                quantizer: 4,
                fps_milli: 30_000,
                b_frames: 0,
            },
            noise_level: 6,
            seed: mix(seed ^ 0xda7a),
            ..Default::default()
        }
    }

    /// The planning seed of a run's engine.
    pub fn plan_seed(seed: u64) -> u64 {
        mix(seed ^ 0x91a4)
    }

    /// The tasks as the engine plans them, with their planned tags
    /// (fleet tenants' tags carry the tenant namespace).
    pub fn planned_tasks(self) -> Vec<TaskConfig> {
        match self {
            Workload::TrainEvict | Workload::RestartLog => vec![task(TAG, 48, 0.45)],
            Workload::TrialsShared => TRIALS
                .iter()
                .map(|t| task(&sand::core::fleet::fleet_tag(t.name, TAG), t.crop, t.mean))
                .collect(),
        }
    }

    /// Engine settings of a run (single-task workloads and the fleet's
    /// base).
    pub fn engine_config(self, seed: u64, store_dir: Option<PathBuf>) -> EngineConfig {
        let epochs = self.epochs_per_round();
        let defaults = EngineConfig::default();
        let (memory_budget, cache_budget) = match self {
            // Several times below what a round materializes.
            Workload::TrainEvict => (32 << 20, 32 << 20),
            // Nothing dead is freed, so the budget must hold every object
            // a round materializes.
            Workload::TrialsShared => (1 << 30, 1 << 30),
            Workload::RestartLog => (32 << 20, 512 << 20),
        };
        EngineConfig {
            tasks: match self {
                Workload::TrialsShared => Vec::new(),
                _ => self.planned_tasks(),
            },
            store: StoreConfig {
                memory_budget,
                ..StoreConfig::default()
            },
            store_dir,
            sched: SchedConfig {
                threads: crate::host::nproc(),
                ..SchedConfig::default()
            },
            seed: Self::plan_seed(seed),
            total_epochs: epochs,
            cache_budget,
            ..defaults
        }
    }

    /// The fleet roster of `trials-shared`.
    pub fn fleet_config(self, seed: u64) -> FleetConfig {
        FleetConfig {
            base: self.engine_config(seed, None),
            tenants: TRIALS
                .iter()
                .map(|t| TenantSpec {
                    name: t.name.to_string(),
                    weight: t.weight,
                    tasks: vec![task(TAG, t.crop, t.mean)],
                })
                .collect(),
            admission_budget: 0,
        }
    }
}

/// decode → bilinear resize 56² → random crop → flip → normalize.
pub fn task(tag: &str, crop: usize, mean: f32) -> TaskConfig {
    let yaml = format!(
        r#"
dataset:
  tag: {tag}
  input_source: file
  video_dataset_path: /dataset/perfbench
  sampling:
    videos_per_batch: {VIDEOS_PER_BATCH}
    frames_per_video: {FRAMES_PER_CLIP}
    frame_stride: 2
  augmentation:
    - name: resize
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [56, 56]
    - name: crop
      branch_type: single
      inputs: ["a0"]
      outputs: ["a1"]
      config:
        - random_crop:
            shape: [{crop}, {crop}]
        - flip:
            flip_prob: 0.5
        - normalize:
            mean: [{mean}, {mean}, {mean}]
            std: [0.225, 0.225, 0.225]
"#
    );
    parse_task_config(&yaml).expect("the benchmark pipeline parses")
}

/// splitmix64 finalizer: spreads a run seed into independent streams.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
