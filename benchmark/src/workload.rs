//! The four workloads: which models each builds from the seed, and the fixed
//! list of points (model, schedule, memory location) one pass runs.

use fuseflow_core::schedule::Schedule;
use fuseflow_models::{
    gcn, gpt_attention, gpt_decoder, graph_dataset, graphsage, map_stack, sae, GraphDataset,
    ModelInstance,
};
use fuseflow_sam::MemLocation;
use fuseflow_tensor::gen::GraphPattern;
use std::ops::Range;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FusionSweep,
    UnfusedZoo,
    SimDense,
    ScheduleSearch,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::FusionSweep, Kind::UnfusedZoo, Kind::SimDense, Kind::ScheduleSearch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FusionSweep => "fusion_sweep",
            Kind::UnfusedZoo => "unfused_zoo",
            Kind::SimDense => "sim_dense",
            Kind::ScheduleSearch => "schedule_search",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Fusion granularity of a point, for the per-granularity layer metrics.
/// Search candidates that are neither extreme count as `Partial`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gran {
    Unfused = 0,
    Partial = 1,
    Full = 2,
}

impl Gran {
    pub const NAMES: [&'static str; 3] = ["unfused", "partial", "full"];
}

/// The paper's four model families (Fig 12), for the full-over-unfused
/// cycle ratios.
pub const FAMILIES: [&str; 4] = ["sae", "gcn", "graphsage", "gpt"];

pub struct Model {
    pub instance: ModelInstance,
    /// Index into [`FAMILIES`], where the model belongs to one.
    pub family: Option<usize>,
}

pub struct Point {
    pub name: String,
    /// Index into [`Workload::models`].
    pub model: usize,
    pub schedule: Schedule,
    pub location: MemLocation,
    /// Whether the point is simulated and reference-checked, or only
    /// compiled and scored (search candidates the heuristic prunes).
    pub simulate: bool,
    pub gran: Gran,
}

pub struct Workload {
    pub kind: Kind,
    pub models: Vec<Model>,
    pub points: Vec<Point>,
    /// Seconds spent in the model builders (they also generate the inputs).
    pub build_s: f64,
}

/// splitmix64: the harness's own generator, so workload inputs depend on
/// `--seed` alone and not on the library's generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent 32-bit seed for the `k`-th model of a workload (the
/// builders add small offsets to it for each tensor).
fn model_seed(seed: u64, k: u64) -> u64 {
    let mut s = seed ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s) >> 32
}

/// `count` distinct cut masks out of the `2^(exprs-1)` contiguous
/// partitions of an `exprs`-expression program, none of them in `exclude`:
/// a seeded partial Fisher-Yates shuffle, so the same seed draws the same
/// masks in the same order. Every drawn mask is followed by its complement
/// (each cut swapped with a non-cut). Compile cost follows the number and
/// size of the regions, and pairing keeps the total number of cuts in the
/// drawn set the same whatever the seed, which keeps seed-to-seed
/// variation of the compile time small.
fn draw_masks(exprs: usize, count: usize, seed: u64, exclude: &[u32]) -> Vec<u32> {
    let all_cuts = (1u32 << (exprs - 1)) - 1;
    // One representative per complementary pair: the one without the top cut.
    let mut pool: Vec<u32> = (0..=all_cuts / 2)
        .filter(|m| !exclude.contains(m) && !exclude.contains(&(m ^ all_cuts)))
        .collect();
    assert!(count % 2 == 0 && count / 2 <= pool.len(), "cannot draw {count} masks");
    let mut state = seed;
    let mut out = Vec::with_capacity(count);
    for i in 0..count / 2 {
        let j = i + (splitmix64(&mut state) % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
        out.extend([pool[i], pool[i] ^ all_cuts]);
    }
    out
}

/// The contiguous regions a cut mask stands for: bit `i` set cuts between
/// expression `i` and `i + 1`.
fn mask_regions(mask: u32, exprs: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 0..exprs {
        if i + 1 == exprs || mask & (1 << i) != 0 {
            out.push(start..i + 1);
            start = i + 1;
        }
    }
    out
}

fn mask_gran(mask: u32, exprs: usize) -> Gran {
    if mask == 0 {
        Gran::Full
    } else if mask == (1u32 << (exprs - 1)) - 1 {
        Gran::Unfused
    } else {
        Gran::Partial
    }
}

fn scaled(ds: &GraphDataset, div: usize) -> GraphDataset {
    GraphDataset { nodes: ds.nodes / div, feats: ds.feats / div, ..*ds }
}

fn dataset(name: &str) -> &'static GraphDataset {
    graph_dataset(name).unwrap_or_else(|| panic!("dataset '{name}' left the registry"))
}

/// Zachary's karate club: 34 nodes, 78 edges.
const KARATE: GraphDataset = GraphDataset {
    name: "karate",
    nodes: 34,
    feats: 16,
    density: 0.135,
    pattern: GraphPattern::Uniform,
};

/// The cut mask of a contiguous region list; inverse of [`mask_regions`].
fn regions_mask(regions: &[Range<usize>]) -> u32 {
    let inner_ends = regions.iter().rev().skip(1);
    inner_ends.fold(0, |mask, r| mask | 1 << (r.end - 1))
}

/// The GCN partitions `schedule_search` also simulates. They are fixed, so
/// that simulated cycles do not depend on which partitions the seed draws:
/// unfused, a cut after every second kernel, the model's own partial
/// schedule (one region per layer), and that with one more cut mid-program.
fn simulated_gcn_masks(model: &ModelInstance) -> [u32; 4] {
    let exprs = model.program.exprs().len();
    let all_cuts = (1u32 << (exprs - 1)) - 1;
    let partial = Schedule::regions(model.partial_regions.clone()).resolve_regions(exprs);
    let per_layer = regions_mask(&partial);
    [all_cuts, all_cuts & 0xAAAA_AAAA, per_layer, per_layer | 1 << (exprs / 2)]
}

/// How many more GCN partitions `schedule_search` draws by seed (compiled
/// and scored only). Every SAE partition is a candidate; every
/// `SAE_SIM_STRIDE`-th is simulated.
const GCN_DRAWS: usize = 156;
const SAE_SIM_STRIDE: usize = 9;

struct Builder {
    seed: u64,
    models: Vec<Model>,
    points: Vec<Point>,
}

impl Builder {
    fn model(&mut self, family: Option<&str>, build: impl FnOnce(u64) -> ModelInstance) -> usize {
        let instance = build(model_seed(self.seed, self.models.len() as u64));
        let family = family.map(|f| FAMILIES.iter().position(|x| *x == f).expect("known family"));
        self.models.push(Model { instance, family });
        self.models.len() - 1
    }

    fn point(
        &mut self,
        model: usize,
        label: &str,
        schedule: Schedule,
        location: MemLocation,
        simulate: bool,
        gran: Gran,
    ) {
        let name = format!("{}/{label}", self.models[model].instance.name);
        self.points.push(Point { name, model, schedule, location, simulate, gran });
    }

    /// Unfused, partial and full points of one model, DRAM-resident.
    fn granularities(&mut self, model: usize) {
        let m = &self.models[model].instance;
        let (partial, full) = (m.partial_regions.clone(), m.full_regions.clone());
        self.point(model, "unfused", Schedule::unfused(), MemLocation::Dram, true, Gran::Unfused);
        self.point(
            model,
            "partial",
            Schedule::regions(partial),
            MemLocation::Dram,
            true,
            Gran::Partial,
        );
        self.point(model, "full", Schedule::regions(full), MemLocation::Dram, true, Gran::Full);
    }

    fn fully_fused_on_chip(&mut self, model: usize) {
        let full = self.models[model].instance.full_regions.clone();
        self.point(model, "full", Schedule::regions(full), MemLocation::OnChip, true, Gran::Full);
    }

    fn candidates(&mut self, model: usize, masks: &[u32], simulated: impl Fn(usize) -> bool) {
        let exprs = self.models[model].instance.program.exprs().len();
        for (i, &mask) in masks.iter().enumerate() {
            self.point(
                model,
                &format!("cut{mask:0width$b}", width = exprs - 1),
                Schedule::regions(mask_regions(mask, exprs)),
                MemLocation::Dram,
                simulated(i),
                mask_gran(mask, exprs),
            );
        }
    }
}

impl Workload {
    /// Builds the models and inputs of `kind` from `seed`. `smoke` divides
    /// the tensor sizes by four (same points, same code paths).
    pub fn build(kind: Kind, seed: u64, smoke: bool) -> Workload {
        let div = if smoke { 2 } else { 1 };
        let t0 = Instant::now();
        let mut b = Builder { seed, models: Vec::new(), points: Vec::new() };
        match kind {
            Kind::FusionSweep => {
                let cora = scaled(dataset("cora"), 6 * div);
                let models = [
                    b.model(Some("sae"), |s| sae("imagenet", 48 / div, 24 / div, 4, 0.5, s)),
                    b.model(Some("gcn"), |s| gcn(&cora, 16 / div, 8 / div, s)),
                    b.model(Some("graphsage"), |s| graphsage(&cora, 16 / div, 8 / div, s)),
                    b.model(Some("gpt"), |s| gpt_decoder(64 / div, 8 / div, 16 / div, s)),
                ];
                for m in models {
                    b.granularities(m);
                }
            }
            Kind::UnfusedZoo => {
                let cora = scaled(dataset("cora"), 2 * div);
                let dblp = scaled(dataset("dblp"), 2 * div);
                let models = [
                    b.model(Some("gcn"), |s| gcn(&cora, 16 / div, 8 / div, s)),
                    b.model(Some("graphsage"), |s| graphsage(&dblp, 16 / div, 8 / div, s)),
                    b.model(Some("gpt"), |s| gpt_decoder(64 / div, 16 / div, 16 / div, s)),
                    b.model(Some("sae"), |s| sae("nih-cxr", 256 / div, 64 / div, 4, 0.5, s)),
                ];
                for m in models {
                    b.point(
                        m,
                        "unfused",
                        Schedule::unfused(),
                        MemLocation::Dram,
                        true,
                        Gran::Unfused,
                    );
                }
            }
            Kind::SimDense => {
                let karate = scaled(&KARATE, div);
                let models = [
                    b.model(None, |s| map_stack(96 / div, 48 / div, 0.5, s)),
                    b.model(Some("gcn"), |s| gcn(&karate, 8 / div, 4 / div, s)),
                    b.model(Some("graphsage"), |s| graphsage(&karate, 8 / div, 4 / div, s)),
                    b.model(Some("sae"), |s| sae("sae", 40 / div, 20 / div, 8 / div, 0.5, s)),
                    b.model(Some("gpt"), |s| gpt_attention(48 / div, 8 / div, 8 / div, s)),
                ];
                for m in models {
                    b.fully_fused_on_chip(m);
                }
            }
            Kind::ScheduleSearch => {
                let cora = scaled(dataset("cora"), 8 * div);
                let g = b.model(Some("gcn"), |s| gcn(&cora, 16 / div, 8 / div, s));
                let a = b.model(Some("sae"), |s| sae("imagenet", 24 / div, 24 / div, 4, 0.5, s));
                let gcn_exprs = b.models[g].instance.program.exprs().len();
                let sae_exprs = b.models[a].instance.program.exprs().len();
                let fixed = simulated_gcn_masks(&b.models[g].instance);
                b.candidates(g, &fixed, |_| true);
                let drawn = draw_masks(gcn_exprs, GCN_DRAWS, seed, &fixed);
                b.candidates(g, &drawn, |_| false);
                let every: Vec<u32> = (0..1u32 << (sae_exprs - 1)).collect();
                b.candidates(a, &every, |i| i % SAE_SIM_STRIDE == 0);
            }
        }
        Workload { kind, models: b.models, points: b.points, build_s: t0.elapsed().as_secs_f64() }
    }

    /// Non-zeros and storage bytes of every model input.
    pub fn input_size(&self) -> (u64, u64) {
        let tensors = self.models.iter().flat_map(|m| m.instance.inputs.values());
        tensors.fold((0, 0), |(nnz, bytes), t| {
            (nnz + t.nnz() as u64, bytes + t.storage_bytes() as u64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_draws_the_same_masks_and_another_seed_does_not() {
        let exclude = [0b111_1111_1111, 0b100_0000_1000];
        let a = draw_masks(12, GCN_DRAWS, 1, &exclude);
        assert_eq!(a, draw_masks(12, GCN_DRAWS, 1, &exclude));
        assert_ne!(a, draw_masks(12, GCN_DRAWS, 2, &exclude));
        assert_eq!(a.len(), GCN_DRAWS);
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), GCN_DRAWS);
        assert!(a.iter().all(|m| *m < 1 << 11 && !exclude.contains(m)));
        // Complementary pairs: the cuts of the drawn set do not depend on the seed.
        assert!(a.chunks(2).all(|pair| pair[0] ^ pair[1] == (1 << 11) - 1));
        assert_eq!(a.iter().map(|m| m.count_ones()).sum::<u32>(), 11 * GCN_DRAWS as u32 / 2);
        // Drawing every mask is a permutation of all of them.
        let mut all = draw_masks(6, 32, 9, &[]);
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<u32>>());
    }

    #[test]
    fn cut_masks_become_contiguous_region_lists() {
        assert_eq!(mask_regions(0, 4), vec![0..4]);
        assert_eq!(mask_regions(0b111, 4), vec![0..1, 1..2, 2..3, 3..4]);
        assert_eq!(mask_regions(0b010, 4), vec![0..2, 2..4]);
        assert_eq!(mask_regions(0b101, 4), vec![0..1, 1..3, 3..4]);
        assert_eq!(mask_regions(0, 1), vec![0..1]);
        for mask in 0..32 {
            let regions = mask_regions(mask, 6);
            assert_eq!(regions.len(), mask.count_ones() as usize + 1);
            assert_eq!(Schedule::regions(regions.clone()).resolve_regions(6), regions);
            assert_eq!(regions_mask(&regions), mask);
        }
        assert_eq!(mask_gran(0, 6), Gran::Full);
        assert_eq!(mask_gran(31, 6), Gran::Unfused);
        assert_eq!(mask_gran(4, 6), Gran::Partial);
    }

    #[test]
    fn workloads_have_their_expected_point_counts() {
        for (kind, points, simulated) in [
            (Kind::FusionSweep, 12, 12),
            (Kind::UnfusedZoo, 4, 4),
            (Kind::SimDense, 5, 5),
            (Kind::ScheduleSearch, 192, 8),
        ] {
            let w = Workload::build(kind, 1, true);
            assert_eq!(w.points.len(), points, "{}", kind.name());
            assert_eq!(w.points.iter().filter(|p| p.simulate).count(), simulated);
            assert!(w.points.iter().all(|p| p.model < w.models.len()));
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("all"), None);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let size = |seed| Workload::build(Kind::UnfusedZoo, seed, true).input_size();
        assert_eq!(size(3), size(3));
        let inputs = |seed| {
            let w = Workload::build(Kind::SimDense, seed, true);
            w.models[0].instance.inputs["X"].clone()
        };
        assert_eq!(inputs(5), inputs(5));
        assert_ne!(inputs(5), inputs(6));
    }
}
