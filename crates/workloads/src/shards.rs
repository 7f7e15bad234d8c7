//! Open-loop sharded-replication workload (the Derecho-style deployment
//! of paper §I/§VII: many small overlapping RDMC groups on one fabric).
//!
//! A key/value store shards its state over a cluster; each shard is an
//! RDMC group of `replication_factor` nodes, and consecutive shards
//! overlap on the ring, so every node serves several tenants at once.
//! Updates arrive *open loop*: an exponential arrival process offers
//! load at a configured aggregate rate whether or not the fabric keeps
//! up — exactly the regime where per-NIC admission control matters,
//! because a backlogged node cannot push back on the arrival process.
//!
//! Everything is deterministic given the seed (no wall clock): the
//! schedule is a pure function of the configuration, so simulation
//! sweeps are reproducible bit-for-bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::cosmos::sample_lognormal;

/// One replicated update offered to the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardArrival {
    /// Arrival time in virtual nanoseconds from the start of the run.
    pub at_ns: u64,
    /// The shard (group) the update is for.
    pub shard: usize,
    /// Update size in bytes.
    pub size: u64,
}

/// Generator configuration for the sharded open-loop workload.
#[derive(Clone, Debug)]
pub struct ShardedWorkload {
    /// RNG seed (the schedule is deterministic given the seed).
    pub seed: u64,
    /// Nodes in the cluster the shards are laid out over.
    pub nodes: usize,
    /// Number of shards (one RDMC group each).
    pub shards: usize,
    /// Replicas per shard (group size).
    pub replication_factor: usize,
    /// Aggregate offered load across all shards, in Gb/s. The arrival
    /// rate is `offered / (8 * mean size)`; tail clamping makes the
    /// realized load land slightly below this figure.
    pub offered_gbps: f64,
    /// Median update size in bytes (log-normal, as in the Cosmos trace).
    pub median_bytes: f64,
    /// Mean update size in bytes.
    pub mean_bytes: f64,
    /// Smallest update.
    pub min_bytes: u64,
    /// Largest update.
    pub max_bytes: u64,
}

impl Default for ShardedWorkload {
    fn default() -> Self {
        ShardedWorkload {
            seed: 0x5AAD,
            nodes: 16,
            shards: 8,
            replication_factor: 3,
            offered_gbps: 20.0,
            median_bytes: 2e6,
            mean_bytes: 4e6,
            min_bytes: 4 << 10,
            max_bytes: 64 << 20,
        }
    }
}

impl ShardedWorkload {
    /// Fabric nodes of one shard, root first: `replication_factor`
    /// consecutive nodes on the ring starting at the shard's home node.
    /// Roots are spread evenly over the cluster, and consecutive shards
    /// overlap whenever `shards * replication_factor > nodes`.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range or the configuration is
    /// degenerate (no nodes/shards, or more replicas than nodes).
    pub fn members(&self, shard: usize) -> Vec<usize> {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        assert!(self.nodes > 0 && self.shards > 0, "empty layout");
        assert!(
            self.replication_factor >= 1 && self.replication_factor <= self.nodes,
            "cannot place {} replicas on {} nodes",
            self.replication_factor,
            self.nodes
        );
        let home = shard * self.nodes / self.shards;
        (0..self.replication_factor)
            .map(|i| (home + i) % self.nodes)
            .collect()
    }

    /// Mean arrivals per second implied by the offered load and the mean
    /// update size.
    pub fn arrival_rate_per_sec(&self) -> f64 {
        assert!(self.offered_gbps > 0.0, "offered load must be positive");
        self.offered_gbps * 1e9 / (self.mean_bytes * 8.0)
    }

    /// Generates the first `count` arrivals of the open-loop schedule:
    /// exponential inter-arrival gaps at [`Self::arrival_rate_per_sec`],
    /// shards drawn uniformly, sizes log-normal (clamped to the
    /// configured range).
    pub fn generate(&self, count: usize) -> Vec<ShardArrival> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rate = self.arrival_rate_per_sec();
        let mu = self.median_bytes.ln();
        assert!(
            self.mean_bytes > self.median_bytes,
            "log-normal mean must exceed the median"
        );
        let sigma = (2.0 * (self.mean_bytes / self.median_bytes).ln()).sqrt();
        let mut at_ns = 0u64;
        (0..count)
            .map(|_| {
                let u: f64 = rng.random_range(f64::EPSILON..1.0);
                let gap_s = -u.ln() / rate;
                at_ns += (gap_s * 1e9) as u64;
                let shard = rng.random_range(0..self.shards);
                let size = sample_lognormal(&mut rng, mu, sigma)
                    .clamp(self.min_bytes as f64, self.max_bytes as f64)
                    as u64;
                ShardArrival { at_ns, shard, size }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let w = ShardedWorkload::default();
        assert_eq!(w.generate(200), w.generate(200));
        let other = ShardedWorkload {
            seed: 9,
            ..ShardedWorkload::default()
        };
        assert_ne!(w.generate(200), other.generate(200));
    }

    #[test]
    fn arrivals_are_ordered_and_in_range() {
        let w = ShardedWorkload::default();
        let arrivals = w.generate(2_000);
        for pair in arrivals.windows(2) {
            assert!(pair[0].at_ns <= pair[1].at_ns);
        }
        for a in &arrivals {
            assert!(a.shard < w.shards);
            assert!((w.min_bytes..=w.max_bytes).contains(&a.size));
        }
    }

    #[test]
    fn realized_rate_tracks_the_offered_load() {
        let w = ShardedWorkload::default();
        let arrivals = w.generate(20_000);
        let span_s = arrivals.last().unwrap().at_ns as f64 / 1e9;
        let rate = arrivals.len() as f64 / span_s;
        let expected = w.arrival_rate_per_sec();
        assert!(
            (rate / expected - 1.0).abs() < 0.05,
            "empirical {rate}/s vs configured {expected}/s"
        );
    }

    #[test]
    fn doubling_load_halves_the_span() {
        let base = ShardedWorkload::default();
        let double = ShardedWorkload {
            offered_gbps: base.offered_gbps * 2.0,
            ..base.clone()
        };
        let a = base.generate(5_000);
        let b = double.generate(5_000);
        let ratio = a.last().unwrap().at_ns as f64 / b.last().unwrap().at_ns as f64;
        assert!((ratio - 2.0).abs() < 0.05, "span ratio {ratio}");
    }

    #[test]
    fn shard_layout_spreads_roots_and_overlaps() {
        let w = ShardedWorkload::default(); // 16 nodes, 8 shards, rf 3
        let layouts: Vec<Vec<usize>> = (0..w.shards).map(|s| w.members(s)).collect();
        // Distinct roots, evenly spread.
        let roots: Vec<usize> = layouts.iter().map(|m| m[0]).collect();
        assert_eq!(roots, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        // rf=3 on stride-2 homes: consecutive shards share one node.
        for s in 0..w.shards {
            let next = &layouts[(s + 1) % w.shards];
            assert!(
                layouts[s].iter().any(|n| next.contains(n)),
                "shards {s} and {} do not overlap",
                (s + 1) % w.shards
            );
        }
        // Every member is a valid node.
        for m in layouts.iter().flatten() {
            assert!(*m < w.nodes);
        }
    }

    #[test]
    fn wrap_around_layout_is_valid() {
        let w = ShardedWorkload {
            nodes: 5,
            shards: 5,
            replication_factor: 3,
            ..ShardedWorkload::default()
        };
        for s in 0..5 {
            let m = w.members(s);
            assert_eq!(m.len(), 3);
            let mut d = m.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "duplicate member in {m:?}");
        }
    }
}
