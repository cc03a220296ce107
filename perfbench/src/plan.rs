//! Seeded inputs. The seed permutes kernel order (sweep-warm, trace-cold)
//! and draws the request sequence (serve-warm); the program only ever sees
//! the generated inputs.

use helios::FusionMode;
use helios_prng::{SeedableRng, SliceRandom, StdRng};

/// `items` in an order fixed by `seed`.
pub fn permuted<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    out.shuffle(&mut StdRng::seed_from_u64(seed));
    out
}

/// One sweep request: a sub-grid of workloads × modes.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub workloads: Vec<&'static str>,
    pub modes: Vec<FusionMode>,
}

/// The requests of pass `pass`: one request of every grid shape, 1..=8 of
/// `pool`'s workloads (capped at the pool size) × 1..=6 fusion modes, in a
/// seeded order, each drawing its workloads and modes without replacement.
/// Every pass carries the same number of cells, so passes compare; the
/// seed decides which workloads and modes, and in what order.
pub fn pass_requests(seed: u64, pass: u64, pool: &[&'static str]) -> Vec<Request> {
    let mixed = seed ^ pass.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut rng = StdRng::seed_from_u64(mixed);
    let modes = FusionMode::ALL.len();
    let mut shapes: Vec<(usize, usize)> = (1..=pool.len().min(8))
        .flat_map(|w| (1..=modes).map(move |m| (w, m)))
        .collect();
    shapes.shuffle(&mut rng);
    shapes
        .into_iter()
        .map(|(nw, nm)| {
            let mut workloads = pool.to_vec();
            workloads.shuffle(&mut rng);
            workloads.truncate(nw);
            let mut modes = FusionMode::ALL.to_vec();
            modes.shuffle(&mut rng);
            modes.truncate(nm);
            Request { workloads, modes }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const POOL: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];

    #[test]
    fn same_seed_same_kernel_order_and_requests() {
        assert_eq!(permuted(&POOL, 5), permuted(&POOL, 5));
        assert_eq!(pass_requests(5, 0, &POOL), pass_requests(5, 0, &POOL));
        assert_eq!(pass_requests(5, 3, &POOL), pass_requests(5, 3, &POOL));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(permuted(&POOL, 1), permuted(&POOL, 2));
        assert_ne!(pass_requests(1, 0, &POOL), pass_requests(2, 0, &POOL));
        // Successive passes of one run draw different requests too.
        assert_ne!(pass_requests(1, 0, &POOL), pass_requests(1, 1, &POOL));
    }

    #[test]
    fn permutation_keeps_every_item() {
        let mut p = permuted(&POOL, 9);
        p.sort_unstable();
        assert_eq!(p, POOL);
    }

    #[test]
    fn a_pass_holds_every_shape_once() {
        let reqs = pass_requests(3, 0, &POOL);
        let mut shapes: Vec<(usize, usize)> = reqs
            .iter()
            .map(|r| (r.workloads.len(), r.modes.len()))
            .collect();
        shapes.sort_unstable();
        let all: Vec<(usize, usize)> = (1..=8).flat_map(|w| (1..=6).map(move |m| (w, m))).collect();
        assert_eq!(shapes, all);
        for r in &reqs {
            let mut w = r.workloads.clone();
            w.sort_unstable();
            w.dedup();
            assert_eq!(
                w.len(),
                r.workloads.len(),
                "workloads drawn without replacement"
            );
        }
        // A pool smaller than eight caps the workload count.
        assert_eq!(pass_requests(3, 0, &POOL[..2]).len(), 2 * 6);
    }
}
