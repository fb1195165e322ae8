//! The seeded input generator every workload draws from.
//!
//! Evidence is forward-sampled from the model ([`BayesNet::sample`]) and
//! each variable of the sample is kept with probability [`KEEP_PROB`],
//! so every generated instance has `Pr(e) > 0`. The query variable of a
//! conditional query is always left unobserved. The seed arrives as a
//! command-line argument; the program under test only ever sees the
//! generated requests.

use problp_bayes::{BatchQuery, BayesNet, Evidence, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability that a sampled variable is kept as evidence.
pub const KEEP_PROB: f64 = 0.5;

/// One deterministic input stream. Streams of the same seed with
/// different `stream` ids are independent of each other.
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// The input stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mixed = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Gen {
            rng: StdRng::seed_from_u64(mixed),
        }
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.random::<f64>()
    }

    /// An exponential inter-arrival time with the given mean: the gap
    /// between two events of a Poisson process.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// A forward sample of `net` with each variable kept with
    /// probability [`KEEP_PROB`]; `hidden` is never observed.
    pub fn evidence(&mut self, net: &BayesNet, hidden: Option<VarId>) -> Evidence {
        let sample = net.sample(&mut self.rng);
        let mut e = Evidence::empty(net.var_count());
        for (v, &state) in sample.iter().enumerate() {
            let var = VarId::from_index(v);
            if Some(var) != hidden && self.rng.random_bool(KEEP_PROB) {
                e.observe(var, state);
            }
        }
        e
    }

    /// A query of a uniformly drawn kind (marginal, MPE or conditional on
    /// a uniformly drawn variable) with evidence to match.
    pub fn query(&mut self, net: &BayesNet) -> (BatchQuery, Evidence) {
        match self.below(3) {
            0 => (BatchQuery::Marginal, self.evidence(net, None)),
            1 => (BatchQuery::Mpe, self.evidence(net, None)),
            _ => {
                let query_var = VarId::from_index(self.below(net.var_count()));
                (
                    BatchQuery::Conditional { query_var },
                    self.evidence(net, Some(query_var)),
                )
            }
        }
    }
}

/// A skewed popularity law over `n` items: item `r` is drawn with
/// probability proportional to `1 / (r + 1)^exponent` (Zipf).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The law over `n > 0` items.
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one item index.
    pub fn draw(&self, gen: &mut Gen) -> usize {
        let u = gen.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use problp_bayes::networks;

    fn states(e: &Evidence) -> Vec<Option<usize>> {
        (0..e.len())
            .map(|v| e.state(VarId::from_index(v)))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        let net = networks::alarm(7);
        let mut a = Gen::new(42, 3);
        let mut b = Gen::new(42, 3);
        for _ in 0..50 {
            let (qa, ea) = a.query(&net);
            let (qb, eb) = b.query(&net);
            assert_eq!(qa, qb);
            assert_eq!(states(&ea), states(&eb));
            assert_eq!(a.exp(500.0).to_bits(), b.exp(500.0).to_bits());
        }
    }

    #[test]
    fn other_seed_or_stream_other_inputs() {
        let net = networks::alarm(7);
        let draw = |seed, stream| {
            let mut g = Gen::new(seed, stream);
            (0..20)
                .map(|_| states(&g.evidence(&net, None)))
                .collect::<Vec<_>>()
        };
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn evidence_is_possible_and_hides_the_query_variable() {
        let net = networks::asia();
        let mut g = Gen::new(9, 0);
        for _ in 0..200 {
            let (query, e) = g.query(&net);
            assert!(net.marginal(&e) > 0.0);
            if let BatchQuery::Conditional { query_var } = query {
                assert_eq!(e.state(query_var), None);
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(256, 1.0);
        let mut g = Gen::new(5, 0);
        let mut counts = vec![0usize; 256];
        for _ in 0..20_000 {
            counts[zipf.draw(&mut g)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[200]);
    }
}
