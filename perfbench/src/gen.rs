//! Seeded input generation: every key draw, Zipf skew, IR variant and
//! arrival time the benchmark sends comes from here, so one `--seed`
//! gives one input set.

/// SplitMix64: tiny, seedable, and stable across platforms and Rust
/// versions (unlike the standard library's hashers).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from neighbouring `salt`s.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A Zipf distribution over ranks `0..n` with skew `s`: `P(r) ∝ 1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Probability of rank `r`.
    pub fn prob(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Inline IR text for a small two-conv CNN whose widths `(c1, c2, fc)`
/// vary by variant; the name is fixed, so distinct widths are what make
/// the structural hashes distinct.
pub fn cnn_ir(c1: u32, c2: u32, fc: u32) -> String {
    format!(
        "model ChurnCnn {{\n  input (3, 16, 16)\n  \
         layer l0 = conv(k=3, s=1, p=1, out={c1}) @class(1)\n  \
         layer l1 = maxpool(k=2, s=2)\n  \
         layer l2 = conv(k=3, s=1, p=1, out={c2}) @class(1)\n  \
         layer l3 = maxpool(k=2, s=2)\n  \
         layer l4 = flatten\n  \
         layer l5 = fc(out={fc}) @class(5)\n  \
         layer l6 = fc(out=10) @class(5)\n}}\n"
    )
}

/// Widths for one seeded IR variant.
pub fn cnn_widths(rng: &mut Rng) -> (u32, u32, u32) {
    let c1 = 8 + 4 * rng.below(7) as u32; // 8..=32
    let c2 = 16 + 8 * rng.below(7) as u32; // 16..=64
    let fc = 32 + 16 * rng.below(7) as u32; // 32..=128
    (c1, c2, fc)
}
