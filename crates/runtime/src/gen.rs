//! Deterministic generator of valid synthetic class files.
//!
//! The paper's synthetic functions "load a predefined number of classes"
//! with heterogeneous sizes ("the loaded classes have different sizes, and
//! that is the reason the growth in the number of classes does not match
//! the size linearly"). This generator reproduces that: given a seed and a
//! target byte size it emits a [`ClassFile`] with a blob-heavy constant
//! pool and random — but verifier-clean — bytecode.

use crate::classfile::{ClassFile, Constant, Method, Op};

/// A tiny deterministic PRNG (splitmix64). Kept local so the runtime crate
/// stays dependency-free; workload-level randomness uses `rand` elsewhere.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.next_u64() % bound
    }

    /// A vector of `len` pseudo-random bytes, none of them zero (so the
    /// bytes defeat zero-page deduplication, like real class data).
    pub fn nonzero_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let word = self.next_u64().to_le_bytes();
            for b in word {
                if out.len() == len {
                    break;
                }
                out.push(if b == 0 { 0xA7 } else { b });
            }
        }
        out
    }
}

/// Generates one valid class file named `name` of approximately
/// `target_bytes` encoded size (within a few percent; never below the
/// structural minimum of ~100 bytes).
///
/// The same `(name, seed, target_bytes)` triple always yields the same
/// bytes.
pub fn synth_class(name: &str, seed: u64, target_bytes: usize) -> ClassFile {
    let mut rng = SplitMix64::new(seed ^ crate::classfile::fnv1a(name.as_bytes()));

    // Bytecode: 2-5 methods of random verifier-clean code.
    let method_count = 2 + rng.below(4) as usize;
    let mut methods = Vec::with_capacity(method_count);
    let mut code_budget = (target_bytes / 8).clamp(24, 4096);
    for mi in 0..method_count {
        let per_method = (code_budget / (method_count - mi)).max(8);
        code_budget -= per_method.min(code_budget);
        methods.push(synth_method(&mut rng, mi, per_method));
    }

    // Constant pool: one class-ref, one int, and blobs filling the rest of
    // the byte budget.
    let mut constants = vec![
        Constant::ClassRef(format!("{name}$Companion")),
        Constant::Int(rng.next_u64() as i64),
    ];
    let skeleton = ClassFile {
        name: name.to_owned(),
        constants: constants.clone(),
        methods: methods.clone(),
    };
    let overhead = skeleton.encode().len();
    let mut remaining = target_bytes.saturating_sub(overhead);
    while remaining > 16 {
        let chunk = remaining.min(2048 + rng.below(6144) as usize);
        // 5 bytes of per-blob encoding overhead (tag + u32 length)
        let payload = chunk.saturating_sub(5).max(8);
        constants.push(Constant::Blob(rng.nonzero_bytes(payload)));
        remaining = remaining.saturating_sub(payload + 5);
    }

    ClassFile {
        name: name.to_owned(),
        constants,
        methods,
    }
}

fn synth_method(rng: &mut SplitMix64, index: usize, code_budget: usize) -> Method {
    let mut code = Vec::with_capacity(code_budget + 8);
    let mut depth: i32 = 0;
    let mut max_depth: i32 = 0;
    // Pool indices 0 and 1 always exist (ClassRef + Int).
    const POOL_LIMIT: u16 = 2;

    while code.len() < code_budget {
        let choice = rng.below(100);
        let op = if depth == 0 {
            // Must grow the stack or stay neutral.
            if choice < 60 {
                Op::Push
            } else if choice < 90 {
                Op::Load
            } else {
                Op::Nop
            }
        } else if choice < 25 {
            Op::Push
        } else if choice < 40 {
            Op::Load
        } else if depth >= 2 && choice < 55 {
            Op::Add
        } else if depth >= 2 && choice < 65 {
            Op::Mul
        } else if choice < 80 {
            Op::Pop
        } else if choice < 90 {
            Op::Store
        } else {
            Op::Nop
        };
        match op {
            Op::Push => {
                code.push(Op::Push as u8);
                code.extend_from_slice(&(rng.next_u64() as u32).to_be_bytes());
            }
            Op::Load => {
                code.push(Op::Load as u8);
                code.extend_from_slice(&((rng.below(POOL_LIMIT as u64)) as u16).to_be_bytes());
            }
            Op::Store => {
                code.push(Op::Store as u8);
                code.extend_from_slice(&((rng.below(POOL_LIMIT as u64)) as u16).to_be_bytes());
            }
            Op::Nop | Op::Pop | Op::Add | Op::Mul => code.push(op as u8),
            Op::Jmp | Op::Ret => unreachable!("not generated in the loop"),
        }
        depth += op.stack_effect();
        max_depth = max_depth.max(depth);
    }
    // Drain the stack and return.
    while depth > 0 {
        code.push(Op::Pop as u8);
        depth -= 1;
    }
    code.push(Op::Ret as u8);

    Method {
        name: format!("m{index}"),
        max_stack: max_depth.max(1) as u16,
        code,
    }
}

/// Generates the class set of a synthetic function: `count` classes whose
/// sizes vary around `total_bytes / count` (uniformly in ±60 %), summing
/// to approximately `total_bytes`.
pub fn synth_class_set(
    name_prefix: &str,
    seed: u64,
    count: usize,
    total_bytes: usize,
) -> Vec<ClassFile> {
    assert!(count > 0, "need at least one class");
    let mut rng = SplitMix64::new(seed);
    let mean = (total_bytes / count).max(128);
    (0..count)
        .map(|i| {
            let jitter = 0.4 + (rng.below(1200) as f64 / 1000.0); // 0.4..1.6
            let size = ((mean as f64) * jitter) as usize;
            synth_class(
                &format!("{name_prefix}.C{i:04}"),
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                size,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn nonzero_bytes_has_no_zero() {
        let mut rng = SplitMix64::new(4);
        let bytes = rng.nonzero_bytes(10_000);
        assert_eq!(bytes.len(), 10_000);
        assert!(bytes.iter().all(|&b| b != 0));
    }

    #[test]
    fn synth_class_is_valid_and_reproducible() {
        let a = synth_class("com.example.A", 77, 4096);
        let b = synth_class("com.example.A", 77, 4096);
        assert_eq!(a, b);
        a.verify().unwrap();
        let encoded = a.encode();
        let parsed = ClassFile::parse(&encoded).unwrap();
        parsed.verify().unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn synth_class_hits_target_size() {
        for &target in &[512usize, 4096, 32 << 10, 128 << 10] {
            let c = synth_class("com.example.Sized", 5, target);
            let len = c.encode().len();
            let ratio = len as f64 / target as f64;
            assert!(
                (0.8..1.2).contains(&ratio),
                "target {target}, got {len} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = synth_class("com.example.A", 1, 2048);
        let b = synth_class("com.example.A", 2, 2048);
        assert_ne!(a, b);
    }

    #[test]
    fn class_set_sums_to_target() {
        // The paper's "small" function: 374 classes, ~2.8 MB.
        let set = synth_class_set("fn.small", 42, 374, 2_800_000);
        assert_eq!(set.len(), 374);
        let total: usize = set.iter().map(|c| c.encode().len()).sum();
        let ratio = total as f64 / 2_800_000.0;
        assert!((0.85..1.15).contains(&ratio), "total {total} ({ratio})");
        // sizes are heterogeneous
        let sizes: Vec<usize> = set.iter().take(20).map(|c| c.encode().len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > &(min + min / 2), "sizes too uniform: {sizes:?}");
    }

    #[test]
    fn every_generated_class_verifies() {
        let set = synth_class_set("fn.check", 7, 50, 200_000);
        for c in &set {
            c.verify()
                .unwrap_or_else(|e| panic!("class {} failed: {e}", c.name));
        }
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_set_panics() {
        synth_class_set("x", 0, 0, 100);
    }
}
