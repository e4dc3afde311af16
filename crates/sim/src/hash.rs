//! XXH64, the one content hash of the snapshot path.
//!
//! Image checksums, page-frame content hashes and the application
//! archive's checksum all hash megabytes per restore, so they share one
//! hash that runs at memory speed: four independent 64-bit lanes over
//! 32-byte stripes, then a final avalanche. This is the standard XXH64
//! with seed 0 (little-endian reads), so its values match any reference
//! implementation.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn le32(bytes: &[u8]) -> u64 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as u64
}

/// XXH64 of `bytes` with seed 0: [`Xxh64`] fed all of `bytes` at once.
///
/// # Examples
///
/// ```
/// use prebake_sim::hash::xxh64;
///
/// assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
/// assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
/// ```
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.digest()
}

/// Incremental XXH64 with seed 0: bytes fed in any split digest to the
/// same value as [`xxh64`] over their concatenation. This is how a
/// checksum is verified over memory that arrives as page-sized chunks.
///
/// # Examples
///
/// ```
/// use prebake_sim::hash::{xxh64, Xxh64};
///
/// let mut h = Xxh64::new();
/// h.update(b"Nobody inspects ");
/// h.update(b"the spammish repetition");
/// assert_eq!(h.digest(), xxh64(b"Nobody inspects the spammish repetition"));
/// ```
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The start of a stripe that has not filled yet.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64::new()
    }
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                PRIME_1.wrapping_neg(),
            ],
            pending: [0; 32],
            pending_len: 0,
            total: 0,
        }
    }

    /// Feeds `bytes` after everything fed so far.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            let stripe = self.pending;
            stripe_round(&mut self.lanes, &stripe);
            self.pending_len = 0;
        }
        let stripes = bytes.chunks_exact(32);
        let rest = stripes.remainder();
        // Lanes in locals, so the loop keeps them in registers.
        let mut v = self.lanes;
        for stripe in stripes {
            stripe_round(&mut v, stripe);
        }
        self.lanes = v;
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// The digest of everything fed so far.
    pub fn digest(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let v = self.lanes;
            let mut h = v[0]
                .rotate_left(1)
                .wrapping_add(v[1].rotate_left(7))
                .wrapping_add(v[2].rotate_left(12))
                .wrapping_add(v[3].rotate_left(18));
            for lane in v {
                h = merge(h, lane);
            }
            h
        } else {
            PRIME_5
        };
        h = h.wrapping_add(self.total);

        let rest = &self.pending[..self.pending_len];
        let words = rest.chunks_exact(8);
        let mut tail = words.remainder();
        for word in words {
            h = (h ^ round(0, le64(word)))
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
        }
        if tail.len() >= 4 {
            h = (h ^ le32(tail).wrapping_mul(PRIME_1))
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(PRIME_5))
                .rotate_left(11)
                .wrapping_mul(PRIME_1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }
}

/// One 32-byte stripe through the four lanes.
fn stripe_round(v: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = round(*lane, le64(word));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe through the four lanes, then an
        // 8-byte word, no 4-byte word and three single bytes.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    proptest::proptest! {
        /// Feeding the bytes cut at random points digests to the one-shot
        /// value, whether a cut lands inside a stripe, on its edge or
        /// repeats (an empty update).
        #[test]
        fn chunked_digest_equals_one_shot(
            bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut h = Xxh64::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&bytes[at..cut]);
                at = cut;
            }
            h.update(&bytes[at..]);
            proptest::prop_assert_eq!(h.digest(), xxh64(&bytes));
        }
    }
}
