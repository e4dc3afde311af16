//! Image decoding and resizing.
//!
//! The paper's heaviest workload loads a 1 MB 3440×1440 image at start-up
//! and scales it to 10 % per request. Real JPEGs are out of scope, so
//! this module implements the same *shape* honestly: a compact "PBIC"
//! compressed source format (seeded procedural base + residual stream,
//! ~1 MB on disk) whose decoder genuinely produces a full RGB bitmap, a
//! raw "PBI" bitmap container, and a box-filter resizer doing
//! real pixel arithmetic.

use prebake_runtime::gen::SplitMix64;

/// Raw-bitmap magic: `"PBI1"`.
pub(crate) const BITMAP_MAGIC: u32 = 0x5042_4931;
/// Compressed-source magic: `"PBIC"`.
pub(crate) const COMPRESSED_MAGIC: u32 = 0x5042_4943;

/// Errors decoding image containers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageFormatError {
    /// Input ended early.
    Truncated,
    /// Magic mismatch.
    BadMagic(u32),
    /// Dimensions are zero or implausible.
    BadDimensions {
        /// Declared width.
        width: u32,
        /// Declared height.
        height: u32,
    },
    /// Payload length disagrees with dimensions.
    BadPayload,
}

impl std::fmt::Display for ImageFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageFormatError::Truncated => write!(f, "image truncated"),
            ImageFormatError::BadMagic(m) => write!(f, "bad image magic {m:#010x}"),
            ImageFormatError::BadDimensions { width, height } => {
                write!(f, "bad dimensions {width}x{height}")
            }
            ImageFormatError::BadPayload => write!(f, "payload length mismatch"),
        }
    }
}

impl std::error::Error for ImageFormatError {}

/// An RGB8 bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Interleaved RGB bytes, row-major (`3 * width * height` long).
    pub data: Vec<u8>,
}

impl Bitmap {
    /// Allocates a black bitmap.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Bitmap {
        assert!(width > 0 && height > 0, "zero-sized bitmap");
        Bitmap {
            width,
            height,
            data: vec![0u8; (3 * width * height) as usize],
        }
    }

    /// Writes the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub(crate) fn set_pixel(&mut self, x: u32, y: u32, rgb: [u8; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (3 * (y * self.width + x)) as usize;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Serialises to the PBI container.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() + 16);
        out.extend_from_slice(&BITMAP_MAGIC.to_be_bytes());
        out.extend_from_slice(&self.width.to_be_bytes());
        out.extend_from_slice(&self.height.to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a PBI container.
    ///
    /// # Errors
    ///
    /// Any [`ImageFormatError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<Bitmap, ImageFormatError> {
        if bytes.len() < 12 {
            return Err(ImageFormatError::Truncated);
        }
        let magic = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
        if magic != BITMAP_MAGIC {
            return Err(ImageFormatError::BadMagic(magic));
        }
        let width = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        let height = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
        if width == 0 || height == 0 || width > 1 << 16 || height > 1 << 16 {
            return Err(ImageFormatError::BadDimensions { width, height });
        }
        let expected = (3 * width as usize) * height as usize;
        if bytes.len() - 12 != expected {
            return Err(ImageFormatError::BadPayload);
        }
        Ok(Bitmap {
            width,
            height,
            data: bytes[12..].to_vec(),
        })
    }
}

/// The compressed source image: a seeded procedural base plus a residual
/// stream (~1 MB on disk for the paper's 3440×1440 source). Decoding
/// reconstitutes the full bitmap deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedImage {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Seed of the procedural base layer.
    pub seed: u64,
    /// Residual stream (applied cyclically over the base).
    pub residuals: Vec<u8>,
}

impl CompressedImage {
    /// Builds the paper's source: 3440×1440 with a 1 MiB residual stream.
    pub(crate) fn paper_source(seed: u64) -> CompressedImage {
        CompressedImage::synthetic(3440, 1440, seed, 1 << 20)
    }

    /// Builds an arbitrary synthetic source.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn synthetic(width: u32, height: u32, seed: u64, residual_bytes: usize) -> CompressedImage {
        assert!(width > 0 && height > 0, "zero-sized image");
        /// Domain-separation constant so image residual streams never
        /// collide with other SplitMix64 users sharing a seed.
        const RESIDUAL_DOMAIN: u64 = 0x1AA6_E000_0000_0001;
        let mut rng = SplitMix64::new(seed ^ RESIDUAL_DOMAIN);
        CompressedImage {
            width,
            height,
            seed,
            residuals: rng.nonzero_bytes(residual_bytes.max(64)),
        }
    }

    /// Serialises to the PBIC container.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.residuals.len() + 32);
        out.extend_from_slice(&COMPRESSED_MAGIC.to_be_bytes());
        out.extend_from_slice(&self.width.to_be_bytes());
        out.extend_from_slice(&self.height.to_be_bytes());
        out.extend_from_slice(&self.seed.to_be_bytes());
        out.extend_from_slice(&(self.residuals.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.residuals);
        out
    }

    /// Parses a PBIC container.
    ///
    /// # Errors
    ///
    /// Any [`ImageFormatError`] describing the malformation.
    pub fn parse(bytes: &[u8]) -> Result<CompressedImage, ImageFormatError> {
        if bytes.len() < 24 {
            return Err(ImageFormatError::Truncated);
        }
        let magic = u32::from_be_bytes(bytes[0..4].try_into().unwrap());
        if magic != COMPRESSED_MAGIC {
            return Err(ImageFormatError::BadMagic(magic));
        }
        let width = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        let height = u32::from_be_bytes(bytes[8..12].try_into().unwrap());
        if width == 0 || height == 0 || width > 1 << 16 || height > 1 << 16 {
            return Err(ImageFormatError::BadDimensions { width, height });
        }
        let seed = u64::from_be_bytes(bytes[12..20].try_into().unwrap());
        let len = u32::from_be_bytes(bytes[20..24].try_into().unwrap()) as usize;
        if bytes.len() - 24 != len {
            return Err(ImageFormatError::BadPayload);
        }
        Ok(CompressedImage {
            width,
            height,
            seed,
            residuals: bytes[24..].to_vec(),
        })
    }

    /// Decodes the full bitmap: procedural gradient base perturbed by the
    /// residual stream. Real per-pixel work, like a real decoder.
    pub fn decode(&self) -> Bitmap {
        let mut bmp = Bitmap::new(self.width, self.height);
        let res = &self.residuals;
        let rlen = res.len();
        let w = self.width as u64;
        let seed8 = (self.seed & 0xFF) as u32;
        let mut idx = 0usize;
        for y in 0..self.height {
            for x in 0..self.width {
                let base_r = (x * 255) / self.width;
                let base_g = (y * 255) / self.height;
                let base_b = ((x as u64 + y as u64 * w) % 255) as u32;
                let r0 = res[idx % rlen] as u32;
                let r1 = res[(idx + 1) % rlen] as u32;
                let r2 = res[(idx + 2) % rlen] as u32;
                idx += 3;
                let px = [
                    (((base_r * 3 + r0 + seed8) / 4) & 0xFF) as u8,
                    (((base_g * 3 + r1) / 4) & 0xFF) as u8,
                    (((base_b * 3 + r2) / 4) & 0xFF) as u8,
                ];
                bmp.set_pixel(x, y, px);
            }
        }
        bmp
    }
}

/// Downscales by integer-area box filtering to `scale` (e.g. `0.1` for
/// the paper's 10 %). Output dimensions round up so they are never zero.
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
pub fn resize_box(src: &Bitmap, scale: f64) -> Bitmap {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0,1]");
    let out_w = ((src.width as f64 * scale).round() as u32).max(1);
    let out_h = ((src.height as f64 * scale).round() as u32).max(1);
    let mut out = Bitmap::new(out_w, out_h);
    for oy in 0..out_h {
        let y0 = (oy as u64 * src.height as u64 / out_h as u64) as u32;
        let y1 = (((oy + 1) as u64 * src.height as u64).div_ceil(out_h as u64) as u32)
            .min(src.height)
            .max(y0 + 1);
        for ox in 0..out_w {
            let x0 = (ox as u64 * src.width as u64 / out_w as u64) as u32;
            let x1 = (((ox + 1) as u64 * src.width as u64).div_ceil(out_w as u64) as u32)
                .min(src.width)
                .max(x0 + 1);
            let mut acc = [0u64; 3];
            for y in y0..y1 {
                let row = (3 * (y * src.width + x0)) as usize;
                let row_end = (3 * (y * src.width + x1)) as usize;
                for px in src.data[row..row_end].chunks_exact(3) {
                    acc[0] += px[0] as u64;
                    acc[1] += px[1] as u64;
                    acc[2] += px[2] as u64;
                }
            }
            let n = ((x1 - x0) as u64) * ((y1 - y0) as u64);
            out.set_pixel(
                ox,
                oy,
                [(acc[0] / n) as u8, (acc[1] / n) as u8, (acc[2] / n) as u8],
            );
        }
    }
    out
}

/// Derives the runtime working buffers a decoder keeps alongside the
/// bitmap (channel planes and scratch) — these are what blow the paper's
/// Image Resizer snapshot up to 99.2 MB. Each buffer is a cheap byte
/// transform of the bitmap so generation stays fast while the bytes stay
/// unique and non-zero.
pub(crate) fn working_buffers(bmp: &Bitmap, count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            let k = 0x35u8.wrapping_add((i as u8) * 0x4F);
            bmp.data
                .iter()
                .map(|&b| {
                    let v = b ^ k;
                    if v == 0 {
                        0x11
                    } else {
                        v
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_source() -> CompressedImage {
        CompressedImage::synthetic(64, 48, 7, 4096)
    }

    #[test]
    fn compressed_roundtrip() {
        let c = small_source();
        let back = CompressedImage::parse(&c.encode()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn bitmap_roundtrip() {
        let bmp = small_source().decode();
        let back = Bitmap::parse(&bmp.encode()).unwrap();
        assert_eq!(back, bmp);
    }

    #[test]
    fn decode_is_deterministic() {
        let a = small_source().decode();
        let b = small_source().decode();
        assert_eq!(a, b);
        let c = CompressedImage::synthetic(64, 48, 8, 4096).decode();
        assert_ne!(a, c, "different seed, different image");
    }

    #[test]
    fn paper_source_has_paper_shape() {
        let src = CompressedImage::paper_source(1);
        assert_eq!(src.width, 3440);
        assert_eq!(src.height, 1440);
        let on_disk = src.encode().len();
        assert!(
            (1_000_000..1_100_000).contains(&on_disk),
            "~1MB on disk, got {on_disk}"
        );
    }

    #[test]
    fn decoded_paper_source_is_15mb() {
        // Decode the full source once (also exercises the real decode path
        // at the paper's scale).
        let bmp = CompressedImage::paper_source(2).decode();
        assert_eq!(bmp.data.len(), 3 * 3440 * 1440);
    }

    #[test]
    fn resize_box_ten_percent() {
        let bmp = small_source().decode();
        let out = resize_box(&bmp, 0.1);
        assert_eq!(out.width, 6);
        assert_eq!(out.height, 5);
        // Area averaging approximately preserves the mean intensity.
        let mean = |b: &Bitmap| b.data.iter().map(|&v| v as f64).sum::<f64>() / b.data.len() as f64;
        let delta = (mean(&out) - mean(&bmp)).abs();
        assert!(delta < 4.0, "mean drifted by {delta}");
    }

    #[test]
    fn resize_box_uniform_stays_uniform() {
        let mut bmp = Bitmap::new(40, 40);
        bmp.data.fill(123);
        let out = resize_box(&bmp, 0.25);
        assert!(out.data.iter().all(|&b| b == 123));
    }

    #[test]
    fn resize_box_identity_scale() {
        let bmp = small_source().decode();
        let out = resize_box(&bmp, 1.0);
        assert_eq!(out, bmp);
    }

    #[test]
    fn resize_box_never_zero_dimensions() {
        let bmp = Bitmap::new(5, 3);
        let out = resize_box(&bmp, 0.01);
        assert_eq!((out.width, out.height), (1, 1));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(Bitmap::parse(&[1, 2, 3]), Err(ImageFormatError::Truncated));
        let mut bytes = Bitmap::new(2, 2).encode();
        bytes[0] = 0;
        assert!(matches!(
            Bitmap::parse(&bytes),
            Err(ImageFormatError::BadMagic(_))
        ));
        let mut bytes = Bitmap::new(2, 2).encode();
        bytes.pop();
        assert_eq!(Bitmap::parse(&bytes), Err(ImageFormatError::BadPayload));
        let mut c = small_source().encode();
        c.truncate(30);
        assert_eq!(
            CompressedImage::parse(&c),
            Err(ImageFormatError::BadPayload)
        );
    }

    #[test]
    fn working_buffers_nonzero_and_distinct() {
        let bmp = small_source().decode();
        let bufs = working_buffers(&bmp, 4);
        assert_eq!(bufs.len(), 4);
        for buf in &bufs {
            assert_eq!(buf.len(), bmp.data.len());
            assert!(buf.iter().all(|&b| b != 0));
        }
        assert_ne!(bufs[0], bufs[1]);
    }

    #[test]
    fn pixel_accessors() {
        let mut bmp = Bitmap::new(4, 4);
        bmp.set_pixel(2, 3, [9, 8, 7]);
        let i = 3 * (3 * 4 + 2);
        assert_eq!(bmp.data[i..i + 3], [9, 8, 7]);
        assert!(bmp.data[..i].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_out_of_bounds_panics() {
        Bitmap::new(2, 2).set_pixel(2, 0, [0; 3]);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0,1]")]
    fn bad_scale_panics() {
        resize_box(&Bitmap::new(2, 2), 1.5);
    }
}
